"""Property tests: invariants that hold for every valid input, not just the examples."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lifshitz_plates import (
    CONSTANTS,
    Composite,
    Drude,
    LayerStack,
    OscillatorSum,
    PerfectReflector,
    Plasma,
)
from lifshitz_plates.stack import _reflection


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


frequencies = _log_uniform(12.0, 17.5)
drude = st.builds(Drude, frequencies, st.just(0.0) | _log_uniform(11.0, 16.0))
plasma = st.builds(Plasma, frequencies)
oscillators = st.builds(
    OscillatorSum,
    st.lists(st.tuples(_log_uniform(26.0, 34.0), frequencies, st.just(0.0) | frequencies),
             min_size=1, max_size=2))
conductors = drude | plasma
media = conductors | oscillators | st.builds(lambda c, o: Composite((c, o)), conductors,
                                             oscillators)
stacks = st.builds(
    LayerStack,
    st.lists(st.tuples(media, st.just(0.0) | _log_uniform(-10.0, -5.0)), max_size=3),
    media | st.just(PerfectReflector()))


@settings(max_examples=60)
@given(stack=stacks,
       xi=st.lists(_log_uniform(11.0, 18.0), min_size=1, max_size=6),
       excess=st.lists(st.just(0.0) | _log_uniform(-8.0, 4.0), min_size=1, max_size=6))
def test_reflection_is_bounded_by_one(stack, xi, excess):
    """|r_TE| <= 1 and |r_TM| <= 1 for xi > 0 at every q >= xi/c: a passive plate
    never reflects more than it receives."""
    xi = np.array(xi)[:, None]
    q = (xi / CONSTANTS.c) * (1.0 + np.array(excess))[None, :]
    r = _reflection(stack, xi, q)
    assert r.shape == (2,) + q.shape
    assert np.all(np.abs(r) <= 1.0)
