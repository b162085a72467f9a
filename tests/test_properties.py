"""Property tests: invariants that hold for every valid input, not just the examples."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import SWEEP_GRID

from lifshitz_plates import (
    CONSTANTS,
    Composite,
    Drude,
    EvaluationSettings,
    LayerStack,
    Measurement,
    Oscillator,
    PerfectReflector,
    Plasma,
    build_rough_plate,
    dump_measurements,
    eta_sweep,
    load_measurements,
    pressure,
    pressure_zero_temperature,
)
from lifshitz_plates.stack import _reflection

from conftest import GOLD_GAMMA, GOLD_WP


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


frequencies = _log_uniform(12.0, 17.5)
drude = st.builds(Drude, frequencies, st.just(0.0) | _log_uniform(11.0, 16.0))
plasma = st.builds(Plasma, frequencies)
oscillators = st.builds(
    lambda triples: Composite([Oscillator(*t) for t in triples]),
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
    a = 200e-9
    u = (2.0 * a / CONSTANTS.c) * xi * (1.0 + np.array(excess))[None, :]
    r = _reflection(stack, xi, u, a, u * u)
    assert r.shape == (2,) + u.shape
    assert np.all(np.abs(r) <= 1.0)


SWEEP_TOLS = (1e-9, 5e-10)


@pytest.fixture(scope="module")
def full_grid_eta(rough_plate):
    return {tol: eta_sweep(rough_plate, SWEEP_GRID,
                           EvaluationSettings(temperature=300.0, quad_rel_tol=tol)).eta
            for tol in SWEEP_TOLS}


@settings(max_examples=30)
@given(quad_rel_tol=st.sampled_from(SWEEP_TOLS),
       picks=st.lists(st.integers(0, len(SWEEP_GRID) - 1), min_size=2,
                      max_size=len(SWEEP_GRID), unique=True))
def test_sweep_row_does_not_depend_on_the_other_gaps(rough_plate, full_grid_eta,
                                                     quad_rel_tol, picks):
    """Each gap's blocks are accepted or refined on their own: a sweep over any
    subset of the grid gives every row the value it has on the full grid.  At
    5e-10 only some gaps refine, so error sums leaking across gaps would show."""
    table = eta_sweep(rough_plate, SWEEP_GRID[picks],
                      EvaluationSettings(temperature=300.0, quad_rel_tol=quad_rel_tol))
    expected = full_grid_eta[quad_rel_tol][np.sort(picks)]
    assert np.all(np.abs(table.eta - expected) <= 1e-15 * expected)


PLATES = {
    "drude": LayerStack((), Drude(GOLD_WP, GOLD_GAMMA)),
    "plasma": LayerStack((), Plasma(GOLD_WP)),
    "rough-11nm": build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9),
    "rough-100nm": build_rough_plate(GOLD_WP, GOLD_GAMMA, 100e-9, 1.0),
    "layer-over-mirror": LayerStack([(Plasma(GOLD_WP), 20e-9)], PerfectReflector()),
    "dielectric-layer": LayerStack([(Oscillator(1e32, 1e16, 1e14), 50e-9)],
                                   Drude(GOLD_WP, GOLD_GAMMA)),
}
PERFECT = LayerStack((), PerfectReflector())


@settings(max_examples=24)
@given(name=st.sampled_from(sorted(PLATES)), a=_log_uniform(-7.3, -5.0),
       zero_temperature=st.booleans())
def test_pressure_is_bounded_by_the_perfect_mirrors(name, a, zero_temperature):
    """0 < P(plate, a, T) <= P(perfect, a, T) at the same gap, at 300 K and at
    T = 0: g/(1 - g) rises with g = r^2 exp(-u), so |r| <= 1 at every node
    bounds each term by the mirrors' (eta itself exceeds 1 at 300 K beyond
    about 3 um)."""
    settings = EvaluationSettings(temperature=300.0, zero_temperature=zero_temperature)
    value = pressure(PLATES[name], a, settings)
    assert 0.0 < value <= pressure(PERFECT, a, settings) * (1.0 + settings.quad_rel_tol)


@settings(max_examples=6)
@given(name=st.sampled_from(["drude", "plasma"]), a=_log_uniform(-6.0, math.log10(5e-6)))
def test_u_route_matches_kperp_route(name, a):
    """The scaled-variable kernel and the QUADPACK route in the raw transverse
    wavenumber give the same 300 K pressure, each within ``quad_rel_tol``."""
    settings = EvaluationSettings(temperature=300.0)
    p_u = pressure(PLATES[name], a, settings)
    p_k = pressure(PLATES[name], a, settings, integration_variable="kperp")
    assert abs(p_u - p_k) <= 2.0 * settings.quad_rel_tol * p_u


measurements = st.lists(
    st.builds(Measurement, _log_uniform(-9.5, -4.0), _log_uniform(-3.0, 1.0),
              st.just(1.0) | _log_uniform(-4.0, 0.0)),
    min_size=1, max_size=5, unique_by=lambda m: m.d)


@settings(max_examples=40)
@given(data=measurements, unit=st.sampled_from(["d_um", "d_nm"]))
def test_measurements_survive_dump_and_load(data, unit):
    """Every field comes back exactly: d is shifted to the unit in decimal on
    the way out and back, so no product with 1e-6 rounds it."""
    buffer = io.StringIO()
    dump_measurements(data, buffer, unit)
    back = load_measurements(buffer.getvalue())
    expected = sorted(data, key=lambda m: m.d)
    assert [(m.d, m.eta, m.sigma) for m in back] == [(m.d, m.eta, m.sigma) for m in expected]


LOW_T_GAP = 500e-9


def _low_temperature_shift(plate, temperature):
    """|P(T) - P(0)| / P(0) at ``LOW_T_GAP``."""
    p_zero = pressure_zero_temperature(plate, LOW_T_GAP)
    return abs(pressure(plate, LOW_T_GAP, EvaluationSettings(temperature=temperature))
               - p_zero) / p_zero


@settings(max_examples=6)
@given(plate=st.sampled_from([PERFECT, PLATES["plasma"]]), temperature=st.floats(3.0, 10.0))
def test_low_temperature_sum_meets_the_zero_temperature_integral(plate, temperature):
    """For plates without dissipation the Matsubara sum tends to the T = 0
    integral: within 1e-7 at 3-10 K and 500 nm.  The measured shift, about
    1e-8, is the bias of the truncated Matsubara sum (ROADMAP direction 3):
    -1.19e-8 for plasma at 500 nm and 3 K."""
    assert _low_temperature_shift(plate, temperature) <= 1e-7


@settings(max_examples=6)
@given(temperature=_log_uniform(math.log10(3.0), math.log10(30.0)))
def test_rough_plate_shifts_less_than_drude_at_low_temperature(temperature):
    """The plasma surface layer keeps the rough plate's thermal shift below the
    Drude plate's: at 500 nm, 2.1e-5 against 1.3e-4 at 3 K, 7.2e-4 against
    4.1e-3 at 30 K."""
    assert (_low_temperature_shift(PLATES["rough-11nm"], temperature)
            < _low_temperature_shift(PLATES["drude"], temperature))
