import os

import hypothesis
import numpy as np
import pytest

from lifshitz_plates import (
    BulkMetal,
    Drude,
    EvaluationSettings,
    LayerStack,
    Measurement,
    PerfectReflector,
    Plasma,
    build_rough_plate,
    eta_sweep,
    ev_to_angular_frequency,
)
from lifshitz_plates import engine

# property tests replay the same examples on every run, with no timing limit
hypothesis.settings.register_profile("derandomized", derandomize=True, deadline=None)
hypothesis.settings.load_profile("derandomized")

# gold parameters used throughout: h_bar Omega_P = 8.9 eV, h_bar gamma = 0.0357 eV
GOLD_WP = ev_to_angular_frequency(8.9)
GOLD_GAMMA = ev_to_angular_frequency(0.0357)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which this process still has a child process,
    running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = f"pid {pid}, unreaped" if pid else "running"
    pytest.fail(f"a child process outlived the test ({state})")


@pytest.fixture(scope="session")
def gold():
    return BulkMetal(GOLD_WP, GOLD_GAMMA)


@pytest.fixture(scope="session")
def drude_stack():
    return LayerStack((), Drude(GOLD_WP, GOLD_GAMMA))


@pytest.fixture(scope="session")
def plasma_stack():
    return LayerStack((), Plasma(GOLD_WP))


@pytest.fixture(scope="session")
def perfect_stack():
    return LayerStack((), PerfectReflector())


@pytest.fixture(scope="session")
def rough_plate():
    return build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record every panel-kernel call, ``engine._pol_integrals`` and
    ``engine._pol_integrals_zero`` alike, as (gaps, rows, nodes): the set of
    its rows' gaps, its number of rows and its rule's node count."""
    calls = []
    for name in ("_pol_integrals", "_pol_integrals_zero"):
        def recording(stack, a, *args, _original=getattr(engine, name)):
            out = _original(stack, a, *args)
            calls.append((set(np.ravel(a).tolist()), len(out[0]), len(args[-1].nodes)))
            return out

        monkeypatch.setattr(engine, name, recording)
    return calls


@pytest.fixture(scope="session")
def settings300():
    return EvaluationSettings(temperature=300.0)


@pytest.fixture(scope="session")
def synthesize(gold):
    """Factory for synthetic reduction-factor datasets from the two-layer model."""

    def _make(h, f, d_values, temperature=300.0, noise=0.0, seed=0, settings=None,
              weighted=False):
        plate = build_rough_plate(
            gold.plasma_frequency, gold.relaxation_frequency, h, f, gold.interband
        )
        settings = settings or EvaluationSettings(temperature=temperature)
        table = eta_sweep(plate, d_values, settings)
        eta = table.eta.copy()
        sigma = np.ones_like(eta)
        if noise:
            rng = np.random.default_rng(seed)
            eta = eta * (1.0 + noise * rng.standard_normal(len(eta)))
            if weighted:
                sigma = noise * table.eta
        return [
            Measurement(d, e, s) for d, e, s in zip(table.d, eta, sigma)
        ]

    return _make
