import math

import numpy as np
import pytest
from scipy import integrate

from lifshitz_plates import (
    CONSTANTS,
    Composite,
    EvaluationSettings,
    LayerStack,
    Oscillator,
    PerfectReflector,
    QuadratureBudgetError,
    as_layer_stack,
    ev_to_angular_frequency,
    gap_from_average,
    matsubara_pressure_term,
    pressure,
    pressure_zero_temperature,
)
from lifshitz_plates import engine
from lifshitz_plates._quad import DEFAULT_RULE


def quadpack_t0_pressure(plate, a, quad_rel_tol):
    """T = 0 pressure with QUADPACK over v = 2 a xi / c.

    Each integrand value is the engine's single-frequency u integral on the
    finite-T rule ``DEFAULT_RULE``, split up to ``_MAX_REFINEMENTS`` times, so
    the reference shares no rule, and not the variable t = v / u, with the
    engine's T = 0 path.
    """
    stack = as_layer_stack(plate)

    def integrand(v):
        xi = np.array([0.5 * v * CONSTANTS.c / a])
        rule = DEFAULT_RULE
        for _ in range(engine._MAX_REFINEMENTS + 1):
            te, tm, err = engine._pol_integrals(stack, a, xi, rule)
            value = float(te[0] + tm[0])
            if err[0] <= 0.25 * quad_rel_tol * abs(value):
                break
            rule = rule.refined()
        return value

    value, _ = integrate.quad(integrand, 0.0, 60.0, epsabs=0.0, epsrel=quad_rel_tol, limit=300)
    return CONSTANTS.hbar * CONSTANTS.c / (32.0 * math.pi**2 * a**4) * value


GATE_GAPS = (1e-9, 10e-9, 162e-9, 2e-6, 50e-6)
TIGHT = EvaluationSettings(zero_temperature=True, quad_rel_tol=1e-12)


@pytest.fixture(scope="module")
def t0_plates(perfect_stack, drude_stack, plasma_stack, rough_plate):
    """The benchmark's four plates, a Drude layer over a mirror and a Drude
    bulk with an interband oscillator."""
    gold = drude_stack.substrate
    interband = Composite([Oscillator(ev_to_angular_frequency(6.0) ** 2,
                                      ev_to_angular_frequency(3.0), ev_to_angular_frequency(0.5))])
    return {"perfect": perfect_stack, "drude": drude_stack, "plasma": plasma_stack,
            "rough": rough_plate, "drude-on-mirror": LayerStack([(gold, 20e-9)], PerfectReflector()),
            "oscillator-drude": LayerStack((), Composite((gold, interband)))}


@pytest.fixture(scope="module")
def tight_reference(t0_plates):
    """T = 0 pressures at quad_rel_tol = 1e-12, by plate name and gap."""
    return {(name, a): pressure_zero_temperature(plate, a, TIGHT)
            for name, plate in t0_plates.items() for a in GATE_GAPS}


@pytest.fixture
def t0_passes(monkeypatch):
    """Record (u nodes, t nodes) of every pass of the T = 0 tensor rule."""
    passes = []

    def recording(stack, a, u_rule, t_rule, _original=engine._t0_sums):
        passes.append((len(u_rule.nodes), len(t_rule.nodes)))
        return _original(stack, a, u_rule, t_rule)

    monkeypatch.setattr(engine, "_t0_sums", recording)
    return passes


@pytest.mark.parametrize("a", [162e-9, 2e-6])
@pytest.mark.parametrize("plate_name", ["drude_stack", "plasma_stack", "rough_plate"])
def test_zero_temperature_matches_quadpack_reference(plate_name, a, request):
    plate = request.getfixturevalue(plate_name)
    tol = 1e-11
    expected = quadpack_t0_pressure(plate, a, tol)
    got = pressure_zero_temperature(plate, a, EvaluationSettings(zero_temperature=True,
                                                                 quad_rel_tol=tol))
    assert abs(got - expected) <= 1e-10 * expected


@pytest.mark.parametrize("name", ["perfect", "drude", "plasma", "rough", "drude-on-mirror",
                                  "oscillator-drude"])
def test_pressure_lies_within_its_tolerance_of_a_tight_one(name, t0_plates, tight_reference):
    for tol in (1e-6, 1e-9):
        settings = EvaluationSettings(zero_temperature=True, quad_rel_tol=tol)
        for a in GATE_GAPS:
            expected = tight_reference[name, a]
            got = pressure_zero_temperature(t0_plates[name], a, settings)
            assert abs(got - expected) <= tol * expected, (tol, a)


@pytest.mark.parametrize("name", ["drude", "plasma", "rough", "drude-on-mirror",
                                  "oscillator-drude"])
def test_one_nanometre_reference_matches_quadpack(name, t0_plates, tight_reference):
    """The 1 nm references need the t axis split; QUADPACK over v = 2 a xi / c,
    which never splits t, agrees."""
    expected = quadpack_t0_pressure(t0_plates[name], 1e-9, 1e-11)
    assert abs(tight_reference[name, 1e-9] - expected) <= 1e-10 * expected


def test_refinement_budget_exhaustion_raises(monkeypatch, drude_stack):
    monkeypatch.setattr(engine, "_MAX_REFINEMENTS", 0)
    zero_t = EvaluationSettings(zero_temperature=True, quad_rel_tol=1e-12)
    with pytest.raises(QuadratureBudgetError, match=r"a = 1\.620000e-07 m, T = 0 integral, "
                       r"larger estimate on the u = 2 a q axis") as info:
        pressure_zero_temperature(drude_stack, 162e-9, zero_t)
    assert info.value.estimate > info.value.target > 0.0
    assert info.value.gap == 162e-9
    with pytest.raises(QuadratureBudgetError, match=r"on the t = 2 a xi / \(c u\) axis"):
        pressure_zero_temperature(drude_stack, 1e-9, zero_t)
    finite_t = EvaluationSettings(temperature=300.0, quad_rel_tol=1e-12)
    with pytest.raises(QuadratureBudgetError, match=r"Matsubara block l = 0\.\.107 "):
        pressure(drude_stack, 162e-9, finite_t)
    with pytest.raises(QuadratureBudgetError, match=r"Matsubara block l = 1\.\.1"):
        matsubara_pressure_term(drude_stack, 162e-9, 1, finite_t)


def test_benchmark_points_take_one_pass_and_small_gaps_split_only_t(t0_passes, t0_plates):
    """At the default tolerance the benchmark's T = 0 points are accepted on the
    first tensor rule; at a <= 5 nm every plate but the perfect one splits the
    t panels, and only those."""
    first = (len(engine._T0_U_RULE.nodes), len(engine._T0_T_RULE.nodes))
    assert first == (120, 165)
    settings = EvaluationSettings(zero_temperature=True)
    for name in ("perfect", "drude", "plasma", "rough"):
        plate = t0_plates[name]
        h, f = (plate.layer_thickness, plate.fill_factor) if name == "rough" else (0.0, 1.0)
        for d in (0.162e-6, 0.746e-6, 2e-6):
            t0_passes.clear()
            pressure(plate, gap_from_average(d, h, f), settings)
            assert t0_passes == [first], (name, d)
    for name, plate in t0_plates.items():
        for a in (1e-9, 2e-9, 5e-9):
            t0_passes.clear()
            pressure_zero_temperature(plate, a, settings)
            splits = len(t0_passes) - 1
            assert t0_passes == [(120, 165 << k) for k in range(splits + 1)], (name, a)
            assert (splits == 0) == (name == "perfect"), (name, a)
