import math

import numpy as np
import pytest
from scipy import integrate

from lifshitz_plates import (
    CONSTANTS,
    EvaluationSettings,
    QuadratureBudgetError,
    as_layer_stack,
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
    the reference shares neither the v rule nor the u rule with the engine's
    T = 0 path.
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


@pytest.mark.parametrize("a", [162e-9, 2e-6])
@pytest.mark.parametrize("plate_name", ["drude_stack", "plasma_stack", "rough_plate"])
def test_zero_temperature_matches_quadpack_reference(plate_name, a, request):
    plate = request.getfixturevalue(plate_name)
    tol = 1e-11
    expected = quadpack_t0_pressure(plate, a, tol)
    got = pressure_zero_temperature(plate, a, EvaluationSettings(zero_temperature=True,
                                                                 quad_rel_tol=tol))
    assert abs(got - expected) <= 1e-10 * expected


def test_refinement_budget_exhaustion_raises(monkeypatch, drude_stack):
    monkeypatch.setattr(engine, "_MAX_REFINEMENTS", 0)
    zero_t = EvaluationSettings(zero_temperature=True, quad_rel_tol=1e-12)
    with pytest.raises(QuadratureBudgetError, match=r"a = 1\.620000e-07 m, xi = .*v = ") as info:
        pressure_zero_temperature(drude_stack, 162e-9, zero_t)
    assert info.value.estimate > info.value.target > 0.0
    assert info.value.gap == 162e-9
    finite_t = EvaluationSettings(temperature=300.0, quad_rel_tol=1e-12)
    with pytest.raises(QuadratureBudgetError, match=r"Matsubara block l = 0\.\.111 "):
        pressure(drude_stack, 162e-9, finite_t)
    with pytest.raises(QuadratureBudgetError, match=r"Matsubara block l = 1\.\.1"):
        matsubara_pressure_term(drude_stack, 162e-9, 1, finite_t)



def test_only_missed_frequencies_are_refined(kernel_calls, drude_stack):
    """At the default tolerance every outer frequency is integrated once on the
    inner rule, and only the few that miss their target again on a refined one."""
    pressure_zero_temperature(drude_stack, 162e-9, EvaluationSettings(zero_temperature=True))
    inner = len(engine._T0_INNER_RULE.nodes)
    first = next((k for k, (_, _, nodes) in enumerate(kernel_calls) if nodes != inner),
                 len(kernel_calls))
    assert sum(rows for _, rows, _ in kernel_calls[:first]) == len(engine._T0_OUTER_RULE.nodes)
    refined = {}
    for _, rows, nodes in kernel_calls[first:]:
        refined[nodes] = refined.get(nodes, 0) + rows
    assert refined
    assert all(n > inner and 0 < r < len(engine._T0_OUTER_RULE.nodes) for n, r in refined.items())
