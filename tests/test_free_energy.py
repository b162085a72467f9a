"""Free-energy oracle for the finite-temperature pressure.

The Lifshitz free energy per unit area of two identical plates at gap a is

    F(a) = k_B T / (8 pi a^2) sum_l' integral_{u0}^inf du u sum_pol ln(1 - r^2 e^-u)

with u = 2 a q, u0 = 2 a xi_l / c and the l = 0 term weighted one half, and
the pressure magnitude is dF/da.  The helper below forms F from the stack
layer's reflection coefficients alone, on fixed rules of its own, and
differentiates it numerically; it shares with the engine neither the
integrand (a logarithm, not g / (1 - g)), nor the stopping rule, nor the
refinement test.  That checks the plates with no closed form: Drude, plasma
and the rough two-layer plate.
"""

import math

import numpy as np
import pytest

from lifshitz_plates import CONSTANTS, EvaluationSettings, matsubara_frequency, pressure
from lifshitz_plates._quad import DEFAULT_EDGES, DEFAULT_RULE, PanelRule
from lifshitz_plates.stack import _reflection, _static_reflection, as_layer_stack

ROW_RULE = DEFAULT_RULE.refined().refined()
# at l = 0 a plasma or perfect TM (and plasma TE) coefficient has r^2 -> 1 as
# u -> 0, and u ln(1 - e^-u) ~ u ln u is resolved only on panels graded towards 0
STATIC_RULE = PanelRule.from_edges(
    np.concatenate([[0.0], np.geomspace(1e-12, 0.5, 24), DEFAULT_EDGES[2:]])).refined()
ROWS = 128  # Matsubara rows per reflection call


def _u_integrals(r, u, rule):
    """integral of u sum_pol ln(1 - r^2 e^-u) per row on ``rule``."""
    f = u * np.log1p(-(r * r) * np.exp(-u))
    return (f[0] + f[1]) @ rule.weights[:, 0]


def free_energy(plate, a, temperature, rows):
    """F(a) in J/m^2 from Matsubara rows l = 0..``rows``."""
    stack = as_layer_stack(plate)
    u = STATIC_RULE.nodes
    total = 0.5 * _u_integrals(_static_reflection(stack, u, a), u, STATIC_RULE)
    for start in range(1, rows + 1, ROWS):
        xi = matsubara_frequency(np.arange(start, min(start + ROWS, rows + 1)), temperature)
        u = (2.0 * a / CONSTANTS.c) * xi[:, None] + ROW_RULE.nodes
        total += _u_integrals(_reflection(stack, xi[:, None], u, a, u * u), u, ROW_RULE).sum()
    return CONSTANTS.k_B * temperature / (8.0 * math.pi * a * a) * total


def free_energy_pressure(plate, a, temperature):
    """dF/da by a five-point difference of step 1e-3 a, every F on the rows
    l x_1 <= 60 of the gap ``a``, x_1 = 2 a xi_1 / c."""
    x1 = 2.0 * a * matsubara_frequency(1, temperature) / CONSTANTS.c
    rows, step = math.ceil(60.0 / x1), 1e-3 * a
    f = [free_energy(plate, a + k * step, temperature, rows) for k in (-2, -1, 1, 2)]
    return (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * step)


TIGHT = EvaluationSettings(temperature=300.0, quad_rel_tol=1e-12, sum_rel_tol=1e-15)


@pytest.mark.parametrize("a", [30e-9, 162e-9, 746e-9, 3e-6])
@pytest.mark.parametrize("plate_name", ["perfect_stack", "drude_stack", "plasma_stack",
                                        "rough_plate"])
def test_pressure_is_the_derivative_of_the_free_energy(request, plate_name, a):
    plate = request.getfixturevalue(plate_name)
    ratio = free_energy_pressure(plate, a, 300.0) / pressure(plate, a, TIGHT)
    assert abs(ratio - 1.0) <= 1e-9
