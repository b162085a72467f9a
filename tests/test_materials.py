import dataclasses
import math

import numpy as np
import pytest

from lifshitz_plates import (
    CONSTANTS,
    BulkMetal,
    Composite,
    Drude,
    LayerStack,
    Oscillator,
    PerfectReflector,
    Plasma,
    RoughPlateSpec,
    Vacuum,
    as_layer_stack,
    build_rough_plate,
    permittivity_imag_axis,
    static_limit,
    surface_plasma_frequency,
)
from lifshitz_plates.stack import _reflection

from conftest import GOLD_GAMMA, GOLD_WP

XI_GRID = np.logspace(10, 18, 200)


def test_drude_at_plasma_frequency():
    # eps(i Omega_P) = 1 + 1/(1 + gamma/Omega_P) = 1.996005 for gold
    eps = permittivity_imag_axis(Drude(GOLD_WP, GOLD_GAMMA), GOLD_WP)
    assert eps == pytest.approx(1.0 + 1.0 / (1.0 + GOLD_GAMMA / GOLD_WP), rel=1e-14)
    assert eps == pytest.approx(1.996005, abs=1e-6)


def test_drude_at_relaxation_frequency():
    eps = permittivity_imag_axis(Drude(GOLD_WP, GOLD_GAMMA), GOLD_GAMMA)
    assert eps == pytest.approx(1.0 + (8.9 / 0.0357) ** 2 / 2.0, rel=1e-12)
    assert eps == pytest.approx(3.1077e4, rel=1e-4)


def test_plasma_at_own_frequency():
    omega = 3.7e15
    assert permittivity_imag_axis(Plasma(omega), omega) == pytest.approx(2.0, rel=1e-15)


def test_vacuum_is_unity():
    eps = permittivity_imag_axis(Vacuum(), XI_GRID)
    assert np.all(eps == 1.0)


def test_scalar_and_array_shapes():
    model = Drude(GOLD_WP, GOLD_GAMMA)
    assert isinstance(permittivity_imag_axis(model, 1e15), float)
    assert permittivity_imag_axis(model, XI_GRID).shape == XI_GRID.shape


@pytest.mark.parametrize("xi", [0.0, -1e14])
def test_nonpositive_xi_rejected(xi):
    with pytest.raises(ValueError):
        permittivity_imag_axis(Drude(GOLD_WP, GOLD_GAMMA), xi)
    with pytest.raises(ValueError):
        permittivity_imag_axis(Vacuum(), np.array([1e14, xi]))


def test_perfect_reflector_has_no_permittivity():
    with pytest.raises(ValueError, match="reflection level"):
        permittivity_imag_axis(PerfectReflector(), 1e15)


def test_oscillator_sum_formula():
    g, w0, damping = 4.2e31, 3.1e15, 2.4e14
    xi = 8.0e14
    eps = permittivity_imag_axis(Composite([Oscillator(g, w0, damping)]), xi)
    assert eps == pytest.approx(1.0 + g / (w0**2 + xi**2 + damping * xi), rel=1e-15)


def test_empty_oscillator_sum_is_vacuum_like():
    assert np.all(permittivity_imag_axis(Composite(), XI_GRID) == 1.0)


def test_composite_linearity():
    parts = [
        Drude(GOLD_WP, GOLD_GAMMA),
        Plasma(0.5 * GOLD_WP),
        Oscillator(4.2e31, 3.1e15, 2.4e14),
    ]
    combined = permittivity_imag_axis(Composite(parts), XI_GRID)
    summed = 1.0 + sum(permittivity_imag_axis(p, XI_GRID) - 1.0 for p in parts)
    assert np.allclose(combined, summed, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("model", [
    Drude(GOLD_WP, GOLD_GAMMA),
    Drude(GOLD_WP, 0.0),
    Plasma(GOLD_WP),
    Composite([Oscillator(4.2e31, 3.1e15, 2.4e14), Oscillator(1.1e32, 8.5e15, 1.0e15)]),
    Composite([Drude(GOLD_WP, GOLD_GAMMA), Oscillator(4.2e31, 3.1e15, 2.4e14)]),
    Vacuum(),
])
def test_eps_at_least_one_and_finite(model):
    eps = permittivity_imag_axis(model, XI_GRID)
    assert np.all(np.isfinite(eps))
    assert np.all(eps >= 1.0)


@pytest.mark.parametrize("model", [
    Drude(GOLD_WP, GOLD_GAMMA),
    Plasma(GOLD_WP),
    Composite([Drude(GOLD_WP, GOLD_GAMMA), Plasma(0.3 * GOLD_WP)]),
])
def test_conductor_eps_monotone_nonincreasing(model):
    eps = permittivity_imag_axis(model, XI_GRID)
    assert np.all(np.diff(eps) <= 0.0)


def test_plasma_is_drude_without_relaxation():
    """Plasma(wp) is Drude(wp, 0.0): the same eps bit for bit, and the same static limit."""
    plasma, drude = Plasma(GOLD_WP), Drude(GOLD_WP, 0.0)
    assert isinstance(plasma, Drude) and plasma.relaxation_frequency == 0.0
    assert np.array_equal(permittivity_imag_axis(plasma, XI_GRID),
                          permittivity_imag_axis(drude, XI_GRID))
    assert static_limit(plasma) == static_limit(drude) == (2, GOLD_WP**2)


def test_drude_approaches_plasma_for_vanishing_relaxation():
    """The relative gap is gamma/(xi + gamma), so it shrinks linearly with
    gamma and is 1e-4 (not 1e-5) at gamma = 1e-6 Omega_P, xi = 0.01 Omega_P."""
    xi = np.logspace(np.log10(0.01 * GOLD_WP), 18, 100)
    plasma = permittivity_imag_axis(Plasma(GOLD_WP), xi)
    for gamma_rel in (1e-6, 1e-8):
        drude = permittivity_imag_axis(Drude(GOLD_WP, gamma_rel * GOLD_WP), xi)
        gap = np.max(np.abs(drude - plasma) / plasma)
        assert gap <= 1.01 * gamma_rel / 0.01
    drude = permittivity_imag_axis(Drude(GOLD_WP, 1e-6 * GOLD_WP), xi[xi >= 0.1 * GOLD_WP])
    gap = np.max(np.abs(drude - plasma[xi >= 0.1 * GOLD_WP]) / plasma[xi >= 0.1 * GOLD_WP])
    assert gap < 1.01e-5


def test_surface_plasma_frequency_values():
    # sqrt(0.9) * 8.9 eV = 8.44328 eV worth of angular frequency
    assert surface_plasma_frequency(GOLD_WP, 0.9) == pytest.approx(
        math.sqrt(0.9) * GOLD_WP, rel=1e-15
    )
    assert surface_plasma_frequency(GOLD_WP, 1.0) == GOLD_WP
    assert surface_plasma_frequency(GOLD_WP, 0.25) == pytest.approx(GOLD_WP / 2.0, rel=1e-15)


@pytest.mark.parametrize("fill", [0.0, -0.2, 1.2])
def test_surface_plasma_frequency_domain(fill):
    with pytest.raises(ValueError):
        surface_plasma_frequency(GOLD_WP, fill)


def test_build_rough_plate_fill_relation():
    plate = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9)
    ratio = (plate.surface.plasma_frequency / GOLD_WP) ** 2
    assert ratio == pytest.approx(0.9, rel=1e-14)
    assert plate.layer_thickness == 11e-9
    assert plate.fill_factor == 0.9


def test_build_rough_plate_interband_in_both_or_neither():
    interband = (Oscillator(4.2e31, 3.1e15, 2.4e14),)
    plate = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9, interband)
    assert isinstance(plate.bulk, Composite) and Composite(interband) in plate.bulk.terms
    assert isinstance(plate.surface, Composite) and Composite(interband) in plate.surface.terms
    bare = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9)
    assert isinstance(bare.bulk, Drude)
    assert isinstance(bare.surface, Plasma)


def test_build_rough_plate_empty_interband_equals_none():
    with_empty = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9, [])
    without = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9)
    assert with_empty == without
    for model_a, model_b in ((with_empty.bulk, without.bulk), (with_empty.surface, without.surface)):
        eps_a = permittivity_imag_axis(model_a, XI_GRID)
        eps_b = permittivity_imag_axis(model_b, XI_GRID)
        assert np.array_equal(eps_a, eps_b)


def test_degenerate_rough_plate_is_bare_bulk():
    plate = build_rough_plate(GOLD_WP, GOLD_GAMMA, 0.0, 1.0)
    stack = as_layer_stack(plate)
    assert stack.layers == ()
    bare = LayerStack((), Drude(GOLD_WP, GOLD_GAMMA))
    a, xi = 200e-9, 2.5e14
    u = 2.0 * a * np.hypot(5e6, xi / CONSTANTS.c)
    assert np.array_equal(_reflection(stack, xi, u, a, u * u), _reflection(bare, xi, u, a, u * u))


def test_rough_plate_spec_builds_its_models_from_the_material():
    """The bulk and surface models follow (material, h, f), so replacing one
    input gives the plate built from the new inputs."""
    interband = [(4.2e31, 3.1e15, 2.4e14)]
    plate = RoughPlateSpec(BulkMetal(GOLD_WP, GOLD_GAMMA, interband), 11e-9, 0.9)
    assert plate == build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9, interband)
    thinner = dataclasses.replace(plate, fill_factor=0.5)
    assert thinner == build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.5, interband)
    assert thinner.surface == Composite((Plasma(surface_plasma_frequency(GOLD_WP, 0.5)),
                                         Composite([Oscillator(*interband[0])])))


@pytest.mark.parametrize("term", [Drude(GOLD_WP, GOLD_GAMMA), Plasma(GOLD_WP), (1e30, 1e15),
                                  Composite([Oscillator(1e30, 1e15, 0.0)])],
                         ids=["drude", "plasma", "pair", "composite"])
def test_bulk_metal_refuses_a_non_oscillator_interband_term(term):
    """Only oscillators enter the interband term, so a conductor cannot."""
    with pytest.raises(ValueError, match=r"^an interband term must be an Oscillator or a "
                                         r"\(strength, resonance, damping\) triple, got "):
        BulkMetal(GOLD_WP, GOLD_GAMMA, [term])


def test_rough_plate_spec_validation():
    with pytest.raises(ValueError):
        build_rough_plate(GOLD_WP, GOLD_GAMMA, -1e-9, 0.9)
    with pytest.raises(ValueError):
        build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.0)
    with pytest.raises(ValueError):
        build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 1.5)


def test_static_limits():
    assert static_limit(Vacuum()) == (0, 1.0)
    assert static_limit(Drude(GOLD_WP, GOLD_GAMMA)) == (1, GOLD_WP**2 / GOLD_GAMMA)
    assert static_limit(Drude(GOLD_WP, 0.0)) == (2, GOLD_WP**2)
    assert static_limit(Plasma(GOLD_WP)) == (2, GOLD_WP**2)
    order, eps0 = static_limit(Oscillator(4.2e31, 3.1e15, 2.4e14))
    assert order == 0
    assert eps0 == pytest.approx(1.0 + 4.2e31 / 3.1e15**2, rel=1e-15)
    order, amp = static_limit(
        Composite([Drude(GOLD_WP, GOLD_GAMMA), Oscillator(4.2e31, 3.1e15, 2.4e14)])
    )
    assert (order, amp) == (1, GOLD_WP**2 / GOLD_GAMMA)
    # dielectrics only: the static permittivities' excesses over vacuum add
    first, second = Oscillator(4.2e31, 3.1e15, 2.4e14), Oscillator(1e32, 1e16, 0.0)
    order, eps0 = static_limit(Composite([first, second]))
    assert order == 0
    assert eps0 == pytest.approx(
        static_limit(first)[1] + static_limit(second)[1] - 1.0, rel=1e-15)


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        Drude(-1.0, GOLD_GAMMA)
    with pytest.raises(ValueError):
        Drude(GOLD_WP, -1.0)
    with pytest.raises(ValueError):
        Plasma(0.0)
    with pytest.raises(ValueError):
        Oscillator(-1.0, 1e15, 0.0)
    with pytest.raises(ValueError):
        Oscillator(1e30, 0.0, 0.0)
    with pytest.raises(ValueError):
        Composite([PerfectReflector()])


@pytest.mark.parametrize("build, name", [
    (lambda: Drude(math.inf, GOLD_GAMMA), "plasma frequency"),
    (lambda: Drude(GOLD_WP, math.nan), "relaxation frequency"),
    (lambda: Plasma(math.inf), "plasma frequency"),
    (lambda: Oscillator(math.nan, 1e15, 0.0), "oscillator strength"),
    (lambda: Oscillator(1e30, math.inf, 0.0), "oscillator resonance"),
    (lambda: Oscillator(1e30, 1e15, math.nan), "oscillator damping"),
    (lambda: BulkMetal(GOLD_WP, GOLD_GAMMA, [(1e30, 1e15, math.nan)]), "oscillator damping"),
], ids=["drude-plasma-inf", "drude-relaxation-nan", "plasma-inf", "strength-nan",
        "resonance-inf", "damping-nan", "sum-damping-nan"])
def test_non_finite_model_parameters_are_refused(build, name):
    """A NaN or infinite model parameter is refused where the model is built,
    not later as a quadrature failure."""
    with pytest.raises(ValueError, match=f"^{name} must be .* and finite, got (nan|inf)$"):
        build()


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_non_finite_rough_layer_thickness_is_refused(h):
    """A NaN or infinite h is refused by the rough-plate spec, also through
    build_rough_plate, instead of failing inside a sweep."""
    message = f"^layer thickness must be >= 0 and finite, got {h}$"
    with pytest.raises(ValueError, match=message):
        build_rough_plate(GOLD_WP, GOLD_GAMMA, h, 0.9)
    with pytest.raises(ValueError, match=message):
        RoughPlateSpec(BulkMetal(GOLD_WP, GOLD_GAMMA), h, 1.0)
