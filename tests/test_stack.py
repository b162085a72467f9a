import math
import warnings

import numpy as np
import pytest

from lifshitz_plates import (
    CONSTANTS,
    Drude,
    LayerStack,
    Oscillator,
    PerfectReflector,
    Plasma,
    Vacuum,
    as_layer_stack,
    build_rough_plate,
    matsubara_frequency,
    pressure,
)
from lifshitz_plates.stack import _fresnel_pair, _reflection, _static_reflection

from conftest import GOLD_GAMMA, GOLD_WP

C = CONSTANTS.c
A = 200e-9  # the gap that scales the stack's variable u = 2 a q in these tests


def reflection(stack, xi, k):
    """[TE, TM] at xi > 0 and transverse wavenumber k."""
    u = 2.0 * A * np.sqrt(np.asarray(k) ** 2 + (np.asarray(xi) / C) ** 2)
    return _reflection(stack, xi, u, A, u * u)


def static_reflection(stack, k):
    """[TE, TM] in the xi -> 0 limit at transverse wavenumber k."""
    return _static_reflection(stack, 2.0 * A * np.asarray(k, dtype=float), A)


def test_fresnel_no_interface():
    assert _fresnel_pair(2.0, 2.0, 5e6, 5e6).tolist() == [0.0, 0.0]


def test_fresnel_ideal_metal_limit():
    assert _fresnel_pair(1.0, 1e12, 2e6, 3e6)[1] == pytest.approx(1.0, abs=1e-5)


def test_fresnel_te_ratio():
    assert _fresnel_pair(1.0, 1.0, 2.0e6, 1.0e6)[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_bare_plate_equals_fresnel(drude_stack):
    xi, k = 2.5e14, 5e6
    eps = 1.0 + GOLD_WP**2 / (xi * (xi + GOLD_GAMMA))
    s_vac = math.sqrt((xi / C) ** 2 + k**2)
    s_sub = math.sqrt(eps * (xi / C) ** 2 + k**2)
    expected = _fresnel_pair(1.0, eps, s_vac, s_sub)
    assert reflection(drude_stack, xi, k) == pytest.approx(expected, rel=1e-14)


def test_same_material_layer_is_transparent(drude_stack):
    bulk = Drude(GOLD_WP, GOLD_GAMMA)
    for h in (1e-9, 20e-9, 300e-9):
        layered = LayerStack(((bulk, h),), bulk)
        assert reflection(layered, 2.5e14, 5e6) == pytest.approx(
            reflection(drude_stack, 2.5e14, 5e6), rel=1e-14)


def test_thick_layer_becomes_surface_half_space(rough_plate):
    surface = rough_plate.surface
    h = 10.0 * C / surface.plasma_frequency
    thick = LayerStack(((surface, h),), rough_plate.bulk)
    half_space = LayerStack((), surface)
    xi = matsubara_frequency(1, 300.0)
    r_thick = reflection(thick, xi, 1e7)
    r_half = reflection(half_space, xi, 1e7)
    assert np.all(np.abs(r_thick - r_half) < 1e-6)


def test_layer_merge_identity(rough_plate):
    surface = rough_plate.surface
    bulk = rough_plate.bulk
    h = 11e-9
    single = LayerStack(((surface, h),), bulk)
    split = LayerStack(((surface, 0.3 * h), (surface, 0.7 * h)), bulk)
    xi = matsubara_frequency(1, 300.0)
    r1 = reflection(single, xi, 1e7)
    r2 = reflection(split, xi, 1e7)
    assert np.all(np.abs(r1 - r2) <= 1e-12 * np.abs(r1))


def test_zero_frequency_drude(drude_stack):
    for k in (1e5, 1e6, 1e7):
        assert static_reflection(drude_stack, k).tolist() == [0.0, 1.0]


def test_zero_frequency_plasma(plasma_stack):
    k = GOLD_WP / C
    expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
    te, tm = static_reflection(plasma_stack, k)
    assert te == pytest.approx(expected, rel=1e-12)
    assert tm == 1.0


def test_zero_frequency_dielectric():
    g, w0 = 4.2e31, 3.1e15
    stack = LayerStack((), Oscillator(g, w0, 0.0))
    eps0 = 1.0 + g / w0**2
    k = 2e6
    te, tm = static_reflection(stack, k)
    assert te == 0.0
    assert tm == pytest.approx((eps0 - 1.0) / (eps0 + 1.0), rel=1e-14)


def test_zero_frequency_two_layer(rough_plate):
    stack = as_layer_stack(rough_plate)
    omega_surf = rough_plate.surface.plasma_frequency
    h = rough_plate.layer_thickness
    for k in (1e6, 1e7, 5e7):
        s1 = math.sqrt(k**2 + omega_surf**2 / C**2)
        r01 = (k - s1) / (k + s1)
        decay = math.exp(-2.0 * h * s1)
        expected_te = r01 * (1.0 - decay) / (1.0 - r01**2 * decay)
        te, tm = static_reflection(stack, k)
        assert te == pytest.approx(expected_te, rel=1e-13)
        assert tm == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("fixture", ["drude_stack", "plasma_stack", "rough_plate"])
@pytest.mark.parametrize("k", [1.5e7, 4e7])
def test_zero_frequency_continuity(fixture, k, request):
    """Quadratic extrapolation of r over xi = {1e-2, 1e-3, 1e-4} xi_1 hits the
    analytic zero-frequency limit."""
    plate = request.getfixturevalue(fixture)
    stack = as_layer_stack(plate)
    xi_samples = np.array([1e-2, 1e-3, 1e-4]) * matsubara_frequency(1, 300.0)
    r = reflection(stack, xi_samples, k)
    extrapolated = 0.0
    for i in range(3):
        weight = 1.0
        for j in range(3):
            if j != i:
                weight *= xi_samples[j] / (xi_samples[j] - xi_samples[i])
        extrapolated += r[:, i] * weight
    te, tm = extrapolated
    te_limit, tm_limit = static_reflection(stack, k)
    assert abs(te - te_limit) < 1e-4
    assert abs(tm - tm_limit) < 1e-4 * abs(tm_limit)


def test_reflection_bounded_by_one(rough_plate):
    rng = np.random.default_rng(1234)
    stacks = [
        LayerStack((), Drude(GOLD_WP, GOLD_GAMMA)),
        LayerStack((), Plasma(GOLD_WP)),
        as_layer_stack(rough_plate),
        LayerStack((), Oscillator(4.2e31, 3.1e15, 2.4e14)),
        LayerStack(
            ((Plasma(0.5 * GOLD_WP), 3e-9), (Oscillator(4.2e31, 3.1e15, 0.0), 40e-9)),
            Drude(GOLD_WP, GOLD_GAMMA),
        ),
        LayerStack(((Plasma(0.5 * GOLD_WP), 20e-9),), PerfectReflector()),
    ]
    xi = 10.0 ** rng.uniform(10, 18, size=60)
    k = 10.0 ** rng.uniform(3, 9, size=60)
    for stack in stacks:
        assert np.all(np.abs(reflection(stack, xi, k)) <= 1.0 + 1e-12)
        assert np.all(np.abs(static_reflection(stack, k)) <= 1.0 + 1e-12)


@pytest.mark.parametrize("xi", [matsubara_frequency(1, 300.0), 5.0 * matsubara_frequency(1, 300.0)])
def test_rough_plate_interpolates_in_thickness(rough_plate, xi):
    """r moves monotonically from the bulk to the surface half-space value with h."""
    k = 1.0 / 400e-9
    bulk_stack = LayerStack((), rough_plate.bulk)
    surf_stack = LayerStack((), rough_plate.surface)
    r_bulk = reflection(bulk_stack, xi, k)[:, None]
    r_surf = reflection(surf_stack, xi, k)[:, None]
    values = np.stack([reflection(LayerStack(((rough_plate.surface, h),), rough_plate.bulk), xi, k)
                       for h in np.linspace(1e-10, 80e-9, 12)], axis=1)
    lo, hi = np.minimum(r_bulk, r_surf), np.maximum(r_bulk, r_surf)
    assert np.all(values >= lo - 1e-12) and np.all(values <= hi + 1e-12)
    direction = np.sign(r_surf - r_bulk)
    assert np.all(direction * np.diff(values, axis=1) >= -1e-15)


def test_perfect_reflector_substrate(perfect_stack):
    assert reflection(perfect_stack, 2.5e14, 5e6).tolist() == [-1.0, 1.0]
    assert static_reflection(perfect_stack, 5e6).tolist() == [-1.0, 1.0]


def test_ultra_thin_layer_zero_frequency(drude_stack, settings300):
    # exp(-2 K h) rounds to 1 for this layer: the xi = 0 TM recursion meets
    # +1 over -1 and must return the outer +1, not 0/0
    thin = build_rough_plate(GOLD_WP, GOLD_GAMMA, 3.47e-25, 1.0 - 1.1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert static_reflection(as_layer_stack(thin), 1e7)[1] == 1.0
        p_thin = pressure(thin, 200e-9, settings300)
    assert p_thin == pytest.approx(pressure(drude_stack, 200e-9, settings300), rel=1e-12)


def test_stack_construction_rules():
    with pytest.raises(ValueError, match="substrate"):
        LayerStack((), Vacuum())
    with pytest.raises(ValueError, match="layer"):
        LayerStack(((PerfectReflector(), 1e-9),), Drude(GOLD_WP, GOLD_GAMMA))
    with pytest.raises(ValueError, match="thickness"):
        LayerStack(((Plasma(GOLD_WP), -1e-9),), Drude(GOLD_WP, GOLD_GAMMA))
    dropped = LayerStack(((Plasma(GOLD_WP), 0.0),), Drude(GOLD_WP, GOLD_GAMMA))
    assert dropped.layers == ()
    # a rough plate's stack is its layer on its bulk, the bare bulk at h = 0
    rough, bare = (build_rough_plate(GOLD_WP, GOLD_GAMMA, h, 0.9) for h in (11e-9, 0.0))
    assert as_layer_stack(rough) == LayerStack(((rough.surface, 11e-9),), rough.bulk)
    assert as_layer_stack(bare) == LayerStack((), bare.bulk)
    assert as_layer_stack(bare).media == (bare.bulk,)


@pytest.mark.parametrize("thickness", [math.nan, math.inf])
def test_non_finite_layer_thickness_is_refused(thickness):
    """A NaN layer is not dropped (which would leave the bare substrate) and
    an infinite one is not kept: both are refused."""
    with pytest.raises(ValueError,
                       match=f"^layer thickness must be >= 0 and finite, got {thickness}$"):
        LayerStack(((Plasma(GOLD_WP), thickness),), Drude(GOLD_WP, GOLD_GAMMA))

