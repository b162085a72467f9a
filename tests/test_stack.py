import math
import warnings

import numpy as np
import pytest

from lifshitz_plates import (
    CONSTANTS,
    Drude,
    KinematicPoint,
    LayerStack,
    OscillatorSum,
    PerfectReflector,
    Plasma,
    Vacuum,
    as_layer_stack,
    axial_wavenumber,
    build_rough_plate,
    fresnel,
    matsubara_frequency,
    plate_reflection,
    plate_reflection_zero_frequency,
    pressure,
)

from conftest import GOLD_GAMMA, GOLD_WP

C = CONSTANTS.c


def test_axial_wavenumber_examples():
    xi, k = 3.1e14, 4.2e6
    assert axial_wavenumber(1.0, xi, k) == pytest.approx(math.hypot(xi / C, k), rel=1e-15)
    assert axial_wavenumber(7.3, 0.0, k) == k
    assert axial_wavenumber(4.0, C * k, k) == pytest.approx(k * math.sqrt(5.0), rel=1e-15)


def test_fresnel_no_interface():
    assert fresnel("TE", 2.0, 2.0, 5e6, 5e6) == 0.0
    assert fresnel("TM", 2.0, 2.0, 5e6, 5e6) == 0.0


def test_fresnel_ideal_metal_limit():
    assert fresnel("TM", 1.0, 1e12, 2e6, 3e6) == pytest.approx(1.0, abs=1e-5)


def test_fresnel_te_ratio():
    assert fresnel("TE", 1.0, 1.0, 2.0e6, 1.0e6) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_bare_plate_equals_fresnel(drude_stack):
    xi, k = 2.5e14, 5e6
    eps = 1.0 + GOLD_WP**2 / (xi * (xi + GOLD_GAMMA))
    s_vac = axial_wavenumber(1.0, xi, k)
    s_sub = axial_wavenumber(eps, xi, k)
    point = KinematicPoint(xi, k)
    assert plate_reflection(drude_stack, "TE", point) == pytest.approx(
        fresnel("TE", 1.0, eps, s_vac, s_sub), rel=1e-14)
    assert plate_reflection(drude_stack, "TM", point) == pytest.approx(
        fresnel("TM", 1.0, eps, s_vac, s_sub), rel=1e-14)


def test_same_material_layer_is_transparent(drude_stack):
    bulk = Drude(GOLD_WP, GOLD_GAMMA)
    point = KinematicPoint(2.5e14, 5e6)
    for h in (1e-9, 20e-9, 300e-9):
        layered = LayerStack(((bulk, h),), bulk)
        for pol in ("TE", "TM"):
            assert plate_reflection(layered, pol, point) == pytest.approx(
                plate_reflection(drude_stack, pol, point), rel=1e-14)


def test_thick_layer_becomes_surface_half_space(rough_plate):
    surface = rough_plate.surface
    h = 10.0 * C / surface.plasma_frequency
    thick = LayerStack(((surface, h),), rough_plate.bulk)
    half_space = LayerStack((), surface)
    point = KinematicPoint(matsubara_frequency(1, 300.0), 1e7)
    for pol in ("TE", "TM"):
        r_thick = plate_reflection(thick, pol, point)
        r_half = plate_reflection(half_space, pol, point)
        assert abs(r_thick - r_half) < 1e-6


def test_layer_merge_identity(rough_plate):
    surface = rough_plate.surface
    bulk = rough_plate.bulk
    h = 11e-9
    single = LayerStack(((surface, h),), bulk)
    split = LayerStack(((surface, 0.3 * h), (surface, 0.7 * h)), bulk)
    point = KinematicPoint(matsubara_frequency(1, 300.0), 1e7)
    for pol in ("TE", "TM"):
        r1 = plate_reflection(single, pol, point)
        r2 = plate_reflection(split, pol, point)
        assert abs(r1 - r2) <= 1e-12 * abs(r1)


def test_zero_frequency_drude(drude_stack):
    for k in (1e5, 1e6, 1e7):
        assert plate_reflection_zero_frequency(drude_stack, "TE", k) == 0.0
        assert plate_reflection_zero_frequency(drude_stack, "TM", k) == 1.0


def test_zero_frequency_plasma(plasma_stack):
    k = GOLD_WP / C
    expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
    assert plate_reflection_zero_frequency(plasma_stack, "TE", k) == pytest.approx(
        expected, rel=1e-12)
    assert plate_reflection_zero_frequency(plasma_stack, "TM", k) == 1.0


def test_zero_frequency_dielectric():
    g, w0 = 4.2e31, 3.1e15
    stack = LayerStack((), OscillatorSum([(g, w0, 0.0)]))
    eps0 = 1.0 + g / w0**2
    k = 2e6
    assert plate_reflection_zero_frequency(stack, "TE", k) == 0.0
    assert plate_reflection_zero_frequency(stack, "TM", k) == pytest.approx(
        (eps0 - 1.0) / (eps0 + 1.0), rel=1e-14)


def test_zero_frequency_two_layer(rough_plate):
    stack = as_layer_stack(rough_plate)
    omega_surf = rough_plate.surface.plasma_frequency
    h = rough_plate.layer_thickness
    for k in (1e6, 1e7, 5e7):
        s1 = math.sqrt(k**2 + omega_surf**2 / C**2)
        r01 = (k - s1) / (k + s1)
        decay = math.exp(-2.0 * h * s1)
        expected_te = r01 * (1.0 - decay) / (1.0 - r01**2 * decay)
        assert plate_reflection_zero_frequency(stack, "TE", k) == pytest.approx(
            expected_te, rel=1e-13)
        assert plate_reflection_zero_frequency(stack, "TM", k) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("fixture", ["drude_stack", "plasma_stack", "rough_plate"])
@pytest.mark.parametrize("k", [1.5e7, 4e7])
def test_zero_frequency_continuity(fixture, k, request):
    """Quadratic extrapolation of r over xi = {1e-2, 1e-3, 1e-4} xi_1 hits the
    analytic zero-frequency limit."""
    plate = request.getfixturevalue(fixture)
    stack = as_layer_stack(plate)
    xi_samples = np.array([1e-2, 1e-3, 1e-4]) * matsubara_frequency(1, 300.0)
    for pol in ("TE", "TM"):
        r = [plate_reflection(stack, pol, KinematicPoint(xi, k)) for xi in xi_samples]
        extrapolated = 0.0
        for i in range(3):
            weight = 1.0
            for j in range(3):
                if j != i:
                    weight *= xi_samples[j] / (xi_samples[j] - xi_samples[i])
            extrapolated += r[i] * weight
        limit = plate_reflection_zero_frequency(stack, pol, k)
        if pol == "TM":
            assert abs(extrapolated - limit) < 1e-4 * abs(limit)
        else:
            assert abs(extrapolated - limit) < 1e-4


def test_reflection_bounded_by_one(rough_plate):
    rng = np.random.default_rng(1234)
    stacks = [
        LayerStack((), Drude(GOLD_WP, GOLD_GAMMA)),
        LayerStack((), Plasma(GOLD_WP)),
        as_layer_stack(rough_plate),
        LayerStack((), OscillatorSum([(4.2e31, 3.1e15, 2.4e14)])),
        LayerStack(
            ((Plasma(0.5 * GOLD_WP), 3e-9), (OscillatorSum([(4.2e31, 3.1e15, 0.0)]), 40e-9)),
            Drude(GOLD_WP, GOLD_GAMMA),
        ),
        LayerStack(((Plasma(0.5 * GOLD_WP), 20e-9),), PerfectReflector()),
    ]
    xi = 10.0 ** rng.uniform(10, 18, size=60)
    k = 10.0 ** rng.uniform(3, 9, size=60)
    for stack in stacks:
        for pol in ("TE", "TM"):
            r = [plate_reflection(stack, pol, KinematicPoint(x, kk)) for x, kk in zip(xi, k)]
            assert np.all(np.abs(r) <= 1.0 + 1e-12)
            r0 = plate_reflection_zero_frequency(stack, pol, k)
            assert np.all(np.abs(r0) <= 1.0 + 1e-12)


@pytest.mark.parametrize("xi", [matsubara_frequency(1, 300.0), 5.0 * matsubara_frequency(1, 300.0)])
def test_rough_plate_interpolates_in_thickness(rough_plate, xi):
    """r moves monotonically from the bulk to the surface half-space value with h."""
    k = 1.0 / 400e-9
    bulk_stack = LayerStack((), rough_plate.bulk)
    surf_stack = LayerStack((), rough_plate.surface)
    point = KinematicPoint(xi, k)
    for pol in ("TE", "TM"):
        r_bulk = plate_reflection(bulk_stack, pol, point)
        r_surf = plate_reflection(surf_stack, pol, point)
        lo, hi = min(r_bulk, r_surf), max(r_bulk, r_surf)
        values = []
        for h in np.linspace(1e-10, 80e-9, 12):
            stack = LayerStack(((rough_plate.surface, h),), rough_plate.bulk)
            values.append(plate_reflection(stack, pol, point))
        values = np.array(values)
        assert np.all(values >= lo - 1e-12) and np.all(values <= hi + 1e-12)
        direction = np.sign(r_surf - r_bulk)
        assert np.all(direction * np.diff(values) >= -1e-15)


def test_perfect_reflector_substrate(perfect_stack):
    point = KinematicPoint(2.5e14, 5e6)
    assert plate_reflection(perfect_stack, "TM", point) == 1.0
    assert plate_reflection(perfect_stack, "TE", point) == -1.0
    assert plate_reflection_zero_frequency(perfect_stack, "TM", 5e6) == 1.0
    assert plate_reflection_zero_frequency(perfect_stack, "TE", 5e6) == -1.0


@pytest.mark.parametrize("stack_name", ["perfect_stack", "drude_stack"])
@pytest.mark.parametrize("accessor", [
    lambda stack, pol: fresnel(pol, 1.0, 2.0, 3e6, 4e6),
    lambda stack, pol: plate_reflection(stack, pol, KinematicPoint(2.5e14, 5e6)),
    lambda stack, pol: plate_reflection_zero_frequency(stack, pol, 5e6),
], ids=["fresnel", "plate_reflection", "plate_reflection_zero_frequency"])
def test_misspelt_polarization_rejected(request, stack_name, accessor):
    stack = request.getfixturevalue(stack_name)
    with pytest.raises(ValueError, match="polarization must be 'TE' or 'TM'"):
        accessor(stack, "te")


def test_ultra_thin_layer_zero_frequency(drude_stack, settings300):
    # exp(-2 K h) rounds to 1 for this layer: the xi = 0 TM recursion meets
    # +1 over -1 and must return the outer +1, not 0/0
    thin = build_rough_plate(GOLD_WP, GOLD_GAMMA, 3.47e-25, 1.0 - 1.1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert plate_reflection_zero_frequency(as_layer_stack(thin), "TM", 1e7) == 1.0
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


@pytest.mark.parametrize("thickness", [math.nan, math.inf])
def test_non_finite_layer_thickness_is_refused(thickness):
    """A NaN layer is not dropped (which would leave the bare substrate) and
    an infinite one is not kept: both are refused."""
    with pytest.raises(ValueError,
                       match=f"^layer thickness must be >= 0 and finite, got {thickness}$"):
        LayerStack(((Plasma(GOLD_WP), thickness),), Drude(GOLD_WP, GOLD_GAMMA))


def test_kinematic_point_validation():
    with pytest.raises(ValueError):
        KinematicPoint(-1.0, 1e6)
    with pytest.raises(ValueError):
        KinematicPoint(1e14, 0.0)
    with pytest.raises(ValueError, match="zero_frequency"):
        plate_reflection(LayerStack((), Plasma(GOLD_WP)), "TE", KinematicPoint(0.0, 1e6))
