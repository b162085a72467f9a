import math

import numpy as np
import pytest
from scipy.special import zeta

from lifshitz_plates import (
    CONSTANTS,
    EvaluationSettings,
    LayerStack,
    MatsubaraTruncationError,
    Plasma,
    SweepTable,
    average_separation,
    build_rough_plate,
    eta_sweep,
    gap_from_average,
    ideal_pressure,
    matsubara_frequency,
    matsubara_pressure_term,
    pressure,
    pressure_zero_temperature,
    reduction_factor,
)

from conftest import GOLD_GAMMA, GOLD_WP


def test_matsubara_frequency_values():
    assert matsubara_frequency(0, 300.0) == 0.0
    xi_1 = matsubara_frequency(1, 300.0)
    assert xi_1 == pytest.approx(
        2.0 * math.pi * CONSTANTS.k_B * 300.0 / CONSTANTS.hbar, rel=1e-15)
    assert xi_1 == pytest.approx(2.4679e14, rel=1e-3)
    assert matsubara_frequency(2, 300.0) == 2.0 * xi_1
    assert matsubara_frequency(np.arange(3), 300.0) == pytest.approx([0.0, xi_1, 2 * xi_1])


def test_matsubara_frequency_domain():
    with pytest.raises(ValueError):
        matsubara_frequency(-1, 300.0)
    with pytest.raises(ValueError):
        matsubara_frequency(1, 0.0)


def test_ideal_pressure_values():
    p_1um = ideal_pressure(1e-6)
    assert p_1um == pytest.approx(1.3001e-3, rel=1e-4)
    assert ideal_pressure(0.5e-6) == pytest.approx(16.0 * p_1um, rel=1e-12)
    assert ideal_pressure(2e-6) == pytest.approx(p_1um / 16.0, rel=1e-12)
    with pytest.raises(ValueError):
        ideal_pressure(0.0)


def test_reduction_factor_trivials():
    d = 0.8e-6
    assert reduction_factor(ideal_pressure(d), d) == pytest.approx(1.0, rel=1e-15)
    assert reduction_factor(0.0, d) == 0.0


def test_separation_mappings():
    a = 300e-9
    assert average_separation(a, 11e-9, 0.9) == pytest.approx(a + 2.2e-9, rel=1e-12)
    assert average_separation(a, 11e-9, 1.0) == a
    assert average_separation(a, 0.0, 0.5) == a
    d = average_separation(a, 11e-9, 0.9)
    assert gap_from_average(d, 11e-9, 0.9) == pytest.approx(a, rel=1e-15)
    with pytest.raises(ValueError, match="exceed"):
        gap_from_average(2e-9, 11e-9, 0.5)
    with pytest.raises(ValueError):
        average_separation(0.0, 11e-9, 0.9)


def test_ideal_metal_zero_temperature(perfect_stack):
    for a in (0.5e-6, 1e-6):
        p = pressure_zero_temperature(perfect_stack, a)
        assert p == pytest.approx(ideal_pressure(a), rel=1e-10)
    settings = EvaluationSettings(zero_temperature=True)
    assert pressure(perfect_stack, 1e-6, settings) == pytest.approx(
        pressure_zero_temperature(perfect_stack, 1e-6, settings), rel=1e-15)


def test_classical_limit_term_and_remainder(perfect_stack):
    """The half-weighted l = 0 term is exactly the zeta(3) closed form; at
    a = 5 um the higher terms still add the physical ~1.9% remainder."""
    a, temperature = 5e-6, 300.0
    settings = EvaluationSettings(temperature=temperature)
    classical = zeta(3) * CONSTANTS.k_B * temperature / (4.0 * math.pi * a**3)
    term = matsubara_pressure_term(perfect_stack, a, 0, settings)
    assert term.te + term.tm == pytest.approx(classical, rel=1e-10)
    full = pressure(perfect_stack, a, settings)
    assert (full - classical) / classical == pytest.approx(0.0191072, abs=2e-5)


def test_drude_zero_frequency_te_term_is_exact_zero(drude_stack, settings300):
    term = matsubara_pressure_term(drude_stack, 200e-9, 0, settings300)
    assert term.te == 0.0
    assert term.tm > 0.0


def test_two_layer_zero_frequency_te_term_is_partial(rough_plate, plasma_stack, settings300):
    a = 200e-9
    rough_te = matsubara_pressure_term(rough_plate, a, 0, settings300).te
    plasma_te = matsubara_pressure_term(plasma_stack, a, 0, settings300).te
    assert 0.0 < rough_te < plasma_te


def test_degenerate_two_layer_equals_drude(drude_stack, settings300):
    plate = build_rough_plate(GOLD_WP, GOLD_GAMMA, 0.0, 0.9)
    a = 200e-9
    p_two = pressure(plate, a, settings300)
    p_drude = pressure(drude_stack, a, settings300)
    assert abs(p_two - p_drude) <= 1e-10 * p_drude


def test_low_temperature_limit_matches_zero_temperature(drude_stack):
    a = 500e-9
    cold = EvaluationSettings(temperature=1.0, l_max=40000)
    p_cold = pressure(drude_stack, a, cold)
    p_zero = pressure_zero_temperature(drude_stack, a)
    assert abs(p_cold - p_zero) / p_zero < 1e-3


def test_plasma_dominates_drude_at_zero_temperature(drude_stack, plasma_stack):
    for a in (0.2e-6, 1e-6):
        assert pressure_zero_temperature(plasma_stack, a) > pressure_zero_temperature(drude_stack, a)


def test_integration_route_equivalence(drude_stack, rough_plate, settings300):
    for plate, a in ((drude_stack, 0.5e-6), (rough_plate, 0.2e-6)):
        p_u = pressure(plate, a, settings300, integration_variable="u")
        p_k = pressure(plate, a, settings300, integration_variable="kperp")
        assert abs(p_u - p_k) <= 1e-8 * p_u
    with pytest.raises(ValueError):
        pressure(drude_stack, 1e-6, settings300, integration_variable="q")


def test_quadrature_tolerance_robustness(rough_plate):
    a = gap_from_average(0.2e-6, 11e-9, 0.9)
    base = pressure(rough_plate, a, EvaluationSettings(temperature=300.0, quad_rel_tol=1e-9))
    tight = pressure(rough_plate, a, EvaluationSettings(temperature=300.0, quad_rel_tol=5e-10))
    assert abs(base - tight) <= 5.0 * 1e-9 * base
    # a much tighter tolerance forces the panel-splitting path and stays consistent
    refined = pressure(rough_plate, a, EvaluationSettings(
        temperature=300.0, quad_rel_tol=1e-12, sum_rel_tol=1e-12))
    assert abs(base - refined) <= 1e-9 * base


def test_matsubara_budget_robustness(drude_stack, settings300):
    a = 200e-9
    base = pressure(drude_stack, a, EvaluationSettings(temperature=300.0, l_max=5000))
    doubled = pressure(drude_stack, a, EvaluationSettings(temperature=300.0, l_max=10000))
    assert base == doubled
    # summing fixed ranges of terms (truncation policy bypassed) is just as stable
    p_150 = sum(sum(matsubara_pressure_term(drude_stack, a, l, settings300)) for l in range(150))
    p_300 = sum(sum(matsubara_pressure_term(drude_stack, a, l, settings300)) for l in range(300))
    assert abs(p_300 - p_150) <= 10.0 * 1e-10 * p_300


def test_truncation_error_carries_partial_sum(drude_stack):
    settings = EvaluationSettings(temperature=300.0, l_max=1)
    with pytest.raises(MatsubaraTruncationError) as info:
        pressure(drude_stack, 200e-9, settings)
    assert info.value.l_reached == 1
    assert 0.0 < info.value.partial_pressure < 1.0


def test_settings_validation():
    with pytest.raises(ValueError):
        EvaluationSettings(quad_rel_tol=0.0)
    with pytest.raises(ValueError):
        EvaluationSettings(quad_rel_tol=1e-2)
    with pytest.raises(ValueError):
        EvaluationSettings(sum_rel_tol=-1e-9)
    with pytest.raises(ValueError):
        EvaluationSettings(l_max=0)
    with pytest.raises(ValueError):
        EvaluationSettings(consecutive_small_terms=0)
    with pytest.raises(ValueError):
        EvaluationSettings(temperature=0.0)
    EvaluationSettings(temperature=0.0, zero_temperature=True)  # allowed


def test_eta_sweep_perfect_reflector_is_unity(perfect_stack):
    table = eta_sweep(perfect_stack, [1e-6], EvaluationSettings(zero_temperature=True))
    assert table.eta[0] == pytest.approx(1.0, abs=1e-9)
    assert table.a[0] == table.d[0]


def test_eta_sweep_columns_and_order(rough_plate, settings300):
    d_values = [0.5e-6, 0.2e-6, 1.0e-6]  # deliberately unsorted
    table = eta_sweep(rough_plate, d_values, settings300)
    assert np.all(np.diff(table.d) > 0)
    assert np.allclose(table.a, table.d - 2.2e-9)
    assert np.allclose(table.eta, table.pressure / table.pressure_ideal)


def test_eta_sweep_reports_offending_separation(rough_plate, settings300):
    with pytest.raises(ValueError, match="2.0000"):
        eta_sweep(rough_plate, [2e-9, 0.5e-6], settings300)


def test_drude_below_plasma_rowwise(drude_stack, plasma_stack, settings300):
    d_values = np.geomspace(0.5e-6, 5e-6, 6)
    eta_drude = eta_sweep(drude_stack, d_values, settings300).eta
    eta_plasma = eta_sweep(plasma_stack, d_values, settings300).eta
    assert np.all(eta_drude < eta_plasma)


def test_drude_reduction_factor_regression(drude_stack, plasma_stack, settings300):
    # frozen regression value for gold at d = 746 nm, T = 300 K
    eta_d = eta_sweep(drude_stack, [746e-9], settings300).eta[0]
    assert eta_d == pytest.approx(0.7592648891, rel=1e-6)
    assert eta_d < eta_sweep(plasma_stack, [746e-9], settings300).eta[0]


def test_rough_plate_close_to_plasma_at_200nm(rough_plate, plasma_stack, settings300):
    eta_rough = eta_sweep(rough_plate, [200e-9], settings300).eta[0]
    eta_plasma = eta_sweep(plasma_stack, [200e-9], settings300).eta[0]
    assert abs(eta_rough - eta_plasma) < 0.01


def test_pressure_monotone_in_layer_thickness(settings300):
    d = 0.5e-6
    values = []
    for h in np.linspace(0.0, 50e-9, 6):
        plate = build_rough_plate(GOLD_WP, GOLD_GAMMA, h, 0.9)
        a = gap_from_average(d, h, 0.9)
        values.append(pressure(plate, a, settings300))
    assert np.all(np.diff(values) >= 0.0)


def test_eta_bounds(drude_stack, plasma_stack, rough_plate, perfect_stack, settings300):
    zero_t = EvaluationSettings(zero_temperature=True)
    for plate in (drude_stack, plasma_stack, rough_plate):
        table = eta_sweep(plate, [0.3e-6, 1e-6], zero_t)
        assert np.all(table.eta > 0.0) and np.all(table.eta <= 1.0)
    for d in (0.5e-6, 2e-6):
        eta_pr = eta_sweep(perfect_stack, [d], settings300).eta[0]
        for plate in (drude_stack, plasma_stack, rough_plate):
            assert eta_sweep(plate, [d], settings300).eta[0] <= eta_pr + 1e-12


def test_sweep_table_validation():
    good = dict(
        d=np.array([1e-7, 2e-7]), a=np.array([1e-7, 2e-7]),
        pressure=np.array([1.0, 2.0]), pressure_ideal=np.array([1.0, 2.0]),
        eta=np.array([1.0, 1.0]),
    )
    SweepTable(**good)
    with pytest.raises(ValueError, match="increasing"):
        SweepTable(**{**good, "d": np.array([2e-7, 1e-7])})
    with pytest.raises(ValueError, match="length"):
        SweepTable(**{**good, "a": np.array([1e-7])})


def test_pressure_domain_errors(drude_stack, settings300):
    with pytest.raises(ValueError):
        pressure(drude_stack, 0.0, settings300)
    with pytest.raises(ValueError):
        pressure_zero_temperature(drude_stack, -1e-6)
    with pytest.raises(ValueError):
        matsubara_pressure_term(drude_stack, 1e-6, -1, settings300)
    for a in (0.0, -1e-7):
        with pytest.raises(ValueError, match="gap must be > 0"):
            matsubara_pressure_term(drude_stack, a, 1, settings300)
    # there is no T = 0 route in the raw k variable
    for variable in ("kperp", "bogus"):
        with pytest.raises(ValueError, match="integration_variable"):
            pressure(drude_stack, 1e-6, EvaluationSettings(zero_temperature=True),
                     integration_variable=variable)
