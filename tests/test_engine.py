import math
import platform
import resource

import numpy as np
import pytest
from scipy.special import zeta

from lifshitz_plates import (
    CONSTANTS,
    Composite,
    EvaluationSettings,
    LayerStack,
    MatsubaraTruncationError,
    Oscillator,
    PerfectReflector,
    Plasma,
    SweepTable,
    Vacuum,
    as_layer_stack,
    average_separation,
    build_rough_plate,
    eta_sweep,
    ev_to_angular_frequency,
    gap_from_average,
    ideal_pressure,
    matsubara_frequency,
    matsubara_pressure_term,
    permittivity_imag_axis,
    pressure,
    pressure_zero_temperature,
    reduction_factor,
)
from lifshitz_plates import engine
from lifshitz_plates.stack import _fresnel_pair, _reflection

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


@pytest.mark.parametrize("l", [1.5, math.nan, math.inf])
def test_matsubara_index_must_be_an_integer(drude_stack, l):
    """A non-integer index is refused, not evaluated at l xi_1."""
    message = f"^Matsubara index must be an integer >= 0, got {l}$"
    with pytest.raises(ValueError, match=message):
        matsubara_frequency(l, 300.0)
    with pytest.raises(ValueError, match=message):
        matsubara_pressure_term(drude_stack, 500e-9, l)
    assert matsubara_frequency(2.0, 300.0) == matsubara_frequency(2, 300.0)


@pytest.mark.parametrize("temperature", [300.0, 0.0])
def test_matsubara_term_refused_at_zero_temperature(drude_stack, temperature):
    """zero_temperature=True returned the term at the default 300 K, and at
    temperature 0 the refusal did not name the cause."""
    settings = EvaluationSettings(temperature=temperature, zero_temperature=True)
    with pytest.raises(ValueError, match="^zero_temperature is set: there are no Matsubara "
                                         "terms at T = 0$"):
        matsubara_pressure_term(drude_stack, 500e-9, 1, settings)


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
    with pytest.raises(MatsubaraTruncationError, match=r"a = 2\.000000e-07 m") as info:
        pressure(drude_stack, 200e-9, settings)
    assert info.value.l_reached == 1
    assert info.value.gap == 200e-9
    assert 0.0 < info.value.partial_pressure < 1.0
    # 200 nm and 300 nm need more than 30 terms, 1 um fewer: the sweep raises
    # the error of the smallest failing gap, as pressure() at that gap does
    settings = EvaluationSettings(temperature=300.0, l_max=30)
    with pytest.raises(MatsubaraTruncationError) as single:
        pressure(drude_stack, 200e-9, settings)
    with pytest.raises(MatsubaraTruncationError, match=r"a = 2\.000000e-07 m") as info:
        eta_sweep(drude_stack, [1e-6, 300e-9, 200e-9], settings)
    assert info.value.gap == 200e-9
    assert info.value.l_reached == 30
    assert info.value.partial_pressure == pytest.approx(single.value.partial_pressure, rel=1e-15)


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


@pytest.mark.parametrize("name, value", [("l_max", 2.5), ("l_max", math.nan), ("l_max", math.inf),
                                         ("consecutive_small_terms", 1.5),
                                         ("consecutive_small_terms", 0)])
def test_settings_counts_must_be_integers(name, value):
    """l_max = 2.5 failed as "not converged after l = 2.5 terms", and a streak
    of 1.5 was read as 2.  Integral floats pass, as in matsubara_frequency,
    and are stored as ints."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value}$"):
        EvaluationSettings(**{name: value})
    settings = EvaluationSettings(l_max=30.0, consecutive_small_terms=2.0)
    assert (settings.l_max, settings.consecutive_small_terms) == (30, 2)
    assert type(settings.l_max) is int and type(settings.consecutive_small_terms) is int


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
    # non-finite inputs name themselves before any quadrature runs
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"gap must be > 0 and finite, got a = {bad} m"):
            pressure(drude_stack, bad, settings300)
        with pytest.raises(ValueError, match=f"got a = {bad} m"):
            pressure_zero_temperature(drude_stack, bad)
        with pytest.raises(ValueError, match=f"got a = {bad} m"):
            matsubara_pressure_term(drude_stack, bad, 1, settings300)
        with pytest.raises(ValueError, match=f"separations must be finite, got d = {bad}"):
            eta_sweep(drude_stack, [1e-6, bad], settings300)
        for zero_temperature in (False, True):
            with pytest.raises(ValueError, match=f"temperature must be finite, got {bad}"):
                EvaluationSettings(temperature=bad, zero_temperature=zero_temperature)
    with pytest.raises(ValueError, match="got a = -inf m"):
        pressure(drude_stack, -math.inf, settings300)


@pytest.mark.parametrize("zero_temperature", [False, True])
def test_eta_sweep_rejects_repeated_separation_up_front(monkeypatch, drude_stack,
                                                        zero_temperature):
    def fail(*args, **kwargs):
        raise AssertionError("a pressure was computed before the grid was checked")

    monkeypatch.setattr(engine, "_finite_t_pressures", fail)
    monkeypatch.setattr(engine, "pressure_zero_temperature", fail)
    settings = EvaluationSettings(zero_temperature=zero_temperature)
    with pytest.raises(ValueError, match=r"d = 5\.000000e-07 m appears more than once"):
        eta_sweep(drude_stack, [1e-6, 0.5e-6, 2e-6, 0.5e-6], settings)


SWEEP_GRID = np.geomspace(0.1e-6, 5e-6, 12)


@pytest.mark.parametrize("quad_rel_tol", [1e-9, 5e-10, 1e-12])
@pytest.mark.parametrize("plate_name", ["perfect_stack", "drude_stack", "rough_plate"])
def test_eta_sweep_rows_match_single_gap_pressure(plate_name, quad_rel_tol, request,
                                                  kernel_calls):
    """The sweep's waves give every row the pressure() value at its gap, to
    the last-bit rounding of the batched products; at 5e-10 only some of this
    grid's gaps refine their first block."""
    plate = request.getfixturevalue(plate_name)
    settings = EvaluationSettings(temperature=300.0, quad_rel_tol=quad_rel_tol)
    table = eta_sweep(plate, SWEEP_GRID, settings)
    if quad_rel_tol == 5e-10:
        refined = set().union(*(gaps for gaps, _, nodes in kernel_calls
                                if nodes > len(engine.DEFAULT_RULE.nodes)))
        assert 0 < len(refined) < len(SWEEP_GRID)
    single = np.array([pressure(plate, a, settings) for a in table.a])
    assert np.all(np.abs(table.pressure - single) <= 1e-15 * single)


def test_eta_sweep_later_waves_match_single_gap_pressure(monkeypatch, rough_plate, settings300):
    """A tenth of the decay-rate block size forces the gaps through several waves."""
    reference = eta_sweep(rough_plate, SWEEP_GRID, settings300)
    waves = []
    original = engine._wave_terms

    def counted(stack, a, blocks, *args):
        waves.append(len(blocks))
        return original(stack, a, blocks, *args)

    monkeypatch.setattr(engine, "_DECAY_SAFETY", 0.12)
    monkeypatch.setattr(engine, "_wave_terms", counted)
    table = eta_sweep(rough_plate, SWEEP_GRID, settings300)
    assert len(waves) >= 3 and waves[1] > 1
    single = np.array([pressure(rough_plate, a, settings300) for a in table.a])
    assert np.all(np.abs(table.pressure - single) <= 1e-15 * single)
    assert np.all(np.abs(table.pressure - reference.pressure) <= 1e-15 * reference.pressure)


def test_sweep_kernel_call_counts(monkeypatch, rough_plate, settings300):
    """A 30-point 300 K rough-plate sweep shares its kernel calls between gaps."""
    calls = {"_reflection": 0, "_static_reflection": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(engine, name, counted)
    eta_sweep(rough_plate, np.linspace(162e-9, 746e-9, 30), settings300)
    assert calls["_reflection"] <= 26
    assert calls["_static_reflection"] == 1


def test_missed_block_refines_both_levels(kernel_calls, rough_plate):
    """A block whose tail rows (u0 > 16) start on the coarse rule misses a
    1e-14 target: its coarse rows move to the default rule while the others
    move to the refined one, in the same pass.  Each level's rows fit one
    kernel call."""
    ls = np.arange(1, 100)
    assert 2.0 * 162e-9 * matsubara_frequency(ls[-1], 300.0) / CONSTANTS.c > engine._COARSE_FROM
    engine._wave_terms(as_layer_stack(rough_plate), np.array([162e-9]), [ls], 300.0, 1e-14, [0.0])
    assert [nodes for _, _, nodes in kernel_calls[:4]] == [60, 105, 105, 210]


def test_sweep_work_budget(kernel_calls, rough_plate, settings300):
    """A 30-point 300 K rough-plate sweep integrates at most 131,910 row-nodes:
    the work of its first waves with the tail terms (u0 > 16) on the coarse
    rule and no refinement, a count that does not drift with the machine.
    With every row on the default rule it was 168,000."""
    eta_sweep(rough_plate, np.linspace(162e-9, 746e-9, 30), settings300)
    assert sum(rows * nodes for _, rows, nodes in kernel_calls) <= 131_910


def _k_perp_route_integrals(stack, a, xi, rule):
    """(I_te, I_tm, err) of one row on the k_perp route, from the textbook formulas.

    k_perp is recovered from the nodes u = 2 a q.  Every medium's axial
    wavenumber s = sqrt(eps xi^2 / c^2 + k_perp^2) and every interface's
    Fresnel formulas are written out here, combined right-to-left through the
    layers.
    """

    def interface(pol, i, j):
        if pol == "TE":
            return (s[i] - s[j]) / (s[i] + s[j])
        return (eps[j] * s[i] - eps[i] * s[j]) / (eps[j] * s[i] + eps[i] * s[j])

    u0 = 2.0 * a * xi / CONSTANTS.c
    U = u0 + rule.nodes
    k_perp = np.sqrt(np.maximum(U * U - u0 * u0, 0.0)) / (2.0 * a)
    mirror = isinstance(stack.substrate, PerfectReflector)
    media = [Vacuum(), *(model for model, _ in stack.layers)] + [stack.substrate] * (not mirror)
    eps = [permittivity_imag_axis(model, xi) for model in media]
    s = [np.sqrt(e * (xi / CONSTANTS.c) ** 2 + k_perp**2) for e in eps]
    values, errors = [], []
    for pol in ("TE", "TM"):
        r = (-1.0 if pol == "TE" else 1.0) if mirror else interface(pol, -2, -1)
        for j in range(len(stack.layers), 0, -1):
            r_outer = interface(pol, j - 1, j)
            phase = np.exp(-2.0 * stack.layers[j - 1][1] * s[j])
            r = (r_outer + r * phase) / (1.0 + r_outer * r * phase)
        g = r * r * np.exp(-U)
        f = U * U * g / (1.0 - g)
        values.append(f @ rule.weights[:, 0])
        errors.append(abs(f @ rule.weights[:, 1]))
    return values[0], values[1], errors[0] + errors[1]


def test_kernel_matches_k_perp_route(drude_stack, plasma_stack, rough_plate):
    """The kernel, fed the nodes u, gives the k_perp route's integrals on the
    default rule, for conductors, a plasma layer over a perfect mirror and a
    dielectric layer; and on the coarse rule for rows with u0 > 16, where it
    also agrees with the default rule."""
    interband = Composite([Oscillator(ev_to_angular_frequency(6.0) ** 2,
                                      ev_to_angular_frequency(3.0), ev_to_angular_frequency(0.5))])
    stacks = [drude_stack, plasma_stack, as_layer_stack(rough_plate),
              as_layer_stack(build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9, interband.terms)),
              LayerStack([(Plasma(GOLD_WP), 20e-9)], PerfectReflector()),
              LayerStack([(interband, 50e-9)], drude_stack.substrate)]
    assert isinstance(stacks[3].substrate, Composite)
    a = np.array([100e-9, 162e-9, 162e-9, 500e-9, 2e-6, 2e-6])
    xi = matsubara_frequency(np.array([1, 2, 60, 7, 1, 25]), 300.0)
    a_tail = np.array([162e-9, 500e-9, 2e-6])
    xi_tail = matsubara_frequency(np.array([80, 40, 25]), 300.0)
    assert np.all(2.0 * a_tail * xi_tail / CONSTANTS.c > engine._COARSE_FROM)
    coarse = engine.COARSE_RULE
    for stack in stacks:
        for rows_a, rows_xi, rule in ((a, xi, engine.DEFAULT_RULE), (a_tail, xi_tail, coarse)):
            te, tm, err = engine._pol_integrals(stack, rows_a, rows_xi, rule)
            for i in range(len(rows_a)):
                ref_te, ref_tm, ref_err = _k_perp_route_integrals(stack, rows_a[i], rows_xi[i],
                                                                 rule)
                assert abs(te[i] - ref_te) <= 1e-14 * ref_te
                assert abs(tm[i] - ref_tm) <= 1e-14 * ref_tm
                assert abs(err[i] - ref_err) <= 1e-14 * (ref_te + ref_tm)
        coarse_sum = sum(engine._pol_integrals(stack, a_tail, xi_tail, coarse)[:2])
        fine_sum = sum(engine._pol_integrals(stack, a_tail, xi_tail, engine.DEFAULT_RULE)[:2])
        assert np.all(np.abs(coarse_sum - fine_sum) <= 1e-12 * fine_sum)


def test_reflection_of_0d_inputs(drude_stack, rough_plate):
    """Scalars and 0-d arrays give one [TE, TM] pair, the same either way."""
    a, xi, k_perp = 300e-9, matsubara_frequency(3, 300.0), 4e6
    u = 2.0 * a * math.hypot(xi / CONSTANTS.c, k_perp)
    mirror = LayerStack([(Plasma(GOLD_WP), 20e-9)], PerfectReflector())
    for stack in (drude_stack, as_layer_stack(rough_plate), mirror):
        pair = _reflection(stack, np.array(xi), np.array(u), np.array(a), np.array(u * u))
        assert pair.shape == (2,)
        assert np.array_equal(pair, _reflection(stack, xi, u, a, u * u))
    pair = _fresnel_pair(np.array(1.0), np.array(3.0), np.array(2e6), np.array(1e6))
    assert pair.shape == (2,)
    assert np.array_equal(pair, _fresnel_pair(1.0, 3.0, 2e6, 1e6))
    assert pair[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert pair[1] == pytest.approx(5.0 / 7.0, rel=1e-15)


def test_constants_match_scipy():
    """The exact SI values give scipy.constants' floats bit for bit."""
    import scipy.constants

    assert CONSTANTS.hbar == scipy.constants.hbar
    assert CONSTANTS.c == scipy.constants.c
    assert CONSTANTS.k_B == scipy.constants.k
    assert ev_to_angular_frequency(1.0) == scipy.constants.e / scipy.constants.hbar


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="thresholds are set through glibc")
def test_kernel_temporaries_stay_in_the_heap(rough_plate):
    """Repeated T = 0 pressures reuse the freed heap instead of faulting fresh pages in."""
    settings = EvaluationSettings(zero_temperature=True)
    a = gap_from_average(0.162e-6, rough_plate.layer_thickness, rough_plate.fill_factor)
    pressure(rough_plate, a, settings)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        pressure(rough_plate, a, settings)
    # without fixed thresholds: 200-500 faults per call
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
