"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
live (they are also shown in the failure report without ``-s``).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import zeta

from lifshitz_plates import (
    CONSTANTS,
    EvaluationSettings,
    LayerStack,
    Plasma,
    build_rough_plate,
    eta_sweep,
    fit_roughness,
    gap_from_average,
    ideal_pressure,
    matsubara_pressure_term,
    pressure,
    pressure_zero_temperature,
)
from lifshitz_plates.engine import _kperp_term
from lifshitz_plates.stack import as_layer_stack

from conftest import GOLD_GAMMA, GOLD_WP


def _verdict(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_ideal_metal_oracle(perfect_stack):
    start = time.monotonic()
    errors = []
    for d in (0.5e-6, 1e-6, 2e-6):
        p = pressure_zero_temperature(perfect_stack, d)
        errors.append(abs(p - ideal_pressure(d)) / ideal_pressure(d))
    elapsed = time.monotonic() - start
    ok = max(errors) < 1e-6 and elapsed < 1.0
    assert _verdict(1, ok, f"max rel error {max(errors):.2e}, {elapsed:.2f} s")


def _classical_pressure(a, temperature):
    """l = 0 term for perfect reflectors: P_cl = zeta(3) k_B T / (4 pi a^3)."""
    return zeta(3) * CONSTANTS.k_B * temperature / (4.0 * math.pi * a**3)


def _perfect_reflector_series(a, temperature):
    """Perfect-reflector pressure summed in closed form, without quadrature.

    With r^2 = 1 each polarization of Matsubara term l contributes
    int_{q_l}^inf q^2 / (e^{2 a q} - 1) dq
        = sum_n e^{-x q_l} [q_l^2 / x + 2 q_l / x^2 + 2 / x^3],  x = 2 n a,
    with q_l = xi_l / c.  The l = 0 term sums to zeta(3); for l >= 1 the
    double series falls off like exp(-x q_l), about exp(-8 l n) at 5 um and
    300 K, so 60 indices in l and n reach far beyond double precision.
    """
    idx = np.arange(1, 61)
    q = (2.0 * math.pi * CONSTANTS.k_B * temperature / (CONSTANTS.hbar * CONSTANTS.c)
         * idx[:, None])
    x = 2.0 * a * idx[None, :]
    remainder = np.sum(np.exp(-x * q) * (q * q / x + 2.0 * q / x**2 + 2.0 / x**3))
    prefactor = 2.0 * CONSTANTS.k_B * temperature / math.pi   # k_B T / pi, two polarizations
    return _classical_pressure(a, temperature) + prefactor * remainder


def test_criterion_02_classical_limit_oracle(perfect_stack):
    """Perfect reflectors at T = 300 K against two quadrature-free oracles.

    At a = 5 um the full pressure must match the closed-form Matsubara series
    to rel 1e-9; the l >= 1 remainder is still 1.91 % there.  The classical
    limit P_cl = zeta(3) k_B T / (4 pi a^3) is held to 1 % at a = 7 um, where
    that remainder has decayed (5 -> 6 -> 7 um: 1.91 % -> 0.51 % -> 0.13 %).
    """
    temperature = 300.0
    settings = EvaluationSettings(temperature=temperature)
    start = time.monotonic()
    full = pressure(perfect_stack, 5e-6, settings)
    elapsed = time.monotonic() - start
    series = _perfect_reflector_series(5e-6, temperature)
    series_dev = abs(full - series) / series
    # supporting evidence: the engine's own l = 0 term reproduces the zeta(3) form
    term = matsubara_pressure_term(perfect_stack, 5e-6, 0, settings)
    assert term.te + term.tm == pytest.approx(_classical_pressure(5e-6, temperature), rel=1e-10)
    deviations = [
        abs(pressure(perfect_stack, a, settings) / _classical_pressure(a, temperature) - 1.0)
        for a in (5e-6, 6e-6, 7e-6)
    ]
    shrinking = deviations[0] > deviations[1] > deviations[2]
    ok = series_dev <= 1e-9 and deviations[2] < 0.01 and shrinking and elapsed < 1.0
    assert _verdict(
        2, ok,
        f"5 um vs closed-form series rel {series_dev:.1e}; |P - P_cl|/P_cl at 5/6/7 um = "
        + "/".join(f"{dev:.4f}" for dev in deviations)
        + f" (bound 0.01 at 7 um, l=0 term matches the zeta(3) form to 1e-10), {elapsed:.2f} s",
    )


def test_criterion_03_drude_zero_frequency_te(drude_stack, settings300):
    term = matsubara_pressure_term(drude_stack, 200e-9, 0, settings300)
    te_kperp, tm_kperp = _kperp_term(as_layer_stack(drude_stack), 200e-9, 0,
                                     settings300.temperature, settings300.quad_rel_tol)
    ok = term.te == 0.0 and te_kperp == 0.0 and term.tm > 0.0 and tm_kperp > 0.0
    assert _verdict(3, ok, f"l=0 TE term = {term.te!r} (exact zero), TM term {term.tm:.3e} Pa")


def test_criterion_04_degeneracy_limits(drude_stack, plasma_stack, settings300):
    a = 200e-9
    p_two = pressure(build_rough_plate(GOLD_WP, GOLD_GAMMA, 0.0, 0.9), a, settings300)
    p_drude = pressure(drude_stack, a, settings300)
    drude_dev = abs(p_two - p_drude) / p_drude
    thick = build_rough_plate(GOLD_WP, GOLD_GAMMA, 10.0 * CONSTANTS.c / GOLD_WP, 1.0)
    plasma_devs = []
    for d in (0.2e-6, 1e-6):
        p_thick = pressure(thick, d, settings300)   # f = 1, so a = d
        p_plasma = pressure(plasma_stack, d, settings300)
        plasma_devs.append(abs(p_thick - p_plasma) / p_plasma)
    ok = drude_dev <= 1e-10 and max(plasma_devs) < 0.005
    assert _verdict(
        4, ok,
        f"h=0 vs Drude rel {drude_dev:.2e}; thick-layer vs plasma rel {max(plasma_devs):.2e}",
    )


def test_criterion_05_model_ordering(drude_stack, plasma_stack, settings300):
    """Drude < smooth < rough in eta, and the thermal (l = 0) ordering.

    eta itself is not ordered rough <= plasma: the gap shift
    a = d - 2 h (1 - f) = d - 2.2 nm lifts the rough plate above the plasma
    curve for d <= 0.29 um (reported, not asserted).  What the model promises
    at every gap is the l = 0 term: TE is Drude (exact zero) < smooth < rough
    < plasma, and TM is the same for all four conductors.
    """
    start = time.monotonic()
    d_grid = np.geomspace(0.1e-6, 5e-6, 30)
    rough = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9)
    smooth = build_rough_plate(GOLD_WP, GOLD_GAMMA, 2e-9, 0.5)
    eta_drude = eta_sweep(drude_stack, d_grid, settings300).eta
    eta_plasma = eta_sweep(plasma_stack, d_grid, settings300).eta
    eta_rough = eta_sweep(rough, d_grid, settings300).eta
    eta_smooth = eta_sweep(smooth, d_grid, settings300).eta
    thermal_ordered, tm_spread = True, 0.0
    for a in d_grid:
        terms = [matsubara_pressure_term(plate, a, 0, settings300)
                 for plate in (drude_stack, smooth, rough, plasma_stack)]
        te = [term.te for term in terms]
        tm = np.array([term.tm for term in terms])
        thermal_ordered &= te[0] == 0.0 < te[1] < te[2] < te[3]
        tm_spread = max(tm_spread, float(np.ptp(tm) / np.max(tm)))
    elapsed = time.monotonic() - start
    below_rough = bool(np.all(eta_drude < eta_rough))
    smooth_between = bool(np.all((eta_drude < eta_smooth) & (eta_smooth < eta_rough)))
    excess = float(np.max(eta_rough - eta_plasma))
    violating = d_grid[eta_rough > eta_plasma]
    ok = (below_rough and smooth_between and thermal_ordered and tm_spread <= 1e-12
          and elapsed < 60.0)
    assert _verdict(
        5, ok,
        f"drude<rough {below_rough}; smooth between {smooth_between}; "
        f"l=0 TE drude(0)<smooth<rough<plasma {thermal_ordered}, TM spread {tm_spread:.1e}; "
        f"eta_rough - eta_plasma up to {excess:+.4f} for d <= "
        f"{violating.max() * 1e6 if violating.size else 0:.2f} um (gap shift 2h(1-f) = 2.2 nm); "
        f"{elapsed:.1f} s",
    )


def _distance_ratio(to_plasma, to_drude):
    """Worst |x - plasma| / |x - drude| over a grid; >= 1 means nearer Drude."""
    with np.errstate(divide="ignore"):
        return float(np.max(to_plasma / to_drude))


def test_criterion_06_plasma_proximity(drude_stack, plasma_stack, rough_plate, settings300):
    """On the submicron grid the rough plate's eta lies nearer the plasma model
    than the Drude model at every d (the data there favour the plasma model)."""
    d_grid = np.linspace(162e-9, 746e-9, 30)
    eta_rough = eta_sweep(rough_plate, d_grid, settings300).eta
    eta_plasma = eta_sweep(plasma_stack, d_grid, settings300).eta
    eta_drude = eta_sweep(drude_stack, d_grid, settings300).eta
    to_plasma = np.abs(eta_rough - eta_plasma)
    to_drude = np.abs(eta_rough - eta_drude)
    ok = bool(np.all(to_plasma < to_drude))
    at = float(d_grid[np.argmax(to_plasma)])
    assert _verdict(
        6, ok,
        f"max |eta_rough - eta_plasma| = {np.max(to_plasma):.4f} at d = {at * 1e9:.0f} nm, "
        f"min |eta_rough - eta_drude| = {np.min(to_drude):.4f}; "
        f"worst ratio {_distance_ratio(to_plasma, to_drude):.2f} (must be < 1)",
    )


def test_criterion_07_thermal_indistinguishability(drude_stack, plasma_stack, rough_plate,
                                                   settings300):
    """The rough plate's thermal shift Delta = eta(300 K) - eta(0 K) lies nearer
    the plasma model's (nearly none) than the Drude model's at every d."""
    start = time.monotonic()
    d_grid = np.linspace(162e-9, 746e-9, 30)
    zero = EvaluationSettings(zero_temperature=True)
    shift = {}
    for name, plate in (("rough", rough_plate), ("plasma", plasma_stack), ("drude", drude_stack)):
        shift[name] = eta_sweep(plate, d_grid, settings300).eta - eta_sweep(plate, d_grid, zero).eta
    elapsed = time.monotonic() - start
    to_plasma = np.abs(shift["rough"] - shift["plasma"])
    to_drude = np.abs(shift["rough"] - shift["drude"])
    ok = bool(np.all(to_plasma < to_drude))
    at = float(d_grid[np.argmax(np.abs(shift["rough"]))])
    assert _verdict(
        7, ok,
        f"max |eta(300K) - eta(0K)| = {np.max(np.abs(shift['rough'])):.4f} at d = {at * 1e9:.0f} nm "
        f"(plasma {np.max(np.abs(shift['plasma'])):.4f}, drude {np.max(np.abs(shift['drude'])):.4f}); "
        f"worst ratio {_distance_ratio(to_plasma, to_drude):.2f} (must be < 1), {elapsed:.1f} s",
    )


def test_criterion_08_fit_recovery(synthesize, gold):
    start = time.monotonic()
    d_grid = np.linspace(162e-9, 746e-9, 30)
    clean = synthesize(11e-9, 0.9, d_grid)
    result = fit_roughness(clean, (5e-9, 0.8), gold, 300.0)
    h_err = abs(result.h - 11e-9)
    f_err = abs(result.f - 0.9)
    noiseless_ok = result.converged and h_err <= 0.1e-9 and f_err <= 0.005

    h_errs, f_errs = [], []
    for seed in range(20):
        noisy = synthesize(11e-9, 0.9, d_grid, noise=0.002, seed=seed)
        fitted = fit_roughness(noisy, (5e-9, 0.8), gold, 300.0)
        h_errs.append(abs(fitted.h - 11e-9))
        f_errs.append(abs(fitted.f - 0.9))
    median_h = float(np.median(h_errs))
    median_f = float(np.median(f_errs))
    elapsed = time.monotonic() - start
    noisy_ok = median_h <= 1e-9 and median_f <= 0.05
    ok = noiseless_ok and noisy_ok and elapsed < 300.0
    assert _verdict(
        8, ok,
        f"noiseless dh = {h_err * 1e9:.3f} nm, df = {f_err:.4f}; "
        f"noisy medians dh = {median_h * 1e9:.3f} nm, df = {median_f:.4f}; {elapsed:.0f} s",
    )


def test_criterion_09_numerical_robustness(drude_stack, rough_plate):
    worst = 0.0
    for plate, h, f in ((drude_stack, 0.0, 1.0), (rough_plate, 11e-9, 0.9)):
        for d in (0.2e-6, 1e-6, 5e-6):
            a = gap_from_average(d, h, f)
            base = pressure(plate, a, EvaluationSettings(temperature=300.0))
            tight = pressure(plate, a, EvaluationSettings(temperature=300.0, quad_rel_tol=5e-10))
            budget = pressure(plate, a, EvaluationSettings(temperature=300.0, l_max=10000))
            worst = max(worst, abs(tight - base) / base, abs(budget - base) / base)
    ok = worst < 1e-7
    assert _verdict(9, ok, f"max relative change {worst:.2e}")


def test_criterion_10_cli_determinism():
    argv = [sys.executable, "-m", "lifshitz_plates.cli", "sweep",
            "--model", "two-layer", "--h-nm", "11", "--f", "0.9",
            "--dmin", "0.2", "--dmax", "2.0", "--points", "7", "--log"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    assert _verdict(10, ok, f"{len(first.stdout)} output bytes byte-identical across runs")


def test_criterion_11_thermal_correction_ratio(drude_stack, plasma_stack, rough_plate,
                                               settings300):
    """The paper's prediction for the thermal correction at large separations.

    With Delta = eta(300 K) - eta(T = 0), the rough plate's
    ratio = (Delta - Delta_drude) / (Delta_plasma - Delta_drude) measures where
    its thermal correction lies: 0 at Drude's, 1 at plasma's.  From 0.2 to
    10 um, the range of the thermal force measured by Sushkov et al., Nature
    Phys. 7 (2011) 230, the (11 nm, 0.9) plate's ratio stays above 0.5, nearer
    plasma, and it and the (2 nm, 0.5) plate's ratio rise with d.  The ratio
    is not bounded by 1: a (30 nm, 0.5) plate reaches 1.002 at 10 um.
    """
    start = time.monotonic()
    d_grid = np.geomspace(0.2e-6, 10e-6, 12)
    zero = EvaluationSettings(zero_temperature=True)
    smooth = build_rough_plate(GOLD_WP, GOLD_GAMMA, 2e-9, 0.5)
    shift = {}
    for name, plate in (("rough", rough_plate), ("smooth", smooth), ("plasma", plasma_stack),
                        ("drude", drude_stack)):
        shift[name] = eta_sweep(plate, d_grid, settings300).eta - eta_sweep(plate, d_grid, zero).eta
    elapsed = time.monotonic() - start
    span = shift["plasma"] - shift["drude"]
    rough = (shift["rough"] - shift["drude"]) / span
    smooth = (shift["smooth"] - shift["drude"]) / span
    nearer_plasma = bool(np.all(rough > 0.5))
    rising = bool(np.all(np.diff(rough) > 0.0) and np.all(np.diff(smooth) > 0.0))
    ok = nearer_plasma and rising
    assert _verdict(
        11, ok,
        f"thermal-correction ratio 0.2 -> 10 um: rough {rough[0]:.3f} -> {rough[-1]:.3f} "
        f"(min {np.min(rough):.3f}, must be > 0.5), smooth {smooth[0]:.3f} -> {smooth[-1]:.3f}; "
        f"both rising {rising}, {elapsed:.2f} s",
    )
