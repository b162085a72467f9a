import io

import numpy as np
import pytest

from lifshitz_plates import (
    EvaluationSettings,
    Measurement,
    dump_measurements,
    fit_roughness,
    load_measurements,
    objective,
)
from lifshitz_plates import fit as fit_module


@pytest.fixture(scope="module")
def acceptance_data(synthesize):
    """The noiseless 30-point dataset of acceptance criterion 8."""
    return synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 30))


def test_load_single_row():
    data = load_measurements("d_um,eta\n0.746,0.55\n")
    assert len(data) == 1
    assert data[0].d == pytest.approx(0.746e-6, rel=1e-14)
    assert data[0].eta == 0.55
    assert data[0].sigma == 1.0


def test_load_nm_unit_and_sorting():
    data = load_measurements("d_nm,eta\n300,0.6\n150,0.5\n")
    assert [m.d for m in data] == pytest.approx([150e-9, 300e-9])


def test_load_sigma_column():
    data = load_measurements("d_um,eta,sigma\n0.3,0.6,0.01\n")
    assert data[0].sigma == 0.01


def test_load_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        load_measurements("d_um,eta\n0.3,0.6\n0.3,0.61\n")


def test_load_error_carries_line_number():
    with pytest.raises(ValueError, match="line 3"):
        load_measurements("d_um,eta\n0.3,0.6\n0.4\n")
    with pytest.raises(ValueError, match="line 2"):
        load_measurements("d_um,eta\nxyz,0.6\n")
    with pytest.raises(ValueError, match="line 2"):
        load_measurements("d_um,eta\n-0.3,0.6\n")


def test_load_rejects_unknown_unit():
    with pytest.raises(ValueError, match="unknown unit"):
        load_measurements("d_mm,eta\n0.3,0.6\n")


def test_load_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        load_measurements("d_um,value\n0.3,0.6\n")


def test_load_rejects_empty_input():
    with pytest.raises(ValueError, match="no measurements"):
        load_measurements("\n")
    with pytest.raises(ValueError, match="no measurements"):
        load_measurements("d_um,eta\n")


def test_round_trip_preserves_weighted_measurements(tmp_path):
    text = "d_um,eta,sigma\n0.2,0.48,0.02\n0.746,0.55,0.01\n"
    first = load_measurements(text)
    buffer = io.StringIO()
    dump_measurements(first, buffer)
    assert load_measurements(buffer.getvalue()) == first
    path = tmp_path / "meas.csv"
    dump_measurements(first, path, unit="d_nm")
    assert load_measurements(path) == first


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(-1e-7, 0.5)
    with pytest.raises(ValueError):
        Measurement(1e-7, 0.0)
    with pytest.raises(ValueError):
        Measurement(1e-7, 0.5, 0.0)


def test_objective_zero_at_truth(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 600e-9, 5))
    chi2 = objective(11e-9, 0.9, data, gold, 300.0)
    assert chi2 <= 1e-24
    assert objective(16e-9, 0.9, data, gold, 300.0) > 0.0


def test_objective_scales_like_point_count(synthesize, gold):
    """With sigma equal to the injected noise level, chi2 at truth ~ N."""
    n = 30
    data = synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, n),
                      noise=0.002, seed=7, weighted=True)
    chi2 = objective(11e-9, 0.9, data, gold, 300.0)
    assert n / 2.0 < chi2 < 2.0 * n


def test_objective_continuity_in_h(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 6))
    rng = np.random.default_rng(42)
    delta = 1e-3 * 1e-9
    for h in rng.uniform(2e-9, 30e-9, size=10):
        jump = abs(objective(h + delta, 0.9, data, gold, 300.0)
                   - objective(h, 0.9, data, gold, 300.0))
        assert jump < 1e-4


def test_objective_requires_data(gold):
    with pytest.raises(ValueError, match="no measurements"):
        objective(11e-9, 0.9, [], gold, 300.0)


def test_fit_recovers_noiseless_truth(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 10))
    result = fit_roughness(data, (5e-9, 0.8), gold, 300.0)
    assert result.converged
    assert abs(result.h - 11e-9) < 0.1e-9
    assert abs(result.f - 0.9) < 0.005
    assert result.chi2 < 1e-12
    assert result.n_evaluations <= 2000
    proxy = result.h_f_covariance_proxy
    assert proxy.shape == (2, 2)
    assert proxy[0, 0] > 0.0 and proxy[1, 1] > 0.0
    assert proxy[0, 1] == proxy[1, 0]


@pytest.mark.parametrize("start", [(0.0, 0.5), (100e-9, 1.0), (80e-9, 0.1), (1e-9, 0.05)],
                         ids=["zero-thickness", "both-at-bounds", "near-f-floor",
                              "thin-near-f-floor"])
def test_fit_reaches_truth_from_feasible_start(acceptance_data, gold, start):
    """(0, 0.5) is feasible, but a search from it can step to 2 h (1 - f) > min(d);
    (100 nm, 1.0) has both parameters at a bound, where a search can stall and
    still report convergence.  From the last two a single Levenberg-Marquardt
    run stops near f -> 0 (h = 22 nm, chi2 = 2.3e-2), so the fixed second
    start has to reach the truth."""
    result = fit_roughness(acceptance_data, start, gold, 300.0)
    assert result.converged
    assert abs(result.h - 11e-9) <= 0.1e-9
    assert abs(result.f - 0.9) <= 0.005
    assert result.chi2 <= 1e-12


def test_fit_covariance_brackets_truth(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 30),
                      noise=0.002, seed=7, weighted=True)
    result = fit_roughness(data, (5e-9, 0.8), gold, 300.0)
    cov = result.covariance
    assert cov.shape == (2, 2)
    assert cov[0, 1] == cov[1, 0]
    assert cov[0, 0] > 0.0 and cov[1, 1] > 0.0
    assert abs(result.h - 11e-9) <= 5.0 * np.sqrt(cov[0, 0])
    assert abs(result.f - 0.9) <= 5.0 * np.sqrt(cov[1, 1])


@pytest.mark.filterwarnings("error")
def test_fit_covariance_singular_at_zero_thickness(synthesize, gold):
    """At h = 0 the f column of the Jacobian is exactly zero: J^T J is
    singular, and the covariance is reported non-finite instead of raising."""
    data = synthesize(0.0, 0.9, np.linspace(200e-9, 700e-9, 4))
    result = fit_roughness(data, (0.0, 0.9), gold, 300.0)
    assert result.h == 0.0 and result.chi2 == 0.0
    assert not np.all(np.isfinite(result.covariance))
    assert np.all(np.isfinite(result.h_f_covariance_proxy))


def test_fit_reparameterization_invariance(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 8))
    first = fit_roughness(data, (8e-9, 0.85), gold, 300.0, h_scale=2e-9)
    second = fit_roughness(data, (8e-9, 0.85), gold, 300.0, h_scale=20e-9)
    assert abs(first.h - second.h) < 0.05e-9
    assert abs(first.f - second.f) < 0.002


def test_fit_single_point_is_degenerate(synthesize, gold):
    data = synthesize(11e-9, 0.9, [300e-9])
    with pytest.warns(UserWarning, match="one observation"):
        result = fit_roughness(data, (11e-9, 0.9), gold, 300.0)
    assert result.chi2 <= 1e-20
    assert result.converged


def test_fit_budget_exhaustion(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4))
    result = fit_roughness(data, (5e-9, 0.8), gold, 300.0, max_evaluations=5)
    assert not result.converged
    assert result.chi2 >= 0.0


def test_fit_validates_init(synthesize, gold):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4))
    with pytest.raises(ValueError, match="initial h"):
        fit_roughness(data, (200e-9, 0.9), gold, 300.0, h_max=100e-9)
    with pytest.raises(ValueError, match="initial f"):
        fit_roughness(data, (11e-9, 0.0), gold, 300.0)
    with pytest.raises(ValueError, match="h_max"):
        fit_roughness(data, (0.0, 0.9), gold, 300.0, h_max=0.0)
    with pytest.raises(ValueError, match="no measurements"):
        fit_roughness([], (11e-9, 0.9), gold, 300.0)


def test_fit_rejects_infeasible_start(synthesize, gold, monkeypatch):
    """A start inside the (h, f) bounds whose gap offset 2 h (1 - f) reaches
    the smallest separation is refused before any objective evaluation."""
    data = synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 4))
    calls = []
    monkeypatch.setattr(fit_module, "objective", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"h0 = 1\.000000e-07 m, f0 = 0\.05.*"
                                         r"1\.900000e-07 m.*min\(d\) = 1\.620000e-07 m"):
        fit_roughness(data, (100e-9, 0.05), gold, 300.0)
    assert calls == []


def test_fit_respects_bounds(synthesize, gold):
    data = synthesize(3e-9, 0.97, np.linspace(200e-9, 700e-9, 6))
    result = fit_roughness(data, (10e-9, 0.7), gold, 300.0)
    assert 0.0 < result.f <= 1.0
    assert 0.0 <= result.h <= 100e-9


def test_zero_temperature_objective_differs(synthesize, gold):
    d_values = np.linspace(300e-9, 700e-9, 4)
    data = synthesize(11e-9, 0.9, d_values)
    chi2_300 = objective(11e-9, 0.9, data, gold, 300.0)
    chi2_zero = objective(
        11e-9, 0.9, data, gold, 300.0,
        EvaluationSettings(zero_temperature=True),
    )
    assert chi2_zero > chi2_300
