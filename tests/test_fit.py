import io
import math
import os

import numpy as np
import pytest

from lifshitz_plates import (
    EvaluationSettings,
    Measurement,
    dump_measurements,
    fit_roughness,
    ideal_pressure,
    load_measurements,
    objective,
    pressure,
)
from lifshitz_plates import fit as fit_module


@pytest.fixture(scope="module")
def acceptance_data(synthesize):
    """The noiseless 30-point dataset of acceptance criterion 8."""
    return synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 30))


@pytest.fixture(scope="module")
def noisy_data(synthesize):
    """30 points with 0.2 % seeded noise, each weighted by that noise."""
    return synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 30),
                      noise=0.002, seed=7, weighted=True)


@pytest.fixture(scope="module")
def shifted_drude_data(drude_stack, settings300):
    """Smooth Drude reduction factors at gaps 3 nm below the stated d."""
    return [Measurement(x, pressure(drude_stack, x - 3e-9, settings300) / ideal_pressure(x))
            for x in np.linspace(162e-9, 746e-9, 4)]


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


@pytest.mark.parametrize("field", ["d", "eta", "sigma"])
def test_non_finite_measurement_is_refused(field):
    values = {"d": 1e-7, "eta": 0.5, "sigma": 1.0, field: math.inf}
    with pytest.raises(ValueError, match=f"^{field} must be > 0 and finite, got inf$"):
        Measurement(**values)


def test_load_refuses_infinite_separation():
    with pytest.raises(ValueError, match="^line 3: d must be > 0 and finite, got inf$"):
        load_measurements("d_um,eta\n0.2,0.5\ninf,0.6\n")


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


def test_fit_covariance_brackets_truth(noisy_data, gold):
    result = fit_roughness(noisy_data, (5e-9, 0.8), gold, 300.0)
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


def test_fit_converges_at_a_minimum_it_cannot_fit_exactly(gold, shifted_drude_data):
    """Smooth Drude data at gaps 3 nm below the stated d: the best model is a
    nearly empty layer (h = 3.7 nm, f = 0.023) with chi2 = 2.8e-7.  There the
    forward differences' rounding error, noise / step per Jacobian column,
    exceeds the gradient, and a test without it ran out at lambda_max with
    converged=False after 148 evaluations (as did a T = 0 fit of 300 K data:
    206 evaluations).  ``max_evaluations=3`` runs the convergence test at the
    start alone: it holds at the minimum and not away from it."""
    data = shifted_drude_data
    result = fit_roughness(data, (5e-9, 0.8), gold, 300.0)
    assert result.converged
    assert result.n_evaluations < 120
    assert abs(result.h - 3.745e-9) < 0.01e-9 and abs(result.f - 0.0227) < 0.001
    assert result.chi2 > 1e-7
    for start, converged in [((result.h, result.f), True), ((5e-9, 0.8), False),
                             ((1.05 * result.h, result.f), False)]:
        assert fit_roughness(data, start, gold, 300.0, max_evaluations=3).converged == converged


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


@pytest.mark.parametrize("name, value", [("h_max", math.inf), ("h_scale", math.inf),
                                         ("h_scale", math.nan), ("h_scale", -1e-9)])
def test_fit_refuses_non_finite_or_negative_scales(synthesize, gold, monkeypatch, name, value):
    """An infinite h_max, or an h_scale that is not a positive finite length, is
    refused before any evaluation; a negative h_scale reported a converged fit
    at (h_max, 1) on data made at (11 nm, 0.9)."""
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4))

    def fail(*args, **kwargs):
        raise AssertionError("residuals evaluated")

    monkeypatch.setattr(fit_module, "residuals", fail)
    with pytest.raises(ValueError, match=f"^{name} must be > 0 and finite, got {value}$"):
        fit_roughness(data, (5e-9, 0.8), gold, 300.0, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 2, 1])
def test_fit_refuses_a_bad_evaluation_budget(synthesize, gold, monkeypatch, value):
    """NaN switched the budget off, and 1 or 2 were exceeded, since the start
    alone costs 3 evaluations: the budget must be an integer >= 3."""
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4))

    def fail(*args, **kwargs):
        raise AssertionError("residuals evaluated")

    monkeypatch.setattr(fit_module, "residuals", fail)
    with pytest.raises(ValueError, match=f"^max_evaluations must be an integer >= 3, got {value}$"):
        fit_roughness(data, (5e-9, 0.8), gold, 300.0, max_evaluations=value)


def test_fit_rejects_infeasible_start(synthesize, gold, monkeypatch):
    """A start inside the (h, f) bounds whose gap offset 2 h (1 - f) reaches
    the smallest separation is refused before any residual evaluation."""
    data = synthesize(11e-9, 0.9, np.linspace(162e-9, 746e-9, 4))
    calls = []
    monkeypatch.setattr(fit_module, "residuals", lambda *args: calls.append(args))
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


def test_temperature_conflicting_with_settings_is_refused(synthesize, gold, monkeypatch):
    """A finite-T ``settings`` fixes the temperature, so a different
    ``temperature`` argument is an error, not silently overridden; at T = 0
    the temperature argument plays no part."""
    data = synthesize(11e-9, 0.9, np.linspace(300e-9, 700e-9, 4))
    message = r"temperature = 4\.0 K conflicts with settings\.temperature = 300\.0 K"
    with pytest.raises(ValueError, match=message):
        objective(11e-9, 0.9, data, gold, 4.0, EvaluationSettings())
    with pytest.raises(ValueError, match=message):
        fit_module.residuals(11e-9, 0.9, data, gold, 4.0, EvaluationSettings())
    zero_t = EvaluationSettings(zero_temperature=True)
    assert objective(11e-9, 0.9, data, gold, 4.0, zero_t) == objective(
        11e-9, 0.9, data, gold, 300.0, zero_t)
    calls = []
    monkeypatch.setattr(fit_module, "residuals", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        fit_roughness(data, (5e-9, 0.8), gold, 4.0, settings=EvaluationSettings())
    assert calls == []


requires_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Let fit_roughness fork as on a two-CPU machine; lists the children it makes."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return pids


def _in_process(monkeypatch, *args, **kwargs):
    """``fit_roughness(*args, **kwargs)`` with both runs in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return fit_roughness(*args, **kwargs)


def _assert_same_fit(first, second):
    for name in ("h", "f", "chi2", "n_evaluations", "converged"):
        assert getattr(first, name) == getattr(second, name), name
    for name in ("h_f_covariance_proxy", "covariance"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name


@requires_fork
@pytest.mark.parametrize("dataset, max_evaluations", [
    ("noisy_data", 2000), ("shifted_drude_data", 2000),
    ("noisy_data", 6), ("noisy_data", 17), ("noisy_data", 25), ("noisy_data", 29),
    ("noisy_data", 30),
])
def test_forked_fit_is_bit_identical_to_the_in_process_fit(request, gold, monkeypatch, forks,
                                                           dataset, max_evaluations):
    """On the noisy data the first run takes 15 evaluations when it can.  A
    budget of 6 or 17 leaves the fixed start no run, so the child is killed
    unused; 25 and 29 bind that run, so it is repeated here; from 30 on the
    child's run is used."""
    data = request.getfixturevalue(dataset)
    forked = fit_roughness(data, (5e-9, 0.8), gold, 300.0, max_evaluations=max_evaluations)
    assert len(forks) == 1
    _assert_same_fit(forked, _in_process(monkeypatch, data, (5e-9, 0.8), gold, 300.0,
                                         max_evaluations=max_evaluations))
    assert len(forks) == 1


class _StartRefused(Exception):
    pass


@requires_fork
@pytest.mark.parametrize("error, at", [(_StartRefused, (10e-9, 0.5)), (ValueError, (10e-9, 0.5)),
                                       (_StartRefused, (5e-9, 0.8))],
                         ids=["other-error-at-fixed-start", "engine-error-at-fixed-start",
                              "error-at-first-start"])
def test_forked_fit_raises_or_drops_as_in_process(acceptance_data, gold, monkeypatch, forks,
                                                  error, at):
    """An error only at the fixed start (h_scale, 0.5), raised in the child,
    is raised here with its type, or for an engine error drops that run, as
    in process.  An error at the first start leaves no child behind."""
    residuals, refused = fit_module.residuals, []

    def refusing(h, f, *args):
        if (h, f) == at:
            refused.append(os.getpid())
            raise error(f"refused at h = {h}, f = {f}")
        return residuals(h, f, *args)

    monkeypatch.setattr(fit_module, "residuals", refusing)
    outcomes = []
    for fit in (lambda: fit_roughness(acceptance_data, (5e-9, 0.8), gold, 300.0),
                lambda: _in_process(monkeypatch, acceptance_data, (5e-9, 0.8), gold, 300.0)):
        try:
            outcomes.append(fit())
        except _StartRefused as exc:
            outcomes.append(str(exc))
    assert len(forks) == 1 and os.getpid() in refused
    if error is ValueError:
        _assert_same_fit(*outcomes)
    else:
        assert outcomes == [f"refused at h = {at[0]}, f = {at[1]}"] * 2


@requires_fork
def test_a_child_that_exits_without_its_result_raises(acceptance_data, gold, monkeypatch, forks):
    parent = os.getpid()
    residuals = fit_module.residuals

    def dying_in_the_child(h, f, *args):
        if os.getpid() != parent:
            os._exit(3)
        return residuals(h, f, *args)

    monkeypatch.setattr(fit_module, "residuals", dying_in_the_child)
    with pytest.raises(RuntimeError, match=r"^fit child process \d+ exited without sending its"):
        fit_roughness(acceptance_data, (5e-9, 0.8), gold, 300.0)
    assert len(forks) == 1


def test_fit_runs_in_process_when_fork_fails(acceptance_data, gold, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _assert_same_fit(fit_roughness(acceptance_data, (5e-9, 0.8), gold, 300.0),
                     _in_process(monkeypatch, acceptance_data, (5e-9, 0.8), gold, 300.0))


@requires_fork
@pytest.mark.parametrize("start, max_evaluations", [((10e-9, 0.5), 2000), ((5e-9, 0.8), 5)],
                         ids=["equal-starts", "no-budget-for-a-second-run"])
def test_fit_without_a_second_run_makes_no_child(acceptance_data, gold, forks, start,
                                                 max_evaluations):
    fit_roughness(acceptance_data, start, gold, 300.0, max_evaluations=max_evaluations)
    assert forks == []
