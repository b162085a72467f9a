"""Least-squares estimation of the rough-layer parameters (h, f).

The two-layer model's reduction factor is compared with measured (d, eta)
pairs through the weighted residuals r = (eta_model - eta_obs) / sigma, and
chi^2 = |r|^2 is minimized by projected Levenberg-Marquardt in
x = (h / h_scale, f).  Every point tried lies in the parameter domain and
inside the feasibility bound 2 h (1 - f) < min(d), so every gap
a = d - 2 h (1 - f) is positive.  A second run from a fixed start escapes
the basin near f -> 0, where the layer acts almost like vacuum.  Where the
process may fork, may use two CPUs and runs one Python thread, that run goes
to a forked child while the first runs here; the result is bit-identical to
running both here, one after the other.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO, Union

import numpy as np

from .engine import EvaluationSettings, MatsubaraTruncationError, QuadratureBudgetError, eta_sweep
from .materials import BulkMetal, build_rough_plate

# Relative distance kept from the domain's open edges: f >= _MARGIN and
# 2 h (1 - f) <= (1 - _MARGIN) min(d).
_MARGIN = 1e-3
_LAMBDA_START = 1e-3
_LAMBDA_MAX = 1e10
# Levenberg floor of the Marquardt scaling, relative to trace(J^T J): the f
# column of J vanishes at h = 0, and the damping diag(J^T J) with it.
_LEVENBERG_FLOOR = 1e-9
_ENGINE_ERRORS = (ValueError, MatsubaraTruncationError, QuadratureBudgetError)


@dataclass(frozen=True)
class Measurement:
    """One reduction-factor observation at average separation ``d`` (m)."""

    d: float
    eta: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("d", "eta", "sigma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be > 0 and finite, got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted rough-layer parameters and bookkeeping.

    Both matrices are in (h [m], f) and come from the last forward-difference
    Jacobian J of the kept run, at no extra evaluations.
    ``h_f_covariance_proxy`` is 2 J^T J, the Gauss-Newton curvature of chi^2.
    ``covariance`` is s^2 (J^T J)^-1 with s^2 = chi^2 / (N - 2); its entries
    are non-finite when J^T J is singular (as at h = 0) or N <= 2.
    """

    h: float
    f: float
    chi2: float
    n_evaluations: int
    converged: bool
    h_f_covariance_proxy: np.ndarray
    covariance: np.ndarray

    def to_dict(self) -> dict:
        return {
            "h_m": self.h,
            "f": self.f,
            "chi2": self.chi2,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "h_f_covariance_proxy": np.asarray(self.h_f_covariance_proxy).tolist(),
            "covariance": np.asarray(self.covariance).tolist(),
        }


_D_UNITS = {"d_um": 1e-6, "d_nm": 1e-9}


def load_measurements(source: Union[str, Path, TextIO]) -> list[Measurement]:
    """Parse measurements from CSV text with columns d_um|d_nm, eta[, sigma].

    ``source`` may be a path, an open text stream, or the literal CSV content
    (any string containing a newline).  Rows are returned ascending in d;
    duplicate separations are rejected.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text()

    reader = csv.reader(io.StringIO(text))
    rows = [(lineno, row) for lineno, row in enumerate(reader, start=1)
            if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError("no measurements: input is empty")
    header = [cell.strip() for cell in rows[0][1]]

    d_cols = [name for name in header if name.startswith("d_")]
    if len(d_cols) != 1:
        raise ValueError(f"expected exactly one separation column, got {header}")
    if d_cols[0] not in _D_UNITS:
        raise ValueError(f"unknown unit suffix in column {d_cols[0]!r}; use d_um or d_nm")
    expected = [d_cols[0], "eta"] + (["sigma"] if "sigma" in header else [])
    if header != expected:
        raise ValueError(f"header must be {expected}, got {header}")
    scale = _D_UNITS[d_cols[0]]

    measurements = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        try:
            measurements.append(Measurement(values[0] * scale, *values[1:]))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not measurements:
        raise ValueError("no measurements: data section is empty")

    measurements.sort(key=lambda m: m.d)
    for prev, cur in zip(measurements, measurements[1:]):
        if prev.d == cur.d:
            raise ValueError(f"duplicate separation d = {cur.d:.6e} m")
    return measurements


def dump_measurements(
    measurements: Sequence[Measurement], target: Union[str, Path, TextIO], unit: str = "d_um"
) -> None:
    """Serialize measurements as CSV; inverse of :func:`load_measurements`."""
    if unit not in _D_UNITS:
        raise ValueError(f"unknown unit suffix {unit!r}; use d_um or d_nm")
    scale = _D_UNITS[unit]
    weighted = any(m.sigma != 1.0 for m in measurements)
    lines = [f"{unit},eta" + (",sigma" if weighted else "")]
    for m in measurements:
        record = f"{m.d / scale:.17g},{m.eta:.17g}"
        if weighted:
            record += f",{m.sigma:.17g}"
        lines.append(record)
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)


def _settings_at(temperature: float, settings: EvaluationSettings | None) -> EvaluationSettings:
    """``settings``, or the defaults at ``temperature``; finite-T ``settings`` must agree."""
    if settings is None:
        return EvaluationSettings(temperature=temperature)
    if not settings.zero_temperature and settings.temperature != temperature:
        raise ValueError(f"temperature = {temperature} K conflicts with settings.temperature "
                         f"= {settings.temperature} K")
    return settings


def residuals(
    h: float,
    f: float,
    data: Sequence[Measurement],
    material: BulkMetal,
    temperature: float,
    settings: EvaluationSettings | None = None,
) -> np.ndarray:
    """Weighted residuals (eta_model - eta_obs) / sigma, in the order of ``data``."""
    if not data:
        raise ValueError("no measurements")
    settings = _settings_at(temperature, settings)
    plate = build_rough_plate(
        material.plasma_frequency, material.relaxation_frequency, h, f, material.interband
    )
    d, eta_obs, sigma = np.array([(m.d, m.eta, m.sigma) for m in data]).T
    eta = np.empty_like(d)
    eta[np.argsort(d)] = eta_sweep(plate, d, settings).eta  # rows come in ascending d
    return (eta - eta_obs) / sigma


def objective(
    h: float,
    f: float,
    data: Sequence[Measurement],
    material: BulkMetal,
    temperature: float,
    settings: EvaluationSettings | None = None,
) -> float:
    """Weighted chi^2 of the two-layer model against the measurements."""
    r = residuals(h, f, data, material, temperature, settings)
    return float(r @ r)


def fit_roughness(
    data: Sequence[Measurement],
    init: tuple[float, float],
    material: BulkMetal,
    temperature: float,
    *,
    h_max: float = 100e-9,
    settings: EvaluationSettings | None = None,
    max_evaluations: int = 2000,
    h_scale: float | None = None,
) -> FitResult:
    """Fit (h, f) to reduction-factor data by projected Levenberg-Marquardt.

    ``init`` must satisfy 0 <= h <= h_max, 0 < f <= 1 and 2 h (1 - f) < min(d),
    else ``ValueError`` is raised before any evaluation, as it is when a
    finite-T ``settings`` has another temperature.  Every point tried is
    projected onto 0 <= h <= h_max, 1e-3 <= f <= 1 and
    2 h (1 - f) <= (1 - 1e-3) min(d): one margin, 1e-3, on both open edges.
    The search runs in x = (h / h_scale, f); ``h_scale`` (default h_max / 10)
    is the thickness unit of the difference step and of the fixed second
    start (h_scale, 0.5), not a bound.  Runs from ``init`` and from the fixed
    start (unless the two coincide) keep the lower chi^2.  A trial point the
    engine refuses with a typed error is rejected; such an error at ``init``
    propagates, and at the fixed start drops that run.  ``converged`` means
    the kept run passed a step and a gradient test set against eta's own
    noise, ``quad_rel_tol`` relative.  ``max_evaluations``, an integer >= 3,
    counts residual evaluations of both runs; when it runs out the best point
    so far is returned with ``converged=False``.

    The fixed-start run goes to a child made by ``os.fork`` while the first
    run goes on here, unless fork or ``os.sched_getaffinity`` is missing, this
    process may use one CPU only, another Python thread is alive, or the
    second run cannot start (the starts coincide or ``max_evaluations`` < 6).
    Either way the result is bit-identical: the child's run is used only
    where the in-order one would have gone the same way, and is repeated
    here otherwise, as it is when it raised or warned.  The child is killed
    and reaped before the call returns or raises; one that exits without a
    result raises ``RuntimeError``.
    """
    if not data:
        raise ValueError("no measurements")
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"h_max must be > 0 and finite, got {h_max}")
    if not (3 <= max_evaluations < math.inf and math.floor(max_evaluations) == max_evaluations):
        raise ValueError(f"max_evaluations must be an integer >= 3, got {max_evaluations}")
    h_scale = h_scale or max(h_max / 10.0, 1e-9)
    if not 0.0 < h_scale < math.inf:
        raise ValueError(f"h_scale must be > 0 and finite, got {h_scale}")
    h0, f0 = init
    if not 0.0 <= h0 <= h_max:
        raise ValueError("initial h must lie in [0, h_max]")
    if not 0.0 < f0 <= 1.0:
        raise ValueError("initial f must lie in (0, 1]")
    offset = 2.0 * h0 * (1.0 - f0)
    d_min = min(m.d for m in data)
    if offset >= d_min:
        raise ValueError(
            f"infeasible start (h0 = {h0:.6e} m, f0 = {f0:.6g}): the gap offset "
            f"2 h0 (1 - f0) = {offset:.6e} m must be below min(d) = {d_min:.6e} m"
        )
    settings = _settings_at(temperature, settings)
    if len(data) < 2:
        warnings.warn(
            "degenerate fit: one observation cannot determine the two parameters (h, f)",
            stacklevel=2,
        )
    noise = settings.quad_rel_tol * math.hypot(*(m.eta / m.sigma for m in data))
    step = math.sqrt(settings.quad_rel_tol)

    def project(x):
        f = min(max(x[1], _MARGIN), 1.0)
        h_top = h_max if f == 1.0 else min(h_max, (1.0 - _MARGIN) * d_min / (2.0 * (1.0 - f)))
        return np.array([min(max(x[0], 0.0), h_top / h_scale), f])

    def run_from(x, limit, dropped=()):
        """LM from ``x`` within ``limit`` evaluations: (run, evaluations, least
        budget() returned); run is None when it raised one of ``dropped``."""
        count, least = 0, math.inf

        def residual(y):
            nonlocal count
            count += 1
            return residuals(y[0] * h_scale, y[1], data, material, temperature, settings)

        def budget():
            nonlocal least
            least = min(least, limit - count)
            return limit - count

        try:
            return _levenberg_marquardt(residual, x, project, noise, step, budget), count, least
        except dropped:
            return None, count, least

    # The fixed-start run gets the evaluations the first run leaves, and only
    # if at least 3 are left.  As the first run takes at least 3, a child can
    # run it with max_evaluations - 3 before that count is known: its run is
    # the in-order one when no budget() it saw fell below the first run's
    # count, else the run is repeated here with the exact budget.
    starts = [project(np.array([h0 / h_scale, f0])), project(np.array([1.0, 0.5]))]
    second = not np.array_equal(*starts) and max_evaluations >= 6
    fork = (second and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)
    with (_forked(lambda: run_from(starts[1], max_evaluations - 3, _ENGINE_ERRORS)) if fork
          else contextlib.nullcontext()) as child_reply:
        first, evaluations, _ = run_from(starts[0], max_evaluations)
        runs = [first]
        if second and max_evaluations - evaluations >= 3:
            reply = child_reply() if child_reply else None
            if reply is None or reply[2] < evaluations:
                reply = run_from(starts[1], max_evaluations - evaluations, _ENGINE_ERRORS)
            if reply[0] is not None:
                runs.append(reply[0])
            evaluations += reply[1]
    x_best, chi2, jac, converged = min(runs, key=lambda run: run[1])
    jac = jac / np.array([h_scale, 1.0])
    curvature = jac.T @ jac
    curvature = 0.5 * (curvature + curvature.T)
    s2 = chi2 / (len(data) - 2) if len(data) > 2 else math.nan
    a, b, c = curvature[0, 0], curvature[0, 1], curvature[1, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        covariance = s2 / (a * c - b * b) * np.array([[c, -b], [-b, a]])
    return FitResult(
        h=float(x_best[0] * h_scale),
        f=float(x_best[1]),
        chi2=chi2,
        n_evaluations=evaluations,
        converged=converged,
        h_f_covariance_proxy=2.0 * curvature,
        covariance=covariance,
    )


@contextlib.contextmanager
def _forked(work):
    """Run ``work()`` in a forked child; yields a function that returns its
    value, or None when it raised or warned (the caller then repeats the work
    to raise or warn itself).  Yields None if no child can be made.  The
    child is killed and reaped when the block exits."""
    import signal  # only where a child is made: the CLI never needs it

    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs the work itself
        os.close(read_fd)
        os.close(write_fd)
        yield None
        return
    if pid == 0:  # the child sends its pickled value, or None, and never returns
        try:
            os.close(read_fd)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    value = work()
                message = pickle.dumps(None if caught else value)
            except Exception:
                message = pickle.dumps(None)
            with open(write_fd, "wb") as pipe:
                pipe.write(message)
        finally:
            os._exit(0)
    os.close(write_fd)

    def reply():
        with open(read_fd, "rb", closefd=False) as pipe:
            message = pipe.read()
        if not message:
            raise RuntimeError(f"fit child process {pid} exited without sending its result")
        return pickle.loads(message)

    try:
        yield reply
    finally:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _jacobian(residual, x, r, project, step):
    """Forward-difference Jacobian of ``residual`` at ``x`` in two evaluations;
    a step that the projection would alter goes inward instead."""
    jac = np.empty((len(r), 2))
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = step
        if not np.array_equal(project(x + dx), x + dx):
            dx = -dx
        jac[:, i] = (residual(x + dx) - r) / dx[i]
    return jac


def _levenberg_marquardt(residual, x, project, noise, step, budget):
    """Projected Levenberg-Marquardt from the feasible ``x``; returns
    (x, chi2, J, converged).

    Errors at ``x`` propagate; a trial whose residual or Jacobian raises an
    engine error is rejected.  A trial costs one evaluation, and an accepted
    one two more, so trials run only while ``budget()`` >= 3.  A coordinate
    held at a bound against the gradient stays.  Converged: the step s
    passes |J s|^2 <= 2 |r| noise + noise^2 (its predicted change of chi^2
    is within chi^2's noise), and every free coordinate passes
    |J_i^T r| <= |J_i| (noise + step |r|) + (noise / step) |r|: ``step`` is
    the relative truncation error of the forward differences and noise / step
    their rounding error.
    """
    r = residual(x)
    jac = _jacobian(residual, x, r, project, step)
    lam = _LAMBDA_START
    while lam <= _LAMBDA_MAX:
        chi2 = float(r @ r)
        grad = jac.T @ r
        free = np.array([project(x - step * np.sign(grad[i]) * np.eye(2)[i])[i] != x[i]
                         for i in range(2)])
        curvature = jac.T @ jac
        scale = np.maximum(np.diag(curvature), _LEVENBERG_FLOOR * np.trace(curvature))
        p = np.zeros(2)
        block = np.ix_(free, free)
        p[free] = np.linalg.solve(curvature[block] + lam * np.diag(scale[free]), -grad[free])
        trial = project(x + p)
        r_norm = math.sqrt(chi2)
        small_step = np.sum((jac @ (trial - x)) ** 2) <= 2.0 * r_norm * noise + noise**2
        small_grad = np.all(np.abs(grad[free]) <= np.linalg.norm(jac[:, free], axis=0)
                            * (noise + step * r_norm) + noise / step * r_norm)
        if small_step and small_grad:
            return x, chi2, jac, True
        if budget() < 3:
            break
        try:
            r_trial = residual(trial)
            if r_trial @ r_trial < chi2:
                jac = _jacobian(residual, trial, r_trial, project, step)
                x, r = trial, r_trial
                lam /= 10.0
                continue
        except _ENGINE_ERRORS:
            pass
        lam *= 10.0
    return x, float(r @ r), jac, False
