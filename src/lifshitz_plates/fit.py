"""Least-squares estimation of the rough-layer parameters (h, f).

The two-layer model's reduction factor is compared with measured (d, eta)
pairs through the weighted residuals r = (eta_model - eta_obs) / sigma, and
chi^2 = |r|^2 is minimized by projected Levenberg-Marquardt in
x = (h / h_scale, f), where h_scale = max(h_max / 10, 1 nm).  Every point
tried lies in the parameter domain and inside the feasibility bound
2 h (1 - f) < min(d), so every gap a = d - 2 h (1 - f) is positive.  Each
Jacobian differences the engine's planned evaluation on the plan of the
point's full sweep, a smooth function of (h, f); that sweep also gives its
value at the point.  A second run from a fixed start escapes the basin near
f -> 0, where the layer acts almost like vacuum; each run has its own
evaluation budget.  Where the process may fork, may use two CPUs and runs
one Python thread, that run goes to a forked child while the first runs
here; the result is bit-identical to running both here, one after the other.
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

from .engine import EvaluationSettings, MatsubaraTruncationError, QuadratureBudgetError, _sweep
from .materials import BulkMetal, RoughPlateSpec

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
    Jacobian J of the kept run, on its last point's plan, at no extra evaluations.
    ``h_f_covariance_proxy`` is 2 J^T J, the Gauss-Newton curvature of chi^2.
    ``covariance`` is s^2 (J^T J)^-1 with s^2 = chi^2 / (N - 2); its entries
    are non-finite when J^T J is singular (as at h = 0) or N <= 2.
    ``residuals`` are the weighted residuals at (h, f), in the data's order.
    """

    h: float
    f: float
    chi2: float
    n_evaluations: int
    converged: bool
    h_f_covariance_proxy: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray

    def to_dict(self) -> dict:
        """Every field but ``residuals``, JSON-ready: a non-finite matrix entry is ``None``."""
        def finite(matrix):
            return [[v if math.isfinite(v) else None for v in row] for row in matrix.tolist()]
        return {
            "h_m": self.h,
            "f": self.f,
            "chi2": self.chi2,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "h_f_covariance_proxy": finite(np.asarray(self.h_f_covariance_proxy)),
            "covariance": finite(np.asarray(self.covariance)),
        }


_D_UNITS = {"d_um": -6, "d_nm": -9}  # decimal exponent of each separation unit


def _shifted(number: str, exponent: int):
    """The decimal text ``number`` times 10**``exponent``, exactly.  The shift
    runs in its own context, so the caller's decimal precision cannot round it
    and no exponent a float can hold traps."""
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    return decimal.Decimal(number).scaleb(exponent, exact)


def load_measurements(source: Union[str, Path, TextIO]) -> list[Measurement]:
    """Parse measurements from CSV text with columns d_um|d_nm, eta[, sigma].

    ``source`` may be a path, an open text stream, or the literal CSV content
    (any string containing a newline); one leading byte-order mark, as in
    Excel's "CSV UTF-8", is dropped.  Rows are returned ascending in d;
    duplicate separations are rejected.  d is shifted to metres in decimal, so
    it is the float nearest the cell's value and a dumped d loads back exactly.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and "\n" in source:
        text = source
    else:
        text = Path(source).read_text()
    text = text.removeprefix("\ufeff")

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
    exponent = _D_UNITS[d_cols[0]]

    measurements = []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        try:
            d = values[0]
            if d != 0.0 and math.isfinite(d):  # Measurement refuses the rest as parsed
                d = float(_shifted(row[0], exponent))
            measurements.append(Measurement(d, *values[1:]))
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
    """Serialize measurements as CSV, d as its shortest repr shifted to ``unit``;
    inverse of :func:`load_measurements`."""
    if unit not in _D_UNITS:
        raise ValueError(f"unknown unit suffix {unit!r}; use d_um or d_nm")
    exponent = _D_UNITS[unit]
    weighted = any(m.sigma != 1.0 for m in measurements)
    lines = [f"{unit},eta" + (",sigma" if weighted else "")]
    for m in measurements:
        record = f"{_shifted(repr(float(m.d)), -exponent):f},{m.eta:.17g}"
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
    return _evaluate(h, f, data, material, _settings_at(temperature, settings))[0]


def _evaluate(h, f, data, material, settings, plan=None, gather=False):
    """(:func:`residuals`, the sweep's plan); given a ``plan``, the residuals
    of the engine's planned evaluation on it instead, and that plan.  With
    ``gather``, third the planned evaluation's residuals on the plan returned
    (see ``_sweep``): a fit gathers on each full sweep."""
    plate = RoughPlateSpec(material, h, f)
    d, eta_obs, sigma = np.array([(m.d, m.eta, m.sigma) for m in data]).T
    table, plan, *gauss = _sweep(plate, d, settings, plan, gather)
    eta = np.empty((1 + len(gauss), len(d)))
    eta[:, np.argsort(d)] = [table.eta, *gauss]  # rows come in ascending d
    r = (eta - eta_obs) / sigma
    return (r[0], plan, *r[1:])


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
) -> FitResult:
    """Fit (h, f) to reduction-factor data by projected Levenberg-Marquardt.

    ``init`` must satisfy 0 <= h <= h_max, 0 < f <= 1 and 2 h (1 - f) < min(d),
    else ``ValueError`` is raised before any evaluation, as it is when a
    finite-T ``settings`` has another temperature.  Every point tried is
    projected onto 0 <= h <= h_max, 1e-3 <= f <= 1 and
    2 h (1 - f) <= (1 - 1e-3) min(d): one margin, 1e-3, on both open edges.
    The search runs in x = (h / h_scale, f), where h_scale = h_max / 10, at
    least 1 nm, is the thickness unit of the difference step and of the fixed
    second start (h_scale, 0.5), not a bound.  Runs from ``init`` and from the
    fixed start (unless the two coincide) keep the lower chi^2.  A trial point the
    engine refuses with a typed error is rejected; such an error at ``init``
    propagates, and at the fixed start drops that run.  ``converged`` means
    the kept run passed a step and a gradient test set against eta's own
    noise, ``quad_rel_tol`` relative.  ``max_evaluations``, an integer >= 3,
    caps each run's evaluations: its start, trials and Jacobian columns
    (``n_evaluations`` counts both runs).  A run that uses it up ends at its
    best point so far, unconverged.

    The fixed-start run goes to a child made by ``os.fork`` while the first
    run goes on here, unless fork or ``os.sched_getaffinity`` is missing, this
    process may use one CPU only, another Python thread is alive, or the
    starts coincide.  Either way the result is bit-identical: the child's run
    is the in-order one, and is repeated here only when it raised or warned.
    The child is killed and reaped before the call returns or raises; one
    that exits without a result raises ``RuntimeError``.
    """
    if not data:
        raise ValueError("no measurements")
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"h_max must be > 0 and finite, got {h_max}")
    if not (3 <= max_evaluations < math.inf and math.floor(max_evaluations) == max_evaluations):
        raise ValueError(f"max_evaluations must be an integer >= 3, got {max_evaluations}")
    h_scale = max(h_max / 10.0, 1e-9)
    h0, f0 = init
    if not 0.0 <= h0 <= h_max:
        raise ValueError(f"initial h must lie in [0, h_max]: h0 = {float(h0)!r} m, "
                         f"h_max = {float(h_max)!r} m")
    if not 0.0 < f0 <= 1.0:
        raise ValueError(f"initial f must lie in (0, 1]: f0 = {float(f0)!r}")
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

    def run_from(x, dropped=()):
        """LM from ``x``: (run, evaluations); run is None if it raised one of ``dropped``."""
        count = 0

        def evaluate(y, plan=None):
            nonlocal count
            count += 1
            return _evaluate(y[0] * h_scale, y[1], data, material, settings, plan, plan is None)

        try:
            return _levenberg_marquardt(evaluate, x, project, noise, step,
                                        lambda: max_evaluations - count), count
        except dropped:
            return None, count

    starts = [project(np.array([h0 / h_scale, f0])), project(np.array([1.0, 0.5]))]
    second = not np.array_equal(*starts)
    fork = (second and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)
    with (_forked(lambda: run_from(starts[1], _ENGINE_ERRORS)) if fork
          else contextlib.nullcontext()) as child_reply:
        replies = [run_from(starts[0])]
        if second:
            reply = child_reply() if child_reply else None
            replies.append(reply or run_from(starts[1], _ENGINE_ERRORS))
    runs = [run for run, _ in replies if run is not None]
    x_best, chi2, jac, converged, r = min(runs, key=lambda run: run[1])
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
        n_evaluations=sum(count for _, count in replies),
        converged=converged,
        h_f_covariance_proxy=2.0 * curvature,
        covariance=covariance,
        residuals=r,
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


def _jacobian(evaluate, x, plan, base, project, step):
    """Forward differences (F(x + step e_i) - F(x)) / step of the planned
    evaluation F on ``plan``, the full sweep's plan at ``x``, which gave
    ``base`` = F(x): two evaluations.  F is smooth, so no column sees a jump in
    truncation or rule levels.  A step the projection would alter goes inward."""
    jac = np.empty((len(base), 2))
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = step
        if not np.array_equal(project(x + dx), x + dx):
            dx = -dx
        jac[:, i] = (evaluate(x + dx, plan)[0] - base) / dx[i]
    return jac


def _levenberg_marquardt(evaluate, x, project, noise, step, budget):
    """Projected Levenberg-Marquardt from the feasible ``x``; returns
    (x, chi2, J, converged, r), with r the residuals at x.  ``evaluate(y)``
    gives the residuals at y from a full sweep, its plan, and the planned
    residuals on it, F(y), from which :func:`_jacobian` forms J;
    ``evaluate(y, plan)`` gives the planned residuals on ``plan`` and that plan.

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
    r, plan, base = evaluate(x)
    jac = _jacobian(evaluate, x, plan, base, project, step)
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
            return x, chi2, jac, True, r
        if budget() < 3:
            break
        try:
            r_trial, plan, base = evaluate(trial)
            if r_trial @ r_trial < chi2:
                jac = _jacobian(evaluate, trial, plan, base, project, step)
                x, r = trial, r_trial
                lam /= 10.0
                continue
        except _ENGINE_ERRORS:
            pass
        lam *= 10.0
    return x, float(r @ r), jac, False, r
