"""Least-squares estimation of the rough-layer parameters (h, f).

The reduction factor predicted by the two-layer model is compared with
measured (d, eta) pairs through an unweighted (or sigma-weighted) chi^2,
minimized by a derivative-free Nelder-Mead simplex in transformed
coordinates that respect the parameter domains: a logistic transform keeps
the fill fraction inside (0, 1) and a softplus transform keeps the layer
thickness positive, with a smooth penalty above the requested h ceiling.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO, Union

import numpy as np
from scipy.special import expit, logit

from .engine import EvaluationSettings, eta_sweep
from .materials import BulkMetal, build_rough_plate

_PENALTY = 1e6


@dataclass(frozen=True)
class Measurement:
    """One reduction-factor observation at average separation ``d`` (m)."""

    d: float
    eta: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise ValueError("d must be > 0")
        if not self.eta > 0.0:
            raise ValueError("eta must be > 0")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be > 0")


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted rough-layer parameters and bookkeeping.

    ``h_f_covariance_proxy`` is the finite-difference Hessian of chi^2 at the
    optimum (a curvature estimate, not a calibrated covariance).
    """

    h: float
    f: float
    chi2: float
    n_evaluations: int
    converged: bool
    h_f_covariance_proxy: np.ndarray

    def to_dict(self) -> dict:
        return {
            "h_m": self.h,
            "f": self.f,
            "chi2": self.chi2,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "h_f_covariance_proxy": np.asarray(self.h_f_covariance_proxy).tolist(),
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


def objective(
    h: float,
    f: float,
    data: Sequence[Measurement],
    material: BulkMetal,
    temperature: float,
    settings: EvaluationSettings | None = None,
) -> float:
    """Weighted chi^2 of the two-layer model against the measurements."""
    if not data:
        raise ValueError("no measurements")
    settings = settings or EvaluationSettings(temperature=temperature)
    plate = build_rough_plate(
        material.plasma_frequency, material.relaxation_frequency, h, f, material.interband
    )
    order = np.argsort([m.d for m in data])
    table = eta_sweep(plate, [data[i].d for i in order], settings)
    chi2 = 0.0
    for row, i in enumerate(order):
        chi2 += ((table.eta[row] - data[i].eta) / data[i].sigma) ** 2
    return chi2


def _softplus(x: float) -> float:
    return x + math.log1p(math.exp(-x)) if x > 0 else math.log1p(math.exp(x))


def _inv_softplus(y: float) -> float:
    # log(expm1(y)), stable for large y
    return y + math.log(-math.expm1(-y)) if y > 30 else math.log(math.expm1(y))


def _nelder_mead(fun, x0, step, xtol, frel, fabs, max_evaluations):
    """Minimal deterministic Nelder-Mead with the convergence contract used here.

    Converged when the simplex diameter drops below ``xtol`` relative to the
    coordinate scale and the function spread is below ``frel`` relative (with
    ``fabs`` as an absolute floor for exact-zero minima).
    """
    n = len(x0)
    simplex = [np.array(x0, dtype=float)]
    for i in range(n):
        vertex = np.array(x0, dtype=float)
        vertex[i] += step
        simplex.append(vertex)
    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return fun(x)

    fvals = [call(v) for v in simplex]

    while True:
        order = np.argsort(fvals, kind="stable")
        simplex = [simplex[i] for i in order]
        fvals = [fvals[i] for i in order]

        scale = 1.0 + np.abs(simplex[0])
        diameter = max(np.max(np.abs(v - simplex[0]) / scale) for v in simplex[1:])
        spread = fvals[-1] - fvals[0]
        if diameter < xtol and spread <= frel * abs(fvals[0]) + fabs:
            return simplex[0], fvals[0], evals, True
        if evals >= max_evaluations:
            return simplex[0], fvals[0], evals, False

        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = call(reflected)
        if f_r < fvals[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = call(expanded)
            if f_e < f_r:
                simplex[-1], fvals[-1] = expanded, f_e
            else:
                simplex[-1], fvals[-1] = reflected, f_r
        elif f_r < fvals[-2]:
            simplex[-1], fvals[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_c = call(contracted)
            if f_c < fvals[-1]:
                simplex[-1], fvals[-1] = contracted, f_c
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = call(simplex[i])


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
    """Fit (h, f) to reduction-factor data by bounded Nelder-Mead descent.

    ``init`` must lie inside the bounds h in [0, h_max], f in (0, 1].  The
    search runs in transformed coordinates (softplus for h, logistic for f);
    ``h_scale`` sets the thickness unit of the softplus transform and only
    affects step sizes, not the optimum.  When the evaluation budget runs out
    the best point so far is returned with ``converged=False``.
    """
    if not data:
        raise ValueError("no measurements")
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
    if len(data) < 2:
        warnings.warn(
            "degenerate fit: one observation cannot determine the two parameters (h, f)",
            stacklevel=2,
        )
    settings = settings or EvaluationSettings(temperature=temperature)
    h_scale = h_scale or max(h_max / 10.0, 1e-9)

    def unpack(x):
        h = h_scale * _softplus(x[0])
        f = float(expit(x[1]))
        return h, f

    def penalized(x):
        h, f = unpack(x)
        value = objective(h, f, data, material, temperature, settings)
        if h > h_max:
            value += _PENALTY * ((h - h_max) / h_scale) ** 2
        return value

    x0 = np.array([
        _inv_softplus(max(h0, 1e-6 * h_scale) / h_scale),
        float(logit(min(f0, 1.0 - 1e-12))),
    ])
    x_best, chi2, n_evals, converged = _nelder_mead(
        penalized, x0, step=0.3, xtol=1e-3, frel=1e-6, fabs=1e-18,
        max_evaluations=max_evaluations,
    )
    h_fit, f_fit = unpack(x_best)

    hessian, hess_evals = _chi2_curvature(
        h_fit, f_fit, data, material, temperature, settings, h_max
    )
    return FitResult(
        h=h_fit,
        f=f_fit,
        chi2=chi2,
        n_evaluations=n_evals + hess_evals,
        converged=converged,
        h_f_covariance_proxy=hessian,
    )


def _chi2_curvature(h, f, data, material, temperature, settings, h_max):
    """Finite-difference Hessian of chi^2 at (h, f), with boundary-safe steps."""
    dh = min(max(2e-11, 0.002 * h_max), 0.5 * h) if h > 0 else max(2e-11, 0.002 * h_max)
    df = min(1e-3, 0.5 * (1.0 - f) if f < 1.0 else 1e-3, 0.5 * f)
    if df <= 0.0:
        df = 1e-6
    evals = 0

    def chi(hh, ff):
        nonlocal evals
        evals += 1
        return objective(max(hh, 0.0), min(max(ff, 1e-12), 1.0), data, material, temperature, settings)

    center = chi(h, f)
    d2h = (chi(h + dh, f) - 2.0 * center + chi(max(h - dh, 0.0), f)) / dh**2
    d2f = (chi(h, f + df) - 2.0 * center + chi(h, f - df)) / df**2
    cross = (
        chi(h + dh, f + df) - chi(h + dh, f - df)
        - chi(max(h - dh, 0.0), f + df) + chi(max(h - dh, 0.0), f - df)
    ) / (4.0 * dh * df)
    return np.array([[d2h, cross], [cross, d2f]]), evals
