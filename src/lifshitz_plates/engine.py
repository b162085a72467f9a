"""Finite-temperature Casimir pressure between identical stratified plates.

The pressure is a Matsubara sum over imaginary frequencies xi_l = 2 pi k_B T
l / hbar (the l = 0 term carries weight one half) of a transverse-wavenumber
integral over both polarizations:

    P = (k_B T / pi) sum_l' integral dk k q_l sum_pol [exp(2 a q_l)/r^2 - 1]^-1

with q_l = sqrt(k^2 + xi_l^2/c^2).  The k integral is evaluated in the scaled
variable u = 2 a q_l, where the integrand decays like u^2 exp(-u) uniformly
in l, so every Matsubara term shares one panel layout and whole blocks of
terms are integrated in single vectorized operations.  An independent
integration route in the raw k variable (scipy QUADPACK) is kept as an
internal cross-check.

Sign convention: the returned pressure is the positive magnitude of the
attraction, so the reduction factor P / P_id matches the usual plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._quad import DEFAULT_EDGES, DEFAULT_RULE, PanelRule
from .constants import CONSTANTS, PhysicalConstants  # re-exported
from .materials import RoughPlateSpec
from .stack import LayerStack, _reflection, _static_reflection, as_layer_stack

Plate = Union[RoughPlateSpec, LayerStack]

_MAX_REFINEMENTS = 6
_BLOCK = 64

# T = 0 rules, both ending on the default ladder from 1.5 to 60.  Outer, in
# v = 2 a xi / c: panels graded geometrically towards v = 0, where the Drude TE
# response varies on the scale 2 a gamma / c.  Inner, in u - v: graded towards
# the light line u = v, near which the TE reflection at such low frequencies
# changes fastest.
_T0_OUTER_RULE = PanelRule.from_edges(
    np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 9), DEFAULT_EDGES[2:]]))
_T0_INNER_RULE = PanelRule.from_edges(
    np.concatenate([[0.0], np.geomspace(1e-4, 0.5, 6), DEFAULT_EDGES[2:]]))


class MatsubaraTruncationError(RuntimeError):
    """Raised when the Matsubara sum fails to converge within ``l_max`` terms."""

    def __init__(self, partial_pressure: float, l_reached: int):
        self.partial_pressure = partial_pressure
        self.l_reached = l_reached
        super().__init__(
            f"Matsubara sum not converged after l = {l_reached} terms; "
            f"partial pressure {partial_pressure:.9e} Pa"
        )


class QuadratureBudgetError(RuntimeError):
    """Raised when panel refinement stops after ``_MAX_REFINEMENTS`` splits
    with the Kronrod-Gauss error estimate still above its target."""

    def __init__(self, a: float, frequency: str, estimate: float, target: float):
        self.gap = a
        self.estimate = estimate
        self.target = target
        super().__init__(
            f"quadrature not converged after {_MAX_REFINEMENTS} refinements at gap "
            f"a = {a:.6e} m, {frequency}: error estimate {estimate:.3e} > target {target:.3e}"
        )


@dataclass(frozen=True)
class EvaluationSettings:
    """Numerical policy for one pressure evaluation."""

    temperature: float = 300.0          # K
    quad_rel_tol: float = 1e-9
    sum_rel_tol: float = 1e-10
    consecutive_small_terms: int = 3
    l_max: int = 5000
    zero_temperature: bool = False

    def __post_init__(self) -> None:
        for name in ("quad_rel_tol", "sum_rel_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3]")
        if self.consecutive_small_terms < 1:
            raise ValueError("consecutive_small_terms must be >= 1")
        if self.l_max < 1:
            raise ValueError("l_max must be >= 1")
        if not self.zero_temperature and not self.temperature > 0.0:
            raise ValueError("temperature must be > 0 unless zero_temperature is set")


class PolarizedTerm(NamedTuple):
    """Additive contribution of one Matsubara term to the pressure, by polarization."""

    te: float
    tm: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Columns of one reduction-factor sweep, ascending in average separation."""

    d: np.ndarray                # average separation, m
    a: np.ndarray                # gap, m
    pressure: np.ndarray         # Pa
    pressure_ideal: np.ndarray   # Pa
    eta: np.ndarray              # dimensionless

    def __post_init__(self) -> None:
        n = len(self.d)
        if any(len(col) != n for col in (self.a, self.pressure, self.pressure_ideal, self.eta)):
            raise ValueError("all sweep columns must have equal length")
        if np.any(np.diff(self.d) <= 0.0):
            raise ValueError("separations must be strictly increasing")

    def rows(self):
        for i in range(len(self.d)):
            yield (self.d[i], self.a[i], self.pressure[i], self.pressure_ideal[i], self.eta[i])


def matsubara_frequency(l, temperature: float):
    """xi_l = 2 pi k_B T l / hbar (rad/s); l may be an integer array."""
    l_arr = np.asarray(l)
    if np.any(l_arr < 0):
        raise ValueError("Matsubara index must be >= 0")
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0")
    xi = 2.0 * np.pi * CONSTANTS.k_B * temperature * l_arr / CONSTANTS.hbar
    return float(xi) if np.ndim(l) == 0 else xi


def ideal_pressure(d: float) -> float:
    """Zero-temperature perfect-reflector pressure pi^2 hbar c / (240 d^4)."""
    if not d > 0.0:
        raise ValueError("separation must be > 0")
    return math.pi**2 * CONSTANTS.hbar * CONSTANTS.c / (240.0 * d**4)


def reduction_factor(pressure_value: float, d: float) -> float:
    """eta = P / P_id at the same average separation."""
    return pressure_value / ideal_pressure(d)


def average_separation(a: float, layer_thickness: float, fill_factor: float) -> float:
    """Average plate separation d = a + 2 h (1 - f) of the rough-plate model."""
    if not a > 0.0:
        raise ValueError("gap must be > 0")
    return a + 2.0 * layer_thickness * (1.0 - fill_factor)


def gap_from_average(d: float, layer_thickness: float, fill_factor: float) -> float:
    """Invert the average-separation mapping: a = d - 2 h (1 - f)."""
    offset = 2.0 * layer_thickness * (1.0 - fill_factor)
    if d <= offset:
        raise ValueError(
            f"average separation d = {d:.6e} m must exceed 2 h (1 - f) = {offset:.6e} m"
        )
    return d - offset


# ----------------------------------------------------------------------
# scaled-variable quadrature of one block of Matsubara terms

def _panel_sums(U, rule: PanelRule, reflection):
    """Panel sums of u^2 g/(1-g), g = r^2 exp(-u), for both polarizations.

    ``reflection(pol)`` gives r at the nodes ``U``.  Returns (I_te, I_tm, err);
    err is the summed Kronrod-Gauss error estimate of both polarizations.
    """
    decay = np.exp(-U)
    out = []
    err = 0.0
    for pol in ("TE", "TM"):
        r = reflection(pol)
        g = r * r * decay
        f = U * U * g / (1.0 - g)
        out.append(f @ rule.weights)
        err = err + np.abs(f @ rule.error_weights)
    return out[0], out[1], err


def _pol_integrals(stack: LayerStack, a: float, xi: np.ndarray, rule: PanelRule):
    """Integrals of u^2 g/(1-g) over u for each xi (>0) and polarization.

    Returns (I_te, I_tm, err) arrays of shape (len(xi),).
    """
    u0 = (2.0 * a / CONSTANTS.c) * xi
    U = u0[:, None] + rule.nodes[None, :]
    K = np.sqrt(np.maximum(U * U - (u0 * u0)[:, None], 0.0)) / (2.0 * a)
    return _panel_sums(U, rule, lambda pol: _reflection(stack, pol, xi[:, None], K))


def _pol_integrals_zero(stack: LayerStack, a: float, rule: PanelRule):
    """Same as :func:`_pol_integrals` for the xi = 0 term (analytic limits), as floats."""
    U = rule.nodes
    K = U / (2.0 * a)
    te, tm, err = _panel_sums(U, rule, lambda pol: _static_reflection(stack, pol, K))
    return float(te), float(tm), float(err)


def _block_terms_scaled(stack, a, ls, temperature, quad_rel_tol, scale_hint):
    """Pressure-sum integrands for Matsubara indices ``ls`` with panel refinement.

    The l = 0 term, when ``ls`` starts with it, goes to the analytic limits.
    """
    zero = ls[0] == 0
    xi = matsubara_frequency(ls[1:] if zero else ls, temperature)
    rule = DEFAULT_RULE
    for _ in range(_MAX_REFINEMENTS + 1):
        # a lone l = 0 term has no positive frequencies to integrate
        te, tm, err = _pol_integrals(stack, a, xi, rule) if len(xi) else ((), (), 0.0)
        err_total = float(np.sum(err))
        if zero:
            te0, tm0, err0 = _pol_integrals_zero(stack, a, rule)
            te = np.concatenate([[te0], te])
            tm = np.concatenate([[tm0], tm])
            err_total += err0
        block_sum = float(np.sum(te) + np.sum(tm))
        scale = max(abs(scale_hint), abs(block_sum))
        target = 0.25 * quad_rel_tol * scale
        if err_total <= target or scale == 0.0:
            return te, tm
        rule = rule.refined()
    xi = matsubara_frequency(np.array([ls[0], ls[-1]]), temperature)
    raise QuadratureBudgetError(
        a, f"Matsubara block l = {ls[0]}..{ls[-1]} (xi = {xi[0]:.6e}..{xi[1]:.6e} rad/s)",
        err_total, target)


def _kperp_term(stack, a, l, temperature, quad_rel_tol):
    """One Matsubara term integrated in the raw k variable (QUADPACK).

    Slow independent route kept as an internal oracle for the scaled-variable
    quadrature.
    """
    from scipy import integrate

    xi = matsubara_frequency(l, temperature)
    out = []
    for pol in ("TE", "TM"):
        def integrand(t: float) -> float:
            # t = 2 a k restores an O(1) decay scale for QUADPACK
            k = 0.5 * t / a
            q = math.sqrt(k * k + (xi / CONSTANTS.c) ** 2)
            if l == 0:
                r = _static_reflection(stack, pol, np.asarray(k))
            else:
                r = _reflection(stack, pol, np.asarray(xi), np.asarray(k))
            arg = 2.0 * a * q
            g = float(r) ** 2 * (math.exp(-arg) if arg < 700.0 else 0.0)
            return k * q * g / (1.0 - g)

        val, _ = integrate.quad(integrand, 0.0, 60.0, epsabs=0.0,
                                epsrel=quad_rel_tol, limit=200)
        # account for dk = dt/(2a) and the scaled-variable normalization 8 a^3
        out.append(4.0 * a**2 * val)
    return np.array([out[0]]), np.array([out[1]])


def _sum_terms(stack, a, settings: EvaluationSettings, term_blocks) -> tuple[float, float, float]:
    """Run the primed Matsubara sum with the truncation policy.

    ``term_blocks(ls, scale_hint)`` returns (te, tm) integrand arrays for the
    requested indices.  Returns (sum, te0, tm0) where the l = 0 integrals are
    reported separately (already half-weighted in the sum).
    """
    total = 0.0
    te0 = tm0 = 0.0
    streak = 0
    l = 0
    while l <= settings.l_max:
        ls = np.arange(l, min(l + _BLOCK, settings.l_max + 1))
        te, tm = term_blocks(ls, total)
        for i, li in enumerate(ls):
            term = float(te[i] + tm[i])
            if li == 0:
                te0, tm0 = float(te[i]), float(tm[i])
                total += 0.5 * term
                continue
            total += term
            if abs(term) < settings.sum_rel_tol * abs(total):
                streak += 1
                if streak >= settings.consecutive_small_terms:
                    return total, te0, tm0
            else:
                streak = 0
        l = int(ls[-1]) + 1
    prefactor = _pressure_prefactor(a, settings.temperature)
    raise MatsubaraTruncationError(prefactor * total, settings.l_max)


def _pressure_prefactor(a: float, temperature: float) -> float:
    # k_B T / pi restated for the u = 2 a q variable: one factor 1/(8 a^3)
    return CONSTANTS.k_B * temperature / (8.0 * math.pi * a**3)


def pressure(
    plate: Plate,
    a: float,
    settings: EvaluationSettings | None = None,
    *,
    integration_variable: str = "u",
) -> float:
    """Casimir pressure magnitude (Pa) between two identical plates at gap ``a``.

    ``integration_variable`` selects the transverse-momentum integration
    route: the scaled variable ``"u"`` (default, vectorized) or the raw
    ``"kperp"`` (QUADPACK; slow, used as an independent cross-check).
    """
    settings = settings or EvaluationSettings()
    if not a > 0.0:
        raise ValueError("gap must be > 0")
    if settings.zero_temperature:
        return pressure_zero_temperature(plate, a, settings)
    stack = as_layer_stack(plate)

    if integration_variable == "u":
        def term_blocks(ls, scale_hint):
            return _block_terms_scaled(stack, a, ls, settings.temperature,
                                       settings.quad_rel_tol, scale_hint)
    elif integration_variable == "kperp":
        def term_blocks(ls, scale_hint):
            te = np.empty(len(ls))
            tm = np.empty(len(ls))
            for i, li in enumerate(ls):
                te[i:i + 1], tm[i:i + 1] = _kperp_term(
                    stack, a, int(li), settings.temperature, settings.quad_rel_tol)
            return te, tm
    else:
        raise ValueError("integration_variable must be 'u' or 'kperp'")

    total, _, _ = _sum_terms(stack, a, settings, term_blocks)
    return _pressure_prefactor(a, settings.temperature) * total


def matsubara_pressure_term(
    plate: Plate, a: float, l: int, settings: EvaluationSettings | None = None
) -> PolarizedTerm:
    """Additive contribution of Matsubara term ``l`` to the pressure (Pa).

    The l = 0 term is returned with its weight one half already applied, so
    the reported values are exactly what enters the sum.  For Drude-bulk
    plates the l = 0 TE entry is an exact zero, not merely a small number.
    The term is refined until its Kronrod-Gauss error estimate is <= 0.25
    ``quad_rel_tol`` times its value, as in :func:`pressure`; raises
    :class:`QuadratureBudgetError` when that fails after ``_MAX_REFINEMENTS``
    splits.
    """
    settings = settings or EvaluationSettings()
    if l < 0:
        raise ValueError("Matsubara index must be >= 0")
    te, tm = _block_terms_scaled(as_layer_stack(plate), a, [l], settings.temperature,
                                 settings.quad_rel_tol, 0.0)
    prefactor = (0.5 if l == 0 else 1.0) * _pressure_prefactor(a, settings.temperature)
    return PolarizedTerm(te=prefactor * float(te[0]), tm=prefactor * float(tm[0]))


def _t0_integrand(stack: LayerStack, a: float, v: np.ndarray, quad_rel_tol: float) -> np.ndarray:
    """Sum over polarizations of the u integrals at each v = 2 a xi / c (> 0).

    Every integral meets err <= 0.25 quad_rel_tol |F(v)|; only the frequencies
    that miss it are integrated again on a refined rule.
    """
    xi = (0.5 * CONSTANTS.c / a) * v
    values = np.empty(len(v))
    todo = np.arange(len(v))
    rule = _T0_INNER_RULE
    for _ in range(_MAX_REFINEMENTS + 1):
        err = np.empty(len(todo))
        for start in range(0, len(todo), _BLOCK):
            idx = todo[start:start + _BLOCK]
            te, tm, err[start:start + _BLOCK] = _pol_integrals(stack, a, xi[idx], rule)
            values[idx] = te + tm
        target = 0.25 * quad_rel_tol * np.abs(values[todo])
        missed = (err > target) & (values[todo] != 0.0)
        if not missed.any():
            return values
        todo, err, target = todo[missed], err[missed], target[missed]
        rule = rule.refined()
    worst = int(np.argmax(err / target))
    i = todo[worst]
    raise QuadratureBudgetError(
        a, f"xi = {xi[i]:.6e} rad/s (v = 2 a xi / c = {v[i]:.6e})", err[worst], target[worst])


def pressure_zero_temperature(
    plate: Plate, a: float, settings: EvaluationSettings | None = None
) -> float:
    """Zero-temperature Casimir pressure: the Matsubara sum becomes an integral.

    k_B T sum_l' -> (hbar / 2 pi) integral dxi.  In v = 2 a xi / c the
    integrand is the sum over polarizations of the same u integrals the
    finite-T sum uses, and it decays like exp(-v).  The v integral is a
    Gauss-Kronrod panel rule on [0, 60] graded towards v = 0, every node's u
    integral one row of a vectorized block.  The v integral is accepted when
    its Kronrod-Gauss estimate is <= ``quad_rel_tol`` times its value (else
    every v panel is split), and each u integral when its estimate is
    <= 0.25 ``quad_rel_tol`` times its value (else only that node is refined).
    The open rules never sample v = 0.  Raises :class:`QuadratureBudgetError`
    when either check still fails after ``_MAX_REFINEMENTS`` splits.
    """
    settings = settings or EvaluationSettings()
    if not a > 0.0:
        raise ValueError("gap must be > 0")
    stack = as_layer_stack(plate)
    tol = settings.quad_rel_tol
    rule = _T0_OUTER_RULE
    for _ in range(_MAX_REFINEMENTS + 1):
        f = _t0_integrand(stack, a, rule.nodes, tol)
        val = float(f @ rule.weights)
        err = abs(float(f @ rule.error_weights))
        if err <= tol * abs(val) or val == 0.0:
            return CONSTANTS.hbar * CONSTANTS.c / (32.0 * math.pi**2 * a**4) * val
        rule = rule.refined()
    raise QuadratureBudgetError(a, "integral over v = 2 a xi / c in [0, 60]", err, tol * abs(val))


def _plate_offsets(plate: Plate) -> tuple[float, float]:
    if isinstance(plate, RoughPlateSpec):
        return plate.layer_thickness, plate.fill_factor
    return 0.0, 1.0


def eta_sweep(
    plate: Plate,
    d_values: Sequence[float],
    settings: EvaluationSettings | None = None,
) -> SweepTable:
    """Reduction factor eta = P/P_id over a grid of average separations.

    For a rough plate the gap is a = d - 2 h (1 - f); homogeneous plates have
    a = d.  Rows are emitted in ascending d.
    """
    settings = settings or EvaluationSettings()
    d_sorted = np.sort(np.asarray(d_values, dtype=float))
    h, f = _plate_offsets(plate)
    a_col = np.empty_like(d_sorted)
    p_col = np.empty_like(d_sorted)
    pid_col = np.empty_like(d_sorted)
    for i, d in enumerate(d_sorted):
        a_col[i] = gap_from_average(d, h, f)
        try:
            p_col[i] = pressure(plate, a_col[i], settings)
        except ValueError as exc:
            raise ValueError(f"at average separation d = {d:.6e} m: {exc}") from exc
        pid_col[i] = ideal_pressure(d)
    eta_col = p_col / pid_col
    return SweepTable(d=d_sorted, a=a_col, pressure=p_col,
                      pressure_ideal=pid_col, eta=eta_col)
