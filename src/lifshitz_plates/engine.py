"""Finite-temperature Casimir pressure between identical stratified plates.

The pressure is a Matsubara sum over imaginary frequencies xi_l = 2 pi k_B T
l / hbar (the l = 0 term carries weight one half) of a transverse-wavenumber
integral over both polarizations:

    P = (k_B T / pi) sum_l' integral dk k q_l sum_pol [exp(2 a q_l)/r^2 - 1]^-1

with q_l = sqrt(k^2 + xi_l^2/c^2).  The k integral is evaluated in the scaled
variable u = 2 a q_l, where the integrand decays like u^2 exp(-u) uniformly
in l, so every Matsubara term at every gap shares one panel layout and each
kernel call integrates a block of (gap, xi) rows in single vectorized
operations, fed to the reflection pass as they are.  The terms fall like
exp(-l x_1), x_1 = 2 a xi_1 / c, so each gap of every sweep, a fit's included,
sums a first block sized from that decay rate, then blocks a quarter as long;
terms whose u integral starts beyond u0 = 2 go on nested start rules, the
coarser the larger u0, and move to the default rule if their block refines.
All gaps of a sweep are summed together in waves: one wave integrates the
current block of every unfinished gap, the xi = 0 rows of all gaps in one
call, and then runs each gap's stopping rule.  A wave is one _wave_terms
call.  Each row carries its rule level, raised when its block is refined;
_integrate, the only code that turns (gap, xi, level) rows into kernel calls
(_pol_integrals at xi > 0, _pol_integrals_zero at xi = 0, both feeding
_panel_sums), serves the waves and the planned evaluation of fits.  At T = 0
the frequency sum becomes an integral, which _t0_sums evaluates on one tensor
rule in u and t = 2 a xi / (c u).  As a cross-check, pressure can integrate
the rows a gap's sum planned in the raw k variable instead (scipy QUADPACK).

Sign convention: the returned pressure is the positive magnitude of the
attraction, so the reduction factor P / P_id matches the usual plots.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._quad import DEFAULT_RULE, START_EDGES, PanelRule
from .constants import CONSTANTS
from .materials import RoughPlateSpec
from .stack import LayerStack, _reflection, _static_reflection, as_layer_stack

Plate = Union[RoughPlateSpec, LayerStack]


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 16 and 32 MB for this process.

    Every kernel call, in the finite-T sweeps and at T = 0 alike, allocates
    and frees (rows, nodes) temporaries.  Under glibc's sliding default
    thresholds a process may return part of that memory to the OS after a
    call and page-fault it back in on the next, and how much depends on where
    long-lived objects happen to lie in the heap.  Unpinned, with a few MB of
    long-lived objects interleaved, 10 rounds of eight 300 K sweeps (four
    plates on two 30-point grids) took 28,000-137,000 minor faults and 57-79
    ms a round, against about 200 faults and 41-49 ms pinned (2-core x86-64
    machine).  With fixed thresholds the freed temporaries stay in the heap
    for the next call; the price is up to 32 MB of freed heap kept from the
    OS.  A no-op where the C library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

_MAX_REFINEMENTS = 6
_TINY = np.finfo(float).tiny  # an integral passes at error <= tol max(|scale|, _TINY)
_BLOCK = 64           # rows per kernel call, more of a coarser rule
# a gap's first block holds this many times ln(1/sum_rel_tol)/x_1 terms
_DECAY_SAFETY = 1.2
# a term whose u integral starts beyond u0 = 2 a xi / c = 2, 8 or 16, at most
# about exp(-u0) of its gap's leading terms, starts on the rule of level -1,
# -2 or -3 (90, 75 or 30 nodes); each threshold is raised by
# ln(1e-9 / quad_rel_tol) at tighter tolerances
_START_FROM = np.array([2.0, 8.0, 16.0])

# T = 0 rules in u = 2 a q and t = 2 a xi / (c u) = xi / (c q), Lifshitz's 1/p.
# u on the default ladder, its first panel split at 0.1 for the u^3 weight;
# t is graded geometrically towards t = 0, where a Drude TE response varies on
# the scale 2 a gamma / (c u).
_T0_U_RULE = PanelRule.from_edges(np.array([0.0, 0.1, 0.5, 1.5, 3.5, 7.5, 15.5, 31.5, 60.0]))
_T0_T_RULE = PanelRule.from_edges(np.concatenate([[0.0], np.geomspace(1e-5, 1.0, 11)]))


class MatsubaraTruncationError(RuntimeError):
    """Raised when the Matsubara sum fails to converge within ``l_max`` terms."""

    def __init__(self, partial_pressure: float, l_reached: int, a: float):
        self.partial_pressure = partial_pressure
        self.l_reached = l_reached
        self.gap = a
        super().__init__(
            f"Matsubara sum not converged after l = {l_reached} terms at gap a = {a:.6e} m; "
            f"partial pressure {partial_pressure:.9e} Pa"
        )


class QuadratureBudgetError(RuntimeError):
    """Raised when panel refinement stops after ``_MAX_REFINEMENTS`` splits
    with the Kronrod-Gauss error estimate still above its target."""

    def __init__(self, a: float, where: str, estimate: float, target: float):
        self.gap = a
        self.estimate = estimate
        self.target = target
        super().__init__(
            f"quadrature not converged after {_MAX_REFINEMENTS} refinements at gap "
            f"a = {a:.6e} m, {where}: error estimate {estimate:.3e} > target {target:.3e}"
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
        for name in ("consecutive_small_terms", "l_max"):  # integral floats pass, as ints
            count = getattr(self, name)
            if not (1 <= count < math.inf and math.floor(count) == count):
                raise ValueError(f"{name} must be an integer >= 1, got {count}")
            object.__setattr__(self, name, int(count))
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
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


def matsubara_frequency(l, temperature: float):
    """xi_l = 2 pi k_B T l / hbar (rad/s); integer indices l, any size, are read as floats."""
    l_arr = np.asarray(l, dtype=float)
    ok = (l_arr >= 0) & (l_arr < math.inf) & (np.floor(l_arr) == l_arr)
    if not ok.all():
        raise ValueError(f"Matsubara index must be an integer >= 0, got {l_arr[~ok][0]:g}")
    if not temperature > 0.0:
        raise ValueError("temperature must be > 0")
    xi = 2.0 * np.pi * CONSTANTS.k_B * temperature * l_arr / CONSTANTS.hbar
    return float(xi) if np.ndim(l) == 0 else xi


def ideal_pressure(d: float) -> float:
    """Zero-temperature perfect-reflector pressure pi^2 hbar c / (240 d^4)."""
    if not d > 0.0:
        raise ValueError("separation must be > 0")
    return math.pi**2 * CONSTANTS.hbar * CONSTANTS.c / (240.0 * d**4)


def gap_from_average(d: float, layer_thickness: float, fill_factor: float) -> float:
    """Invert the average-separation mapping: a = d - 2 h (1 - f)."""
    offset = 2.0 * layer_thickness * (1.0 - fill_factor)
    if d <= offset:
        raise ValueError(
            f"average separation d = {d:.6e} m must exceed 2 h (1 - f) = {offset:.6e} m"
        )
    return d - offset


# ----------------------------------------------------------------------
# scaled-variable quadrature of Matsubara terms, in waves over the gaps

def _panel_sums(U2, u0, rule: PanelRule, r, gather=False):
    """Panel sums of u^2 g/(1-g), g = r^2 exp(-u), for both polarizations.

    ``r`` is the reflection coefficient at the nodes u = ``u0`` + ``rule.nodes``
    (``U2`` = u^2) with a leading [TE, TM] axis.  Returns (I_te, I_tm, err);
    err is the Kronrod-Gauss error estimate summed over both polarizations;
    with ``gather`` then I_te + I_tm on ``rule.gauss``, bit for bit, from the same f.
    Sums on a Gauss rule, gathered or ``rule.gauss_only``, are formed row by
    row, so their last bit does not depend on which rows share the call.
    """
    # in place: one (2, rows, nodes) temporary fewer per step keeps the
    # blocks from trimming and regrowing the heap on every call
    g = r * r
    g *= np.exp(-u0) * rule.decay
    f = U2 * g
    f /= 1.0 - g
    sums = (f[..., None, :] @ rule.weights)[..., 0, :] if rule.gauss_only else f @ rule.weights
    out = sums[0, :, 0], sums[1, :, 0], np.abs(sums[..., 1]).sum(axis=0)
    if gather:  # contiguous: a strided operand takes another matmul path, another last bit
        f = np.ascontiguousarray(f[..., rule.gauss_index])
        te, tm = (f[..., None, :] @ rule.gauss.weights)[..., 0, 0]
        out += (te + tm,)
    return out


def _pol_integrals(stack: LayerStack, a, xi: np.ndarray, rule: PanelRule, gather=False):
    """Integrals of u^2 g/(1-g) over u for each row (a, xi > 0) and polarization.

    ``a`` is the gap of each row, or one gap for all rows.  The nodes u = 2 a q
    and their squares reach the stack layer as they are.  Returns (I_te, I_tm,
    err) arrays of shape (len(xi),), with ``gather`` as in :func:`_panel_sums`.
    """
    a = np.reshape(a, (-1, 1))
    u0 = (2.0 * a / CONSTANTS.c) * xi[:, None]
    U = u0 + rule.nodes
    U2 = U * U
    return _panel_sums(U2, u0, rule, _reflection(stack, xi[:, None], U, a, U2), gather)


def _pol_integrals_zero(stack: LayerStack, a, rule: PanelRule, gather=False):
    """Same as :func:`_pol_integrals` for xi = 0 rows (analytic limits), one per gap in ``a``."""
    a = np.reshape(a, (-1, 1))
    U = np.broadcast_to(rule.nodes, (len(a), len(rule.nodes)))
    return _panel_sums(rule.nodes * rule.nodes, 0.0, rule, _static_reflection(stack, U, a),
                       gather)


@functools.lru_cache(maxsize=None)
def _rule(level: int) -> PanelRule:
    """The start rule on ``START_EDGES[level]`` at levels -3..-1, ``DEFAULT_RULE``
    at 0, else ``DEFAULT_RULE`` refined ``level`` times; each built once."""
    if level < 0:
        return PanelRule.from_edges(START_EDGES[level])
    return DEFAULT_RULE if level == 0 else _rule(level - 1).refined()


def _integrate(stack, rows_a, xi, levels, gauss_only=False, gather=False):
    """(I_te, I_tm, err) of rows j at gap ``rows_a[j]`` and ``xi[j]`` on the rule of
    ``levels[j]``, or with ``gauss_only`` its embedded Gauss rule, as a (3, rows)
    array, with ``gather`` (4, rows) (see :func:`_panel_sums`).  Kernel calls go
    by level from -3 up, xi = 0 rows before xi > 0 rows, ``_BLOCK`` rows a call
    or as many as hold ``_BLOCK`` default-rule rows' nodes."""
    values = np.empty((3 + gather, len(xi)))
    key = 2 * (levels + 3) + (xi > 0.0)  # one group per (level, xi > 0), in call order
    for group in np.flatnonzero(np.bincount(key)).tolist():
        level, positive = group // 2 - 3, group % 2
        rule = _rule(level).gauss if gauss_only else _rule(level)
        step = max(_BLOCK, _BLOCK * len(DEFAULT_RULE.nodes) // len(rule.nodes))
        i = np.flatnonzero(key == group)
        for start in range(0, len(i), step):
            j = i[start:start + step]
            values[:, j] = (_pol_integrals(stack, rows_a[j], xi[j], rule, gather=gather)
                            if positive else _pol_integrals_zero(stack, rows_a[j], rule,
                                                                 gather=gather))
    return values


def _wave_terms(stack, a, blocks, temperature, quad_rel_tol, hints, gather=False):
    """Pressure-sum integrands [te, tm] of one block of Matsubara indices per gap.

    ``blocks[i]`` holds ascending indices for gap ``a[i]``.  Each row starts at
    a rule level (see :func:`_rule`): -k once u0 = 2 a xi / c exceeds the k-th
    of ``_START_FROM``, each raised by max(0, ln(1e-9 / ``quad_rel_tol``)),
    else 0.  A pass integrates its rows in :func:`_integrate`.  Block i is
    accepted when its summed Kronrod-Gauss estimate is <= 0.25 ``quad_rel_tol``
    max(|hints[i]|, |te + tm over the block|, ``_TINY``): a zero or subnormal
    block needs no case of its own.  The rows of the blocks that miss it go to
    the next pass, those on a start rule at level 0 and the others one level
    up, at most ``_MAX_REFINEMENTS`` times.  Returns per block its [te, tm]
    array, with ``gather`` a third row te + tm on the Gauss siblings of the
    rules, or the ``QuadratureBudgetError`` of a block still above its target;
    and per block its rows' levels, each that of the rule the row was accepted on.
    """
    sizes = [len(b) for b in blocks]
    edges = np.cumsum([0] + sizes)
    xi = matsubara_frequency(np.concatenate(blocks), temperature)
    rows_a = np.repeat(a, sizes)
    shift = max(0.0, math.log(1e-9 / quad_rel_tol))
    levels = -np.searchsorted(_START_FROM + shift, (2.0 * rows_a / CONSTANTS.c) * xi)
    values = np.empty((3 + gather, len(xi)))
    rows = np.arange(len(xi))
    for _ in range(_MAX_REFINEMENTS + 1):
        values[:, rows] = _integrate(stack, rows_a[rows], xi[rows], levels[rows], gather=gather)
        te, tm, estimate = np.add.reduceat(values[:3], edges[:-1], axis=1)
        scale = np.maximum(np.maximum(np.abs(hints), np.abs(te + tm)), _TINY)
        target = 0.25 * quad_rel_tol * scale
        missed = ~(estimate <= target)
        if not missed.any():
            break
        rows = np.flatnonzero(np.repeat(missed, sizes))
        levels[rows] = np.maximum(levels[rows], -1) + 1
    out = np.split(values[[0, 1, 3]] if gather else values[:2], edges[1:-1], axis=1)
    for i in np.flatnonzero(missed):
        ends = blocks[i][[0, -1]]
        xi_lo, xi_hi = matsubara_frequency(ends, temperature)
        out[i] = QuadratureBudgetError(
            float(a[i]), f"Matsubara block l = {ends[0]}..{ends[1]} "
            f"(xi = {xi_lo:.6e}..{xi_hi:.6e} rad/s)", float(estimate[i]), float(target[i]))
    return out, np.split(levels, edges[1:-1])


def _block_terms_scaled(stack, a, ls, temperature, quad_rel_tol, scale_hint):
    """[te, tm] for Matsubara indices ``ls`` at one gap: a one-block wave."""
    (terms,), _ = _wave_terms(stack, np.array([a], dtype=float), [np.asarray(ls)], temperature,
                              quad_rel_tol, [scale_hint])
    if isinstance(terms, QuadratureBudgetError):
        raise terms
    return terms


def _kperp_term(stack, a, l, temperature, quad_rel_tol):
    """(te, tm) of one Matsubara term integrated in the raw k variable (QUADPACK).

    Slow independent route kept as an internal oracle for the scaled-variable
    quadrature.
    """
    from scipy import integrate

    xi = matsubara_frequency(l, temperature)
    out = []
    for pol in (0, 1):
        def integrand(t: float) -> float:
            # t = 2 a k restores an O(1) decay scale for QUADPACK
            k = 0.5 * t / a
            q = math.sqrt(k * k + (xi / CONSTANTS.c) ** 2)
            u = 2.0 * a * q
            r = (_static_reflection(stack, t, a) if l == 0
                 else _reflection(stack, xi, u, a, u * u))[pol]
            g = float(r) ** 2 * (math.exp(-u) if u < 700.0 else 0.0)
            return k * q * g / (1.0 - g)

        val, _ = integrate.quad(integrand, 0.0, 60.0, epsabs=0.0,
                                epsrel=quad_rel_tol, limit=200)
        # account for dk = dt/(2a) and the scaled-variable normalization 8 a^3
        out.append(4.0 * a**2 * val)
    return out[0], out[1]


def _finite_t_pressures(stack, a: np.ndarray, settings: EvaluationSettings, gather=False):
    """Pressures at the ascending gaps ``a``, every primed Matsubara sum run in the
    same waves; their plan: per gap, the rule level of each row l = 0..L it summed;
    and with ``gather`` the planned pressures on it from the waves' own
    integrand values, bit for bit, else None.

    Gap i starts with a block of min(l_max + 1, ceil(_DECAY_SAFETY
    ln(1/sum_rel_tol) / x_1) + consecutive_small_terms + 1) terms, with
    x_1 = 2 a_i xi_1 / c the decay rate of its terms; each later block is
    max(8, previous // 4) terms.  A wave, one :func:`_wave_terms` call in u,
    integrates the current block of every unfinished gap, then runs each gap's
    stopping rule: after l = 0 (weight one half), ``consecutive_small_terms``
    terms in a row, each at most ``sum_rel_tol`` |S|, S the running sum.  When
    gaps fail, the smallest failing gap's error is raised, those above it dropped.
    """
    temperature, tol = settings.temperature, settings.quad_rel_tol
    l_max, need = settings.l_max, settings.consecutive_small_terms
    x1 = (2.0 * matsubara_frequency(1, temperature) / CONSTANTS.c) * a
    size = np.minimum(l_max + 1, np.ceil(_DECAY_SAFETY * math.log(1.0 / settings.sum_rel_tol) / x1)
                      + need + 1).astype(int).tolist()
    start = [0] * len(a)
    total = [0.0] * len(a)
    streak = [0] * len(a)
    plan, gauss = [[] for _ in a], [[] for _ in a]
    failures = {}
    active = list(range(len(a)))
    while active:
        blocks = [np.arange(start[i], min(start[i] + size[i], l_max + 1)) for i in active]
        hints = [total[i] for i in active]
        unfinished = []
        waves = _wave_terms(stack, a[active], blocks, temperature, tol, hints, gather)
        for i, ls, terms, levels in zip(active, blocks, *waves):
            if isinstance(terms, Exception):
                failures[i] = terms
                continue
            for li, term in zip(ls.tolist(), (terms[0] + terms[1]).tolist()):
                if li == 0:
                    total[i] += 0.5 * term
                    continue
                total[i] += term
                small = abs(term) <= settings.sum_rel_tol * abs(total[i])
                streak[i] = streak[i] + 1 if small else 0
                if streak[i] >= need:
                    break
            plan[i].append(levels[:li + 1 - start[i]])
            gauss[i].append(terms[2:, :li + 1 - start[i]])
            if streak[i] >= need:
                continue
            if ls[-1] >= l_max:
                failures[i] = MatsubaraTruncationError(
                    _pressure_prefactor(float(a[i]), temperature) * total[i], l_max, float(a[i]))
                continue
            start[i] += size[i]
            size[i] = max(8, size[i] // 4)
            unfinished.append(i)
        active = [i for i in unfinished if i < min(failures, default=len(a))]
    if failures:
        raise failures[min(failures)]
    plan = [np.concatenate(levels) for levels in plan]
    sums = np.hstack([rows for blocks in gauss for rows in blocks]) if gather else None
    return (np.array([_pressure_prefactor(float(ai), temperature) * t for ai, t in zip(a, total)]),
            plan, _planned_pressures(stack, a, temperature, plan, sums[0]) if gather else None)


def _planned_pressures(stack, a: np.ndarray, temperature: float, plan, sums=None) -> np.ndarray:
    """Pressures at the gaps ``a`` on the plan of :func:`_finite_t_pressures`:
    each gap sums its planned rows, each on the embedded Gauss rule of its
    level, with no stopping rule, no refinement test and no engine error.
    ``sums``, the planned rows' te + tm on those rules when already known,
    replaces their integration."""
    sizes, levels = [len(p) for p in plan], np.concatenate(plan)
    ls = np.concatenate([np.arange(n) for n in sizes])
    if sums is None:
        values = _integrate(stack, np.repeat(a, sizes), matsubara_frequency(ls, temperature),
                            levels, gauss_only=True)
        sums = values[0] + values[1]
    weighted = sums * np.where(ls == 0, 0.5, 1.0)  # the primed sum
    totals = np.add.reduceat(weighted, np.cumsum([0] + sizes[:-1]))
    return np.array([_pressure_prefactor(float(ai), temperature) * t for ai, t in zip(a, totals)])


def _check_gap(a: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"gap must be > 0 and finite, got a = {a} m")


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
    ``"kperp"`` (QUADPACK; slow, an independent cross-check at T > 0 only).
    The kperp route integrates the rows l = 0..L that the u route summed, so
    only each term's k integral is independent; L and its errors are shared.
    """
    settings = settings or EvaluationSettings()
    _check_gap(a)
    if integration_variable not in ("u", "kperp"):
        raise ValueError("integration_variable must be 'u' or 'kperp'")
    if settings.zero_temperature:
        if integration_variable == "kperp":
            raise ValueError("integration_variable 'kperp' has no zero-temperature route")
        return pressure_zero_temperature(plate, a, settings)
    stack = as_layer_stack(plate)
    pressures, (plan,), _ = _finite_t_pressures(stack, np.array([a], dtype=float), settings)
    if integration_variable == "u":
        return float(pressures[0])
    terms = [sum(_kperp_term(stack, a, l, settings.temperature, settings.quad_rel_tol))
             for l in range(len(plan))]  # te + tm of each row the u route summed
    return _pressure_prefactor(a, settings.temperature) * sum(terms[1:], 0.5 * terms[0])


def matsubara_pressure_term(
    plate: Plate, a: float, l: int, settings: EvaluationSettings | None = None
) -> PolarizedTerm:
    """Additive contribution of Matsubara term ``l`` to the pressure (Pa).

    The l = 0 term is returned with its weight one half already applied, so
    the reported values are exactly what enters the sum.  For Drude-bulk
    plates the l = 0 TE entry is an exact zero, not merely a small number.
    The term is refined as in :func:`pressure`, against its own value; raises
    :class:`QuadratureBudgetError` when that fails after ``_MAX_REFINEMENTS`` splits.
    Raises ``ValueError`` under ``zero_temperature``: T = 0 has no terms.
    """
    settings = settings or EvaluationSettings()
    _check_gap(a)
    if settings.zero_temperature:
        raise ValueError("zero_temperature is set: there are no Matsubara terms at T = 0")
    te, tm = _block_terms_scaled(as_layer_stack(plate), a, [l], settings.temperature,
                                 settings.quad_rel_tol, 0.0)
    prefactor = (0.5 if l == 0 else 1.0) * _pressure_prefactor(a, settings.temperature)
    return PolarizedTerm(te=prefactor * float(te[0]), tm=prefactor * float(tm[0]))


def _t0_sums(stack: LayerStack, a: float, u_rule: PanelRule, t_rule: PanelRule):
    """2x2 sums of u^3 sum_pol g/(1-g) on the tensor rule ``u_rule`` x ``t_rule``.

    Entry [i, j] weights u by column i of ``u_rule.weights`` and t by column j
    of ``t_rule.weights``: [0, 0] is the integral, [1, 0] and [0, 1] the signed
    Kronrod-Gauss differences along u and t.  A kernel call takes as many u rows
    as hold the nodes of _BLOCK default-rule rows, at least one.
    """
    step = max(1, _BLOCK * len(DEFAULT_RULE.nodes) // len(t_rule.nodes))
    sums = np.empty((len(u_rule.nodes), 2))
    for start in range(0, len(u_rule.nodes), step):
        rows = slice(start, start + step)
        u = u_rule.nodes[rows, None]
        xi = (0.5 * CONSTANTS.c / a) * (u * t_rule.nodes)
        # u at full shape, so a perfect mirror's constant coefficients get it too
        g = _reflection(stack, xi, np.broadcast_to(u, xi.shape), a, u * u) ** 2
        g *= u_rule.decay[rows, None]
        g /= 1.0 - g
        sums[rows] = (g[0] + g[1]) @ t_rule.weights
    return (u_rule.nodes**3 * u_rule.weights.T) @ sums


def pressure_zero_temperature(
    plate: Plate, a: float, settings: EvaluationSettings | None = None
) -> float:
    """Zero-temperature Casimir pressure: the Matsubara sum becomes an integral.

    k_B T sum_l' -> (hbar / 2 pi) integral dxi.  In u = 2 a q and t = 2 a xi /
    (c u) = xi / (c q), Lifshitz's 1/p,

        P = hbar c / (32 pi^2 a^4) integral_0^60 du u^3 integral_0^1 dt sum_pol g/(1-g)

    with g = r^2 exp(-u) at xi = c u t / (2 a), integrated by :func:`_t0_sums`
    on the tensor rule ``_T0_U_RULE`` x ``_T0_T_RULE`` (120 x 165 open nodes).
    It is accepted when the Kronrod-Gauss differences along both axes sum to
    <= ``quad_rel_tol`` max(|value|, ``_TINY``); else every panel of the axis
    with the larger part is split.  Raises :class:`QuadratureBudgetError`,
    naming that axis, when it still misses after ``_MAX_REFINEMENTS`` splits.
    """
    settings = settings or EvaluationSettings()
    _check_gap(a)
    return _t0_pressure(as_layer_stack(plate), a, settings.quad_rel_tol)[0]


def _t0_pressure(stack: LayerStack, a: float, tol: float, rules=None):
    """:func:`pressure_zero_temperature` at ``a`` and the accepted (u, t) rules,
    its plan; given those ``rules``, one pass of their Gauss rules, with no test."""
    prefactor = CONSTANTS.hbar * CONSTANTS.c / (32.0 * math.pi**2 * a**4)
    if rules is not None:
        return prefactor * float(_t0_sums(stack, a, *(rule.gauss for rule in rules))[0, 0]), rules
    rules = [_T0_U_RULE, _T0_T_RULE]
    for _ in range(_MAX_REFINEMENTS + 1):
        (val, err_t), (err_u, _) = _t0_sums(stack, a, *rules).tolist()
        parts = [abs(err_u), abs(err_t)]
        if sum(parts) <= tol * max(abs(val), _TINY):
            return prefactor * val, rules
        axis = int(parts[1] > parts[0])
        rules[axis] = rules[axis].refined()
    raise QuadratureBudgetError(a, "T = 0 integral, larger estimate on the "
                                + ("u = 2 a q", "t = 2 a xi / (c u)")[axis] + " axis",
                                sum(parts), tol * max(abs(val), _TINY))


def eta_sweep(
    plate: Plate,
    d_values: Sequence[float],
    settings: EvaluationSettings | None = None,
) -> SweepTable:
    """Reduction factor eta = P/P_id over a grid of average separations.

    For a rough plate the gap is a = d - 2 h (1 - f); homogeneous plates have
    a = d.  Rows are emitted in ascending d.  At T > 0 the Matsubara sums of
    all gaps run together in waves: each wave integrates the current block of
    every unfinished gap (each gap's blocks sized from its decay rate), in
    the kernel calls of :func:`_wave_terms`, with the xi = 0 rows of all
    gaps together.  Each row equals :func:`pressure` at its gap up to the
    last-bit rounding of the batched products.  When several gaps fail, the error of
    the smallest d is raised.  ``d_values`` other than 1-D, or a non-finite
    or repeated d, raise ``ValueError`` before any pressure is computed.
    """
    return _sweep(plate, d_values, settings)[0]


def _sweep(plate: Plate, d_values, settings: EvaluationSettings | None, plan=None,
           gather=False):
    """:func:`eta_sweep` and its plan; given that ``plan``, the planned
    evaluation on it, whose pressures depend smoothly on the plate.  With
    ``gather``, also the planned evaluation's eta on the plan returned: after
    a full sweep at T > 0 from the sweep's own integrand values, at T = 0 from
    one planned pass on the accepted rules."""
    settings = settings or EvaluationSettings()
    d_given = np.asarray(d_values, dtype=float)
    if d_given.ndim != 1:
        raise ValueError(f"separations must be a 1-D sequence, got shape {d_given.shape}")
    d_sorted = np.sort(d_given)
    bad = d_sorted[~np.isfinite(d_sorted)]
    if len(bad):
        raise ValueError(f"separations must be finite, got d = {bad[0]}")
    repeated = d_sorted[1:][np.diff(d_sorted) == 0.0]
    if len(repeated):
        raise ValueError(f"separations must be distinct; d = {repeated[0]:.6e} m "
                         "appears more than once")
    h, f = ((plate.layer_thickness, plate.fill_factor) if isinstance(plate, RoughPlateSpec)
            else (0.0, 1.0))
    a_col = np.empty_like(d_sorted)
    pid_col = np.empty_like(d_sorted)
    for i, d in enumerate(d_sorted):
        a_col[i] = gap_from_average(d, h, f)
        pid_col[i] = ideal_pressure(d)
    stack = as_layer_stack(plate)
    if settings.zero_temperature:
        points = [_t0_pressure(stack, a, settings.quad_rel_tol, rules) for a, rules in
                  zip(a_col, [None] * len(a_col) if plan is None else plan)]
        p_col, plan = ([point[k] for point in points] for k in range(2))
        gauss = [_t0_pressure(stack, a, settings.quad_rel_tol, rules)[0]
                 for a, rules in zip(a_col, plan)] if gather else None
    elif not len(a_col):  # an empty grid: no Matsubara sum to run
        p_col, plan, gauss = [], [], []
    elif plan is None:
        p_col, plan, gauss = _finite_t_pressures(stack, a_col, settings, gather=gather)
    else:
        p_col = gauss = _planned_pressures(stack, a_col, settings.temperature, plan)
    p_col = np.asarray(p_col)
    table = SweepTable(d=d_sorted, a=a_col, pressure=p_col, pressure_ideal=pid_col,
                       eta=p_col / pid_col)
    return (table, plan, np.asarray(gauss) / pid_col) if gather else (table, plan)
