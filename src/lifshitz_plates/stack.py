"""Reflection coefficients of a layered plate at imaginary frequencies.

A plate is vacuum | (optional finite layers) | substrate half-space.  For
``xi > 0`` the coefficients follow from the Fresnel formulas combined
right-to-left through the layers.  The ``xi = 0`` point runs the same
recursion on model-aware analytic limits of each interface, because the
conductor permittivities diverge there (Drude like 1/xi, plasma like 1/xi^2)
and a naive evaluation produces 0 * inf forms.  One pass gives both
polarizations: the internal coefficients carry a leading axis [TE, TM].

Sign convention (fixed for testability; only r^2 is observable in the
pressure): r_TE = (s_i - s_j)/(s_i + s_j), r_TM = (eps_j s_i - eps_i s_j) /
(eps_j s_i + eps_i s_j), with the perfect reflector pinned to r_TM = +1,
r_TE = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Union

import numpy as np

from .constants import CONSTANTS
from .materials import (
    ArrayLike,
    DielectricModel,
    PerfectReflector,
    RoughPlateSpec,
    Vacuum,
    permittivity_imag_axis,
    static_limit,
)

Polarization = Literal["TE", "TM"]

# exp(-2 h s) below this argument underflows to an exact zero
_EXP_UNDERFLOW = 700.0


@dataclass(frozen=True)
class LayerStack:
    """One plate: vacuum incidence, finite layers, substrate half-space.

    Layers are (model, thickness m) ordered from the vacuum side inward.
    Zero-thickness layers are dropped at construction; the substrate must be
    a material (never vacuum).
    """

    layers: tuple[tuple[DielectricModel, float], ...]
    substrate: DielectricModel

    def __init__(
        self,
        layers: Iterable[tuple[DielectricModel, float]] = (),
        substrate: DielectricModel = None,  # type: ignore[assignment]
    ) -> None:
        if substrate is None or isinstance(substrate, Vacuum):
            raise ValueError("substrate must be a non-vacuum material half-space")
        kept = []
        for model, thickness in layers:
            if isinstance(model, PerfectReflector):
                raise ValueError("PerfectReflector cannot be a finite-thickness layer")
            if thickness < 0.0:
                raise ValueError("layer thickness must be >= 0")
            if thickness > 0.0:
                kept.append((model, float(thickness)))
        object.__setattr__(self, "layers", tuple(kept))
        object.__setattr__(self, "substrate", substrate)


@dataclass(frozen=True)
class KinematicPoint:
    """Matsubara frequency (rad/s, >= 0) and transverse wavenumber (1/m, > 0)."""

    xi: float
    k_perp: float

    def __post_init__(self) -> None:
        if self.xi < 0.0:
            raise ValueError("xi must be >= 0")
        if not self.k_perp > 0.0:
            raise ValueError("k_perp must be > 0")


def as_layer_stack(plate: Union[RoughPlateSpec, LayerStack]) -> LayerStack:
    """Coerce a rough-plate description (or pass a stack through)."""
    if isinstance(plate, LayerStack):
        return plate
    if isinstance(plate, RoughPlateSpec):
        layers = ()
        if plate.layer_thickness > 0.0:
            layers = ((plate.surface, plate.layer_thickness),)
        return LayerStack(layers=layers, substrate=plate.bulk)
    raise TypeError(f"expected RoughPlateSpec or LayerStack, got {plate!r}")


def axial_wavenumber(eps: ArrayLike, xi: ArrayLike, k_perp: ArrayLike) -> ArrayLike:
    """s = sqrt(eps(i xi) xi^2 / c^2 + k_perp^2), the decay constant along the axis."""
    return np.sqrt(np.asarray(eps) * (np.asarray(xi) / CONSTANTS.c) ** 2 + np.asarray(k_perp) ** 2)


def _pol_index(polarization: Polarization) -> int:
    """Row of ``polarization`` on the leading [TE, TM] axis."""
    if polarization not in ("TE", "TM"):
        raise ValueError(f"polarization must be 'TE' or 'TM', got {polarization!r}")
    return ("TE", "TM").index(polarization)


def _fresnel_pair(eps_i: ArrayLike, eps_j: ArrayLike, s_i: ArrayLike, s_j: ArrayLike) -> np.ndarray:
    """[TE, TM] single-interface reflection coefficients from medium i onto medium j."""
    te = (s_i - s_j) / (s_i + s_j)
    tm = (eps_j * s_i - eps_i * s_j) / (eps_j * s_i + eps_i * s_j)
    return np.stack(np.broadcast_arrays(te, tm))


def fresnel(
    polarization: Polarization,
    eps_i: ArrayLike,
    eps_j: ArrayLike,
    s_i: ArrayLike,
    s_j: ArrayLike,
) -> ArrayLike:
    """Single-interface reflection coefficient from medium i onto medium j."""
    return _fresnel_pair(eps_i, eps_j, s_i, s_j)[_pol_index(polarization)]


def _decayed(exponent: np.ndarray) -> np.ndarray:
    """exp(-exponent) with large arguments flushed to an exact zero."""
    exponent = np.asarray(exponent)
    safe = np.minimum(exponent, _EXP_UNDERFLOW)
    return np.where(exponent > _EXP_UNDERFLOW, 0.0, np.exp(-safe))


def _combine(r_outer: np.ndarray, r_inner: np.ndarray, phase: ArrayLike) -> np.ndarray:
    # the denominator vanishes only for r_o = -r_i = +-1 and a phase rounded to
    # 1 (an ultra-thin layer at xi = 0), where the value is r_o as for any phase < 1
    num = r_outer + r_inner * phase
    den = 1.0 + r_outer * r_inner * phase
    return np.divide(num, den, out=np.broadcast_to(r_outer, num.shape).copy(), where=den != 0.0)


def _media(stack: LayerStack) -> list[DielectricModel]:
    """Vacuum, the finite layers, then the substrate unless it is a perfect mirror."""
    media = [Vacuum(), *(model for model, _ in stack.layers)]
    if not isinstance(stack.substrate, PerfectReflector):
        media.append(stack.substrate)
    return media


def _recurse(stack: LayerStack, s: list[ArrayLike], interface) -> np.ndarray:
    """Combine [TE, TM] interface coefficients right-to-left through the layers.

    ``s[j]`` is the axial wavenumber in medium j of :func:`_media` and
    ``interface(i, j)`` the coefficient pair from medium i onto medium j.
    """
    if isinstance(stack.substrate, PerfectReflector):
        pair = np.reshape([-1.0, 1.0], (2,) + (1,) * np.ndim(s[0]))
        r = np.broadcast_to(pair, (2,) + np.shape(s[0]))
    else:
        r = interface(len(s) - 2, len(s) - 1)
    for j in range(len(stack.layers), 0, -1):
        r = _combine(interface(j - 1, j), r, _decayed(2.0 * stack.layers[j - 1][1] * s[j]))
    return r


def _reflection(stack: LayerStack, xi: ArrayLike, k_perp: ArrayLike) -> np.ndarray:
    """Plate reflection coefficients [TE, TM] for xi > 0 (vectorized, broadcasting)."""
    xi = np.asarray(xi, dtype=float)
    k_perp = np.asarray(k_perp, dtype=float)
    eps = [permittivity_imag_axis(m, xi) for m in _media(stack)]
    s = [axial_wavenumber(e, xi, k_perp) for e in eps]
    return _recurse(stack, s, lambda i, j: _fresnel_pair(eps[i], eps[j], s[i], s[j]))


def plate_reflection(
    stack: LayerStack, polarization: Polarization, point: KinematicPoint
) -> float:
    """Reflection coefficient of the plate at a Matsubara point with xi > 0."""
    pol = _pol_index(polarization)
    if not point.xi > 0.0:
        raise ValueError("xi must be > 0 here; use plate_reflection_zero_frequency at xi = 0")
    return float(_reflection(stack, point.xi, point.k_perp)[pol])


def _static_reflection(stack: LayerStack, k_perp: ArrayLike) -> np.ndarray:
    """Analytic xi -> 0 limit of the plate reflection coefficients [TE, TM]."""
    k_perp = np.asarray(k_perp, dtype=float)
    limits = [static_limit(m) for m in _media(stack)]
    # eps xi^2 survives the limit only for 1/xi^2 divergences (plasma-like)
    s = [
        axial_wavenumber(1.0, 0.0, k_perp) if order < 2
        else np.sqrt(k_perp**2 + amplitude / CONSTANTS.c**2)
        for order, amplitude in limits
    ]
    return _recurse(stack, s, lambda i, j: _static_fresnel(limits[i], limits[j], s[i], s[j]))


def _static_fresnel(limit_i, limit_j, s_i, s_j) -> np.ndarray:
    """Interface coefficients [TE, TM] in the xi -> 0 limit.

    TE needs only the limiting axial wavenumbers.  At equal divergence order
    the amplitudes take the place of the permittivities in TM; otherwise the
    faster-diverging side wins TM outright (+1 when it is the far side, -1
    when it is the near side).
    """
    (order_i, amp_i), (order_j, amp_j) = limit_i, limit_j
    r = _fresnel_pair(amp_i, amp_j, s_i, s_j)
    if order_i != order_j:
        r[1] = 1.0 if order_j > order_i else -1.0
    return r


def plate_reflection_zero_frequency(
    stack: LayerStack, polarization: Polarization, k_perp: ArrayLike
) -> ArrayLike:
    """xi -> 0 limit of the plate reflection coefficient.

    Drude half-space: r_TE -> 0 exactly, r_TM -> 1.  Plasma-like media keep
    a nonzero TE reflection because eps xi^2 -> plasma^2 survives the limit.
    Finite-eps dielectrics reflect only in TM, with the static permittivity.
    """
    pol = _pol_index(polarization)
    if np.any(np.asarray(k_perp) <= 0.0):
        raise ValueError("k_perp must be > 0")
    r = _static_reflection(stack, k_perp)[pol]
    return float(r) if np.ndim(r) == 0 else r
