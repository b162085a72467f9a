"""Reflection coefficients of a layered plate at imaginary frequencies.

A plate is vacuum | (optional finite layers) | substrate half-space.  For
``xi > 0`` the coefficients follow from the Fresnel formulas combined
right-to-left through the layers.  On that path the stack layer takes the
vacuum axial wavenumber q = sqrt(k_perp^2 + xi^2/c^2) rather than k_perp:
vacuum then has s = q, and every other medium s_j = sqrt(q^2 + (eps_j - 1)
xi^2/c^2).  The ``xi = 0`` point runs the same recursion on model-aware
analytic limits of each interface, because the conductor permittivities
diverge there (Drude like 1/xi, plasma like 1/xi^2) and a naive evaluation
produces 0 * inf forms.  One pass gives both
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
    # written in place: at most two full-size temporaries besides the result
    r = np.empty((2,) + np.broadcast_shapes(*map(np.shape, (eps_i, eps_j, s_i, s_j))))
    te, tm = r[0, ...], r[1, ...]
    np.subtract(s_i, s_j, out=te)
    te /= s_i + s_j
    np.multiply(eps_j, s_i, out=tm)
    eps_s = eps_i * s_j
    den = tm + eps_s
    tm -= eps_s
    tm /= den
    return r


def fresnel(
    polarization: Polarization,
    eps_i: ArrayLike,
    eps_j: ArrayLike,
    s_i: ArrayLike,
    s_j: ArrayLike,
) -> ArrayLike:
    """Single-interface reflection coefficient from medium i onto medium j."""
    return _fresnel_pair(eps_i, eps_j, s_i, s_j)[_pol_index(polarization)]


def _combine(r_outer: np.ndarray, r_inner: np.ndarray, phase: ArrayLike) -> np.ndarray:
    # the denominator vanishes only for r_o = -r_i = +-1 and a phase rounded to
    # 1 (an ultra-thin layer at xi = 0), where the value is r_o as for any phase < 1
    r = r_inner * phase
    den = r_outer * r
    den += 1.0
    r += r_outer
    zero = den == 0.0
    if zero.any():
        r[zero], den[zero] = np.broadcast_to(r_outer, r.shape)[zero], 1.0
    r /= den
    return r


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
        # exp underflows to an exact 0, without a warning, for thick layers
        phase = np.exp(s[j] * (-2.0 * stack.layers[j - 1][1]))
        r = _combine(interface(j - 1, j), r, phase)
    return r


def _reflection(stack: LayerStack, xi: ArrayLike, q: ArrayLike) -> np.ndarray:
    """Plate reflection coefficients [TE, TM] for xi > 0 (vectorized, broadcasting).

    ``q`` = sqrt(k_perp^2 + xi^2/c^2) >= xi/c is the axial wavenumber in the
    vacuum gap; medium j has s_j = sqrt(q^2 + (eps_j - 1) xi^2/c^2).
    """
    xi = np.asarray(xi, dtype=float)
    q = np.asarray(q, dtype=float)
    eps = [1.0] + [permittivity_imag_axis(m, xi) for m in _media(stack)[1:]]
    s = [q]
    if len(eps) > 1:  # a bare perfect mirror needs no arithmetic on q
        q2, w2 = q * q, (xi / CONSTANTS.c) ** 2
        s += [np.sqrt(q2 + (e - 1.0) * w2) for e in eps[1:]]
    return _recurse(stack, s, lambda i, j: _fresnel_pair(eps[i], eps[j], s[i], s[j]))


def plate_reflection(
    stack: LayerStack, polarization: Polarization, point: KinematicPoint
) -> float:
    """Reflection coefficient of the plate at a Matsubara point with xi > 0."""
    pol = _pol_index(polarization)
    if not point.xi > 0.0:
        raise ValueError("xi must be > 0 here; use plate_reflection_zero_frequency at xi = 0")
    q = axial_wavenumber(1.0, point.xi, point.k_perp)
    return float(_reflection(stack, point.xi, q)[pol])


def _static_reflection(stack: LayerStack, k_perp: ArrayLike) -> np.ndarray:
    """Analytic xi -> 0 limit of the plate reflection coefficients [TE, TM]."""
    k_perp = np.asarray(k_perp, dtype=float)
    limits = [static_limit(m) for m in _media(stack)]
    # eps xi^2 survives the limit only for 1/xi^2 divergences (plasma-like)
    s = [
        k_perp if order < 2
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
