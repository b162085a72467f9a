"""Reflection coefficients of a layered plate at imaginary frequencies.

A plate is vacuum | (optional finite layers) | substrate half-space.  For
``xi > 0`` the coefficients follow from the Fresnel formulas combined
right-to-left through the layers, fed the engine's variable u = 2 a q, q =
sqrt(k_perp^2 + xi^2/c^2) at gap a: with u0 = 2 a xi / c, medium j has 2 a s_j
= sqrt(u^2 + (eps_j - 1) u0^2) (vacuum: u), and a layer of thickness d the
phase exp(-d (2 a s_j) / a).  The ``xi = 0`` point runs the same recursion on
model-aware analytic limits of each interface, because the conductor
permittivities diverge there (Drude like 1/xi, plasma like 1/xi^2) and a
naive evaluation produces 0 * inf forms.  One pass gives both
polarizations: the coefficients carry a leading axis [TE, TM].

Sign convention (fixed for testability; only r^2 is observable in the
pressure): r_TE = (s_i - s_j)/(s_i + s_j), r_TM = (eps_j s_i - eps_i s_j) /
(eps_j s_i + eps_i s_j), with the perfect reflector pinned to r_TM = +1,
r_TE = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

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
            if not 0.0 <= thickness < np.inf:
                raise ValueError(f"layer thickness must be >= 0 and finite, got {thickness}")
            if thickness > 0.0:
                kept.append((model, float(thickness)))
        object.__setattr__(self, "layers", tuple(kept))
        object.__setattr__(self, "substrate", substrate)
        # the media below vacuum that the reflection pass walks (not a field)
        media = tuple(model for model, _ in kept)
        mirror = isinstance(substrate, PerfectReflector)
        object.__setattr__(self, "media", media if mirror else media + (substrate,))


def as_layer_stack(plate: Union[RoughPlateSpec, LayerStack]) -> LayerStack:
    """Coerce a rough-plate description (or pass a stack through)."""
    if isinstance(plate, LayerStack):
        return plate
    if isinstance(plate, RoughPlateSpec):
        return LayerStack(((plate.surface, plate.layer_thickness),), plate.bulk)
    raise TypeError(f"expected RoughPlateSpec or LayerStack, got {plate!r}")


def _fresnel_pair(eps_i: ArrayLike, eps_j: ArrayLike, s_i: ArrayLike, s_j: ArrayLike) -> np.ndarray:
    """[TE, TM] single-interface reflection coefficients from medium i onto medium j."""
    # written in place: at most two full-size temporaries besides the result,
    # and a permittivity of exactly 1 (vacuum) multiplies nothing
    r = np.empty((2,) + np.broadcast(eps_i, eps_j, s_i, s_j).shape)
    te, tm = r[0, ...], r[1, ...]
    np.subtract(s_i, s_j, out=te)
    te /= s_i + s_j
    np.multiply(eps_j, s_i, out=tm)
    eps_s = s_j if isinstance(eps_i, float) and eps_i == 1.0 else eps_i * s_j
    den = tm + eps_s
    tm -= eps_s
    tm /= den
    return r


def _combine(r_outer: np.ndarray, r_inner: np.ndarray, phase: ArrayLike,
             static: bool) -> np.ndarray:
    r = r_inner * phase
    den = r_outer * r
    den += 1.0
    r += r_outer
    if static:
        # only at xi = 0 can the denominator vanish: r_o = -r_i = +-1 and a phase
        # rounded to 1 (an ultra-thin layer), where the value is r_o as for phase < 1
        zero = den == 0.0
        if zero.any():
            r[zero], den[zero] = np.broadcast_to(r_outer, r.shape)[zero], 1.0
    r /= den
    return r


def _recurse(stack: LayerStack, s: list[ArrayLike], a: ArrayLike, interface,
             static: bool = False) -> np.ndarray:
    """Combine [TE, TM] interface coefficients right-to-left through the layers.

    ``s[j]`` is 2 ``a`` times the axial wavenumber in medium j: vacuum, then
    ``stack.media``; a layer of thickness d has the phase exp(-d s[j] / a).
    ``interface(i, j)`` is the coefficient pair from medium i onto medium j.
    """
    if isinstance(stack.substrate, PerfectReflector):
        pair = np.reshape([-1.0, 1.0], (2,) + (1,) * np.ndim(s[0]))
        r = np.broadcast_to(pair, (2,) + np.shape(s[0]))
    else:
        r = interface(len(s) - 2, len(s) - 1)
    for j in range(len(stack.layers), 0, -1):
        # exp underflows to an exact 0, without a warning, for thick layers
        phase = np.exp(s[j] * (-stack.layers[j - 1][1] / a))
        r = _combine(interface(j - 1, j), r, phase, static)
    return r


def _reflection(stack: LayerStack, xi: ArrayLike, u: ArrayLike, a: ArrayLike,
                u2: ArrayLike) -> np.ndarray:
    """Plate reflection coefficients [TE, TM] for xi > 0 (vectorized, broadcasting).

    ``u`` = 2 a q is the vacuum axial wavenumber q scaled by twice the length
    ``a``, and ``u2`` is u^2.  With u0 = 2 a xi / c, medium j has 2 a s_j =
    sqrt(u^2 + (eps_j - 1) u0^2).  ``xi`` is not checked: callers pass only
    xi > 0, where |r| < 1 for every node.
    """
    eps = [permittivity_imag_axis(m, xi, check=False) for m in stack.media]
    u0_sq = ((2.0 * a / CONSTANTS.c) * xi) ** 2
    s = [u] + [np.sqrt(u2 + (e - 1.0) * u0_sq) for e in eps]
    eps.insert(0, 1.0)
    return _recurse(stack, s, a, lambda i, j: _fresnel_pair(eps[i], eps[j], s[i], s[j]))


def _static_reflection(stack: LayerStack, u: ArrayLike, a: ArrayLike) -> np.ndarray:
    """Analytic xi -> 0 limit of the coefficients [TE, TM] at u = 2 a k_perp (see _reflection)."""
    u = np.asarray(u, dtype=float)
    limits = [(0, 1.0)] + [static_limit(m) for m in stack.media]
    # eps xi^2 survives the limit only for 1/xi^2 divergences (plasma-like)
    s = [u if order < 2 else np.sqrt(u * u + (2.0 * a / CONSTANTS.c) ** 2 * amplitude)
         for order, amplitude in limits]
    return _recurse(stack, s, a, lambda i, j: _static_fresnel(limits[i], limits[j], s[i], s[j]),
                    static=True)


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
