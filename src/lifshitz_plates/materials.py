"""Dielectric models evaluated on the positive imaginary frequency axis.

Every model is specified directly as ``eps(i xi)`` with ``xi`` in rad/s; no
real-frequency response is implemented.  Plasma is Drude without relaxation,
and a sum of Lorentz oscillators is a ``Composite``.  The rough-plate
description pairs a dissipative bulk conductor with a thin dissipation-free
surface layer whose squared plasma frequency is reduced by the metallic fill
fraction of the rough region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class Vacuum:
    """Empty space, eps = 1 at every frequency."""


@dataclass(frozen=True)
class PerfectReflector:
    """Ideal mirror marker: reflection coefficients are forced to |r| = 1.

    No permittivity is defined; the reflection layer handles this model
    directly.
    """


@dataclass(frozen=True)
class Drude:
    """Ohmic conductor: eps(i xi) = 1 + plasma^2 / (xi (xi + relaxation))."""

    plasma_frequency: float      # rad/s
    relaxation_frequency: float  # rad/s

    def __post_init__(self) -> None:
        if not 0.0 < self.plasma_frequency < math.inf:
            raise ValueError("plasma frequency must be > 0 and finite, "
                             f"got {self.plasma_frequency}")
        if not 0.0 <= self.relaxation_frequency < math.inf:
            raise ValueError("relaxation frequency must be >= 0 and finite, "
                             f"got {self.relaxation_frequency}")


@dataclass(frozen=True)
class Plasma(Drude):
    """Dissipation-free conductor, Drude without relaxation: eps(i xi) = 1 + plasma^2 / xi^2."""

    relaxation_frequency: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class Oscillator:
    """One Lorentz oscillator: eps(i xi) = 1 + strength / (resonance^2 + xi^2 + damping xi)."""

    strength: float   # rad^2/s^2
    resonance: float  # rad/s
    damping: float    # rad/s

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength < math.inf:
            raise ValueError(f"oscillator strength must be >= 0 and finite, got {self.strength}")
        if not 0.0 < self.resonance < math.inf:
            raise ValueError(f"oscillator resonance must be > 0 and finite, got {self.resonance}")
        if not 0.0 <= self.damping < math.inf:
            raise ValueError(f"oscillator damping must be >= 0 and finite, got {self.damping}")


@dataclass(frozen=True)
class Composite:
    """Model whose members' (eps - 1) contributions add."""

    terms: tuple[DielectricModel, ...] = ()

    def __init__(self, terms: Iterable = ()) -> None:
        terms = tuple(terms)
        for term in terms:
            if isinstance(term, PerfectReflector):
                raise ValueError("PerfectReflector cannot be a Composite member")
        object.__setattr__(self, "terms", terms)


DielectricModel = Union[Vacuum, PerfectReflector, Drude, Oscillator, Composite]


def permittivity_imag_axis(model: DielectricModel, xi: ArrayLike, *,
                           check: bool = True) -> ArrayLike:
    """Evaluate eps(i xi) for ``xi > 0`` (rad/s), scalar or array.

    The xi = 0 point is never evaluated here; reflection coefficients at zero
    frequency are obtained from the analytic limits in :mod:`lifshitz_plates.stack`.
    ``check=False`` skips the xi > 0 test, for frequencies built positive.
    """
    xi = np.asarray(xi, dtype=float)
    if check and np.any(xi <= 0.0):
        raise ValueError("xi must be strictly positive; the xi=0 point is handled at reflection level")
    eps = _eps_minus_one(model, xi) + 1.0
    return eps if eps.ndim else float(eps)


def _eps_minus_one(model: DielectricModel, xi: np.ndarray) -> np.ndarray:
    if isinstance(model, Vacuum):
        return np.zeros_like(xi)
    if isinstance(model, Drude):
        return model.plasma_frequency**2 / (xi * (xi + model.relaxation_frequency))
    if isinstance(model, Oscillator):
        return model.strength / (model.resonance**2 + xi**2 + model.damping * xi)
    if isinstance(model, Composite):
        total = np.zeros_like(xi)
        for term in model.terms:
            total += _eps_minus_one(term, xi)
        return total
    if isinstance(model, PerfectReflector):
        raise ValueError("no permittivity defined; handled at reflection level")
    raise TypeError(f"unknown dielectric model: {model!r}")


def static_limit(model: DielectricModel) -> tuple[int, float]:
    """Low-frequency behavior of eps(i xi): returns (order, amplitude).

    eps(i xi) ~ amplitude / xi**order as xi -> 0+, with order 0 for
    dielectrics (amplitude = eps(0)), 1 for ohmic conductors
    (amplitude = plasma^2 / relaxation) and 2 for dissipation-free
    conductors (amplitude = plasma^2).  For a Composite, the fastest
    divergence wins and amplitudes at that order add.
    """
    if isinstance(model, Vacuum):
        return 0, 1.0
    if isinstance(model, Drude):
        if model.relaxation_frequency == 0.0:
            return 2, model.plasma_frequency**2
        return 1, model.plasma_frequency**2 / model.relaxation_frequency
    if isinstance(model, Oscillator):
        return 0, 1.0 + model.strength / model.resonance**2
    if isinstance(model, Composite):
        parts = [static_limit(term) for term in model.terms]
        order = max((o for o, _ in parts), default=0)
        if order == 0:
            return 0, 1.0 + sum(amp - 1.0 for _, amp in parts)
        return order, sum(amp for o, amp in parts if o == order)
    if isinstance(model, PerfectReflector):
        raise ValueError("no permittivity defined; handled at reflection level")
    raise TypeError(f"unknown dielectric model: {model!r}")


@dataclass(frozen=True)
class BulkMetal:
    """Drude parameters of the bulk conductor plus its interband oscillators, each
    an ``Oscillator`` or a (strength, resonance, damping) triple, nothing else."""

    plasma_frequency: float      # rad/s
    relaxation_frequency: float  # rad/s
    interband: tuple[Oscillator, ...] = ()

    def __post_init__(self) -> None:
        Drude(self.plasma_frequency, self.relaxation_frequency)  # validates
        interband = tuple(Oscillator(*t) if isinstance(t, tuple) and len(t) == 3 else t
                          for t in self.interband)
        for term in interband:
            if not isinstance(term, Oscillator):
                raise ValueError("an interband term must be an Oscillator or a (strength, "
                                 f"resonance, damping) triple, got {term!r}")
        object.__setattr__(self, "interband", interband)


@dataclass(frozen=True)
class RoughPlateSpec:
    """Two-layer description of a rough metallic plate, built from its metal.

    ``bulk`` is the thick conductor: the material's Drude model.  ``surface``
    is a plane-parallel layer of thickness ``layer_thickness`` on top of it:
    the dissipation-free plasma model with squared plasma frequency reduced
    by ``fill_factor``.  The sum of the material's interband oscillators, if
    any, is one more ``Composite`` term of both.
    """

    material: BulkMetal
    layer_thickness: float  # m
    fill_factor: float      # dimensionless
    bulk: DielectricModel = field(init=False)
    surface: DielectricModel = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.layer_thickness < math.inf:
            raise ValueError(f"layer thickness must be >= 0 and finite, got {self.layer_thickness}")
        if not 0.0 < self.fill_factor <= 1.0:
            raise ValueError("fill factor must lie in (0, 1]")
        wp, interband = self.material.plasma_frequency, Composite(self.material.interband)
        bulk = Drude(wp, self.material.relaxation_frequency)
        surface = Plasma(math.sqrt(self.fill_factor) * wp)
        if interband.terms:
            bulk, surface = Composite((bulk, interband)), Composite((surface, interband))
        object.__setattr__(self, "bulk", bulk)
        object.__setattr__(self, "surface", surface)


def build_rough_plate(
    plasma_frequency: float,
    relaxation_frequency: float,
    layer_thickness: float,
    fill_factor: float,
    interband: tuple[Oscillator, ...] = (),
) -> RoughPlateSpec:
    """The rough plate of the bulk metal with these Drude parameters and
    interband oscillators: ``RoughPlateSpec(BulkMetal(...), layer_thickness, fill_factor)``."""
    return RoughPlateSpec(BulkMetal(plasma_frequency, relaxation_frequency, interband),
                          layer_thickness, fill_factor)
