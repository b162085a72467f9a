"""Physical constants shared by every module.

All internal computation is SI (rad/s, m, K, Pa).  Electron-volt inputs are
converted exactly once, at the configuration boundary, via :func:`ev_to_angular_frequency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants used by the pressure engine (single source of truth).

    h, c, k_B and e are exact in the 2019 SI; hbar = h / (2 pi) is formed as
    ``scipy.constants`` forms it, so the values match it bit for bit without
    its import cost (about 20 MB and 0.06 s).
    """

    hbar: float  # J s
    c: float     # m/s
    k_B: float   # J/K


CONSTANTS = PhysicalConstants(
    hbar=6.62607015e-34 / (2.0 * math.pi),
    c=299792458.0,
    k_B=1.380649e-23,
)

# J per eV; used only by the unit-conversion helpers below.
_EV = 1.602176634e-19


def ev_to_angular_frequency(energy_ev: float) -> float:
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * _EV / CONSTANTS.hbar


def ev2_to_angular_frequency2(energy2_ev2: float) -> float:
    """Convert a squared energy in eV^2 to a squared angular frequency in rad^2/s^2."""
    return energy2_ev2 * (_EV / CONSTANTS.hbar) ** 2
