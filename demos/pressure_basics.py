"""Tour of the pressure engine on the simplest plates.

Computes the ideal-metal benchmark at zero temperature, shows how the gold
Drude plates reduce it, and demonstrates the high-temperature (classical)
regime where the zero-frequency Matsubara term dominates the attraction.
"""

import math

from lifshitz_plates import (
    CONSTANTS,
    Drude,
    EvaluationSettings,
    LayerStack,
    PerfectReflector,
    ev_to_angular_frequency,
    ideal_pressure,
    matsubara_pressure_term,
    pressure,
    pressure_zero_temperature,
)

GOLD = dict(plasma_frequency=ev_to_angular_frequency(8.9),
            relaxation_frequency=ev_to_angular_frequency(0.0357))


def main():
    perfect = LayerStack((), PerfectReflector())
    gold = LayerStack((), Drude(**GOLD))

    print("Ideal-metal check at T = 0 (quadrature vs closed form):")
    for a_um in (0.5, 1.0, 2.0):
        a = a_um * 1e-6
        computed = pressure_zero_temperature(perfect, a)
        exact = ideal_pressure(a)
        print(f"  a = {a_um:4.1f} um   P = {computed:.6e} Pa   rel. error {abs(computed - exact) / exact:.1e}")

    print("\nGold (Drude) plates at T = 300 K:")
    settings = EvaluationSettings(temperature=300.0)
    for a_um in (0.2, 0.5, 1.0, 2.0):
        a = a_um * 1e-6
        p = pressure(gold, a, settings)
        print(f"  a = {a_um:4.1f} um   P = {p:.6e} Pa   eta = {p / ideal_pressure(a):.4f}")

    print("\nZero-frequency term of the Matsubara sum at a = 200 nm, T = 300 K:")
    term = matsubara_pressure_term(gold, 200e-9, 0, settings)
    print(f"  TE contribution: {term.te!r} Pa  (ohmic dissipation removes it entirely)")
    print(f"  TM contribution: {term.tm:.6e} Pa")

    a = 5e-6
    classical = 1.2020569031595943 * CONSTANTS.k_B * 300.0 / (4.0 * math.pi * a**3)
    full = pressure(perfect, a, settings)
    print(f"\nClassical regime, perfect reflectors at a = 5 um, T = 300 K:")
    print(f"  zeta(3) k_B T / (4 pi a^3) = {classical:.6e} Pa")
    print(f"  full Matsubara sum         = {full:.6e} Pa  (+{(full / classical - 1) * 100:.2f}% from l >= 1)")


if __name__ == "__main__":
    main()
