"""Recovering the rough-layer parameters from noisy measurements.

Generates a synthetic reduction-factor dataset from the two-layer model at
(h = 11 nm, f = 0.9) with 0.2% multiplicative noise, then runs the projected
Levenberg-Marquardt fit from a deliberately wrong starting point (and, as
always, from the fixed second start (h_scale, 0.5), with h_scale =
max(h_max / 10, 1 nm)) and prints the recovered parameters, the Gauss-Newton
curvature 2 J^T J of chi^2 and the covariance s^2 (J^T J)^-1 at the optimum.
"""

import numpy as np

from lifshitz_plates import (
    BulkMetal,
    EvaluationSettings,
    Measurement,
    RoughPlateSpec,
    eta_sweep,
    ev_to_angular_frequency,
    fit_roughness,
)

GOLD = BulkMetal(ev_to_angular_frequency(8.9), ev_to_angular_frequency(0.0357))
TRUE_H, TRUE_F = 11e-9, 0.9


def main(seed=3):
    settings = EvaluationSettings(temperature=300.0)
    d_grid = np.linspace(162e-9, 746e-9, 30)
    table = eta_sweep(RoughPlateSpec(GOLD, TRUE_H, TRUE_F), d_grid, settings)

    rng = np.random.default_rng(seed)
    noisy = table.eta * (1.0 + 0.002 * rng.standard_normal(len(table.eta)))
    data = [Measurement(d, eta) for d, eta in zip(table.d, noisy)]

    print(f"dataset: {len(data)} points, d in [{d_grid[0] * 1e9:.0f}, {d_grid[-1] * 1e9:.0f}] nm, "
          f"0.2% multiplicative noise (seed {seed})")
    print(f"truth:   h = {TRUE_H * 1e9:.2f} nm, f = {TRUE_F:.3f}")

    result = fit_roughness(data, init=(5e-9, 0.8), material=GOLD, temperature=300.0)
    print(f"fit:     h = {result.h * 1e9:.2f} nm, f = {result.f:.3f}   "
          f"chi2 = {result.chi2:.3e}, {result.n_evaluations} evaluations, "
          f"converged = {result.converged}")
    curvature = result.h_f_covariance_proxy
    print("Gauss-Newton curvature 2 J^T J of chi^2 at the optimum, in (h [m], f):")
    print(f"  [[{curvature[0, 0]:.3e}, {curvature[0, 1]:.3e}],")
    print(f"   [{curvature[1, 0]:.3e}, {curvature[1, 1]:.3e}]]")
    sigma_h, sigma_f = np.sqrt(np.diag(result.covariance))
    print(f"standard errors from s^2 (J^T J)^-1: h +- {sigma_h * 1e9:.2f} nm, f +- {sigma_f:.4f}")

    residuals = result.residuals
    print(f"residuals: rms = {np.sqrt(np.mean(residuals**2)):.2e}, "
          f"max |r| = {np.max(np.abs(residuals)):.2e}")


if __name__ == "__main__":
    main()
