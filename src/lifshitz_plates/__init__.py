"""Casimir pressure between stratified metallic plates at finite temperature.

Dielectric models on the imaginary frequency axis, multilayer reflection
coefficients with analytic zero-frequency limits, the Matsubara-sum pressure
engine, and least-squares fitting of the rough-surface layer parameters.
"""

from .constants import CONSTANTS, PhysicalConstants, ev_to_angular_frequency, ev2_to_angular_frequency2
from .materials import (
    BulkMetal,
    Composite,
    DielectricModel,
    Drude,
    Oscillator,
    PerfectReflector,
    Plasma,
    RoughPlateSpec,
    Vacuum,
    build_rough_plate,
    permittivity_imag_axis,
    static_limit,
)
from .stack import LayerStack, as_layer_stack
from .engine import (
    EvaluationSettings,
    MatsubaraTruncationError,
    PolarizedTerm,
    QuadratureBudgetError,
    SweepTable,
    eta_sweep,
    gap_from_average,
    ideal_pressure,
    matsubara_frequency,
    matsubara_pressure_term,
    pressure,
    pressure_zero_temperature,
)
from .fit import (
    FitResult,
    Measurement,
    dump_measurements,
    fit_roughness,
    load_measurements,
    objective,
)

__all__ = [
    "BulkMetal",
    "CONSTANTS",
    "Composite",
    "DielectricModel",
    "Drude",
    "EvaluationSettings",
    "FitResult",
    "LayerStack",
    "MatsubaraTruncationError",
    "Measurement",
    "Oscillator",
    "PerfectReflector",
    "PhysicalConstants",
    "Plasma",
    "PolarizedTerm",
    "QuadratureBudgetError",
    "RoughPlateSpec",
    "SweepTable",
    "Vacuum",
    "as_layer_stack",
    "build_rough_plate",
    "dump_measurements",
    "eta_sweep",
    "ev2_to_angular_frequency2",
    "ev_to_angular_frequency",
    "fit_roughness",
    "gap_from_average",
    "ideal_pressure",
    "load_measurements",
    "matsubara_frequency",
    "matsubara_pressure_term",
    "objective",
    "permittivity_imag_axis",
    "pressure",
    "pressure_zero_temperature",
    "static_limit",
]

__version__ = "0.1.0"
