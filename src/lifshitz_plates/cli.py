"""Command-line front end: pressure points, reduction-factor sweeps, model
comparisons, and roughness fits, emitted as CSV for external plotting.

Configuration file (JSON; every key optional, no other key allowed, flags
override):

    {
      "material":    {"plasma_frequency_eV": 8.9, "relaxation_eV": 0.0357,
                      "oscillators": [{"strength_eV2": ..., "resonance_eV": ...,
                                       "damping_eV": ...}]},
      "model":       "drude" | "plasma" | "two-layer" | "perfect",
      "roughness":   {"h_nm": 11.0, "f": 0.9},
      "temperature_K": 300.0,
      "zero_temperature": false,
      "grid":        {"start_um": 0.1, "stop_um": 5.0, "points": 30,
                      "spacing": "linear" | "log"},
      "engine":      {"quad_rel_tol": 1e-9, "sum_rel_tol": 1e-10,
                      "consecutive_small_terms": 3, "l_max": 5000}
    }

Electron-volt and nm/um inputs are accepted only here and converted once.
In ``compare``, a model token may carry parameters, e.g.
``two-layer:h_nm=11,f=0.9``.  All numeric output uses 9 significant digits
(format ``%.8e``) so repeated runs are byte-identical.

Exit codes: 0 success, 2 input/validation error, 3 non-convergence,
1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .constants import ev2_to_angular_frequency2, ev_to_angular_frequency
from .engine import (
    EvaluationSettings,
    MatsubaraTruncationError,
    QuadratureBudgetError,
    eta_sweep,
)
from .fit import fit_roughness, load_measurements
from .materials import BulkMetal, PerfectReflector, RoughPlateSpec
from .stack import LayerStack

_MODELS = ("drude", "plasma", "two-layer", "perfect")
_DEFAULT_MATERIAL_EV = {"plasma_frequency_eV": 8.9, "relaxation_eV": 0.0357}
# The grammar above as types: float stands for any JSON number, a tuple lists
# the allowed strings, and a list item's object must carry every key it names.
_GRAMMAR = {
    "material": {"plasma_frequency_eV": float, "relaxation_eV": float,
                 "oscillators": [{"strength_eV2": float, "resonance_eV": float,
                                  "damping_eV": float}]},
    "model": str,
    "roughness": {"h_nm": float, "f": float},
    "temperature_K": float,
    "zero_temperature": bool,
    "grid": {"start_um": float, "stop_um": float, "points": int, "spacing": ("linear", "log")},
    "engine": {"quad_rel_tol": float, "sum_rel_tol": float, "consecutive_small_terms": int,
               "l_max": int},
}
# JSON types accepted for each type of the grammar, and how an error names them
_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
          str: ((str,), "a string"), bool: ((bool,), "true or false"),
          dict: ((dict,), "a JSON object"), list: ((list,), "a list")}


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _resolve(args) -> argparse.Namespace:
    """The command's inputs in one namespace: the flags, with the config file laid under them.

    A flag given on the command line wins over the config.  Every config value
    is checked against ``_GRAMMAR`` first, and a key outside it is refused.
    ``model`` becomes the list of model tokens; ``material`` (BulkMetal) and
    ``settings`` (EvaluationSettings) are built here, once.  Nothing else
    reads the config file.
    """
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config file must contain a JSON object")

    def check(value, kind, name: str, required: bool = False) -> None:
        base = kind if isinstance(kind, type) else type(kind)
        if base is tuple:
            ok, wanted = value in kind, " or ".join(map(json.dumps, kind))
        else:
            ok, wanted = type(value) in _KINDS[base][0], _KINDS[base][1]
        if not ok:
            raise ConfigError(f"config key {name!r} must be {wanted}, got {json.dumps(value)}")
        if base is list:
            for i, item in enumerate(value):
                check(item, kind[0], f"{name}[{i}]", required=True)
        elif base is dict:
            for key in {**kind, **value}:
                path = f"{name}.{key}" if name else key
                if key not in kind:
                    raise ConfigError(f"config key {path!r} is unknown")
                if key in value:
                    check(value[key], kind[key], path)
                elif required:
                    raise ConfigError(f"config key {path!r} is missing")

    check(config, _GRAMMAR, "")
    grid, roughness = config.get("grid", {}), config.get("roughness", {})
    under = {"model": [config["model"]] if config.get("model") else [],
             "h_nm": roughness.get("h_nm"), "f": roughness.get("f"),
             "temp": config.get("temperature_K", 300.0), "dmin": grid.get("start_um"),
             "dmax": grid.get("stop_um"), "points": grid.get("points")}
    for name, value in under.items():
        if getattr(args, name, None) is None:
            setattr(args, name, value)
    args.log = getattr(args, "log", False) or grid.get("spacing") == "log"

    material = {**_DEFAULT_MATERIAL_EV, **config.get("material", {})}
    oscillators = [(ev2_to_angular_frequency2(osc["strength_eV2"]),
                    ev_to_angular_frequency(osc["resonance_eV"]),
                    ev_to_angular_frequency(osc["damping_eV"]))
                   for osc in material.get("oscillators", [])]
    args.material = BulkMetal(ev_to_angular_frequency(material["plasma_frequency_eV"]),
                              ev_to_angular_frequency(material["relaxation_eV"]),
                              oscillators)
    try:
        args.settings = EvaluationSettings(
            temperature=args.temp, zero_temperature=args.t0 or config.get("zero_temperature", False),
            **config.get("engine", {}))
    except ValueError as exc:
        raise ConfigError(f"invalid engine settings: {exc}") from exc
    return args


def _build_plate(args, token: str | None = None):
    """Plate object for one model ``token``, by default the one model selector."""
    if token is None:
        if len(args.model) != 1:
            raise ConfigError(
                "exactly one model selector is required (flag --model or config key 'model')")
        (token,) = args.model
    name, _, params_text = token.partition(":")
    if name not in _MODELS:
        raise ConfigError(f"unknown model {name!r}; choose from {', '.join(_MODELS)}")
    params = {}
    for item in params_text.split(",") if params_text else ():
        key, sep, value = item.partition("=")
        if not sep or key not in ("h_nm", "f"):
            raise ConfigError(f"bad model parameter {item!r}; use h_nm=<x>,f=<x>")
        try:
            params[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad numeric value in model parameter {item!r}") from None
    if name == "perfect":
        return LayerStack((), PerfectReflector())
    h_nm, f = params.get("h_nm", args.h_nm), params.get("f", args.f)
    if name != "two-layer":
        h_nm, f = 0.0, 1.0
    elif h_nm is None:
        raise ConfigError("two-layer model requires key 'h_nm' (flag --h-nm)")
    elif f is None:
        raise ConfigError("two-layer model requires key 'f' (flag --f)")
    plate = RoughPlateSpec(args.material, h_nm * 1e-9, f)
    if name == "two-layer":
        return plate
    # the Drude plate is the rough plate's bulk, the plasma plate its surface at f = 1
    return LayerStack((), plate.bulk if name == "drude" else plate.surface)


def _grid_from(args) -> np.ndarray:
    start, stop, points = args.dmin, args.dmax, args.points
    if start is None or stop is None or points is None:
        raise ConfigError("separation grid needs --dmin, --dmax and --points (or a config grid)")
    if points < 1:
        raise ConfigError("grid must have at least one point")
    if points > 1 and not start < stop:
        raise ConfigError("grid start must be below stop")
    if not start > 0.0:
        raise ConfigError("grid start must be > 0")
    if points == 1:
        return np.array([start * 1e-6])
    if args.log:
        return np.geomspace(start, stop, points) * 1e-6
    return np.linspace(start, stop, points) * 1e-6


def _emit(header: str, columns, out_path: str | None) -> None:
    """Write the CSV table ``header``, then row i of the equal-length ``columns``."""
    text = "\n".join([header] + [",".join(map(_fmt, row)) for row in zip(*columns)]) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_pressure(args) -> int:
    table = eta_sweep(_build_plate(args), [args.d_um * 1e-6], args.settings)
    _emit("d_um,a_m,P_Pa,eta", [[args.d_um], table.a, table.pressure, table.eta], args.out)
    return 0


def cmd_sweep(args) -> int:
    table = eta_sweep(_build_plate(args), _grid_from(args), args.settings)
    _emit("d_um,a_um,P_Pa,P_id_Pa,eta", [table.d * 1e6, table.a * 1e6, table.pressure,
                                         table.pressure_ideal, table.eta], args.out)
    return 0


def _column_label(token: str) -> str:
    return "eta_" + token.replace(":", "_").replace("=", "").replace(",", "_")


def cmd_compare(args) -> int:
    tokens = args.model
    if len(tokens) < 2:
        raise ConfigError("compare needs at least two --model selectors")
    d_values = _grid_from(args)
    columns = [eta_sweep(_build_plate(args, token), d_values, args.settings).eta
               for token in tokens]
    _emit("d_um," + ",".join(_column_label(t) for t in tokens) + ",max_pairwise_delta",
          [d_values * 1e6, *columns, np.ptp(np.stack(columns), axis=0)], args.out)
    return 0


def cmd_fit(args) -> int:
    material, settings = args.material, args.settings
    try:
        data = load_measurements(args.data)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from exc
    init = ((5.0 if args.h_nm is None else args.h_nm) / 1e9, 0.8 if args.f is None else args.f)
    result = fit_roughness(data, init, material, settings.temperature, settings=settings)

    report = result.to_dict()
    report["h_nm"] = result.h * 1e9
    report["settings"] = {"temperature_K" if key == "temperature" else key: value
                          for key, value in dataclasses.asdict(settings).items()}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")

    d, eta_obs, sigma = np.array([(m.d, m.eta, m.sigma) for m in data]).T
    residual = sigma * result.residuals
    _emit("d_um,eta_obs,eta_fit,residual", [d * 1e6, eta_obs, eta_obs + residual, residual],
          args.out or "fit_residuals.csv")
    return 0 if result.converged else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifshitz-plates",
        description="Casimir pressure between stratified metallic plates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--model", action="append",
                        help="model selector (drude|plasma|two-layer|perfect); "
                             "repeatable for compare, may carry h_nm=..,f=..")
    common.add_argument("--temp", type=float, help="temperature in K")
    common.add_argument("--t0", action="store_true", help="zero-temperature mode")
    common.add_argument("--h-nm", type=float, dest="h_nm", help="surface layer thickness in nm")
    common.add_argument("--f", type=float, help="metallic fill fraction of the surface layer")
    to_stdout = argparse.ArgumentParser(add_help=False)
    to_stdout.add_argument("--out", help="output path (default: stdout)")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--dmin", type=float, help="smallest average separation in um")
    grid.add_argument("--dmax", type=float, help="largest average separation in um")
    grid.add_argument("--points", type=int, help="number of grid points")
    grid.add_argument("--log", action="store_true", help="log-spaced grid")

    p = sub.add_parser("pressure", parents=[common, to_stdout], help="pressure at one separation")
    p.add_argument("d_um", type=float, help="average separation in um")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("sweep", parents=[common, to_stdout, grid], help="reduction-factor sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", parents=[common, to_stdout, grid],
                       help="eta columns for several models")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", parents=[common], help="fit (h, f) to measured reduction factors")
    p.add_argument("--out", help="residual table path (default: fit_residuals.csv)")
    p.add_argument("--data", required=True, help="measurements CSV (d_um|d_nm, eta[, sigma])")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(_resolve(args))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MatsubaraTruncationError, QuadratureBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
