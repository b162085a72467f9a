"""Command-line front end: pressure points, reduction-factor sweeps, model
comparisons, and roughness fits, emitted as CSV for external plotting.

Configuration file (JSON; every key optional, flags override):

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
from .materials import (
    BulkMetal,
    Composite,
    Drude,
    OscillatorSum,
    PerfectReflector,
    Plasma,
    build_rough_plate,
)
from .stack import LayerStack

_MODELS = ("drude", "plasma", "two-layer", "perfect")
_DEFAULT_MATERIAL_EV = {"plasma_frequency_eV": 8.9, "relaxation_eV": 0.0357}


class ConfigError(ValueError):
    """Invalid configuration or command-line input."""


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config file must contain a JSON object")
    return config


def _material_from(config: dict) -> BulkMetal:
    block = {**_DEFAULT_MATERIAL_EV, **config.get("material", {})}
    oscillators = [
        (
            ev2_to_angular_frequency2(osc["strength_eV2"]),
            ev_to_angular_frequency(osc["resonance_eV"]),
            ev_to_angular_frequency(osc["damping_eV"]),
        )
        for osc in block.get("oscillators", [])
    ]
    return BulkMetal(
        plasma_frequency=ev_to_angular_frequency(block["plasma_frequency_eV"]),
        relaxation_frequency=ev_to_angular_frequency(block["relaxation_eV"]),
        interband=OscillatorSum(oscillators) if oscillators else None,
    )


def _settings_from(config: dict, args) -> EvaluationSettings:
    engine = dict(config.get("engine", {}))
    temperature = args.temp if args.temp is not None else config.get("temperature_K", 300.0)
    zero_t = bool(args.t0) or bool(config.get("zero_temperature", False))
    try:
        return EvaluationSettings(temperature=temperature, zero_temperature=zero_t, **engine)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid engine settings: {exc}") from exc


def _parse_model_token(token: str) -> tuple[str, dict]:
    name, _, params_text = token.partition(":")
    if name not in _MODELS:
        raise ConfigError(f"unknown model {name!r}; choose from {', '.join(_MODELS)}")
    params = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or key not in ("h_nm", "f"):
                raise ConfigError(f"bad model parameter {item!r}; use h_nm=<x>,f=<x>")
            try:
                params[key] = float(value)
            except ValueError:
                raise ConfigError(f"bad numeric value in model parameter {item!r}") from None
    return name, params


def _roughness_from(config: dict, args, params: dict, required: bool):
    block = config.get("roughness", {})
    h_nm = params.get("h_nm", args.h_nm if args.h_nm is not None else block.get("h_nm"))
    f = params.get("f", args.f if args.f is not None else block.get("f"))
    if required:
        if h_nm is None:
            raise ConfigError("two-layer model requires key 'h_nm' (flag --h-nm)")
        if f is None:
            raise ConfigError("two-layer model requires key 'f' (flag --f)")
    return h_nm, f


def _build_plate(token: str, config: dict, args):
    """Plate object for one model token."""
    name, params = _parse_model_token(token)
    material = _material_from(config)
    interband = material.interband
    if name == "perfect":
        return LayerStack((), PerfectReflector())
    if name == "drude":
        bulk = Drude(material.plasma_frequency, material.relaxation_frequency)
        model = Composite((bulk, interband)) if interband else bulk
        return LayerStack((), model)
    if name == "plasma":
        body = Plasma(material.plasma_frequency)
        model = Composite((body, interband)) if interband else body
        return LayerStack((), model)
    h_nm, f = _roughness_from(config, args, params, required=True)
    return build_rough_plate(
        material.plasma_frequency, material.relaxation_frequency,
        h_nm * 1e-9, f, interband,
    )


def _resolve_models(args, config: dict) -> list[str]:
    if args.model:
        return list(args.model)
    if config.get("model"):
        return [config["model"]]
    return []


def _single_model(args, config: dict) -> str:
    models = _resolve_models(args, config)
    if len(models) != 1:
        raise ConfigError("exactly one model selector is required (flag --model or config key 'model')")
    return models[0]


def _grid_from(config: dict, args) -> np.ndarray:
    block = dict(config.get("grid", {}))
    start = args.dmin if args.dmin is not None else block.get("start_um")
    stop = args.dmax if args.dmax is not None else block.get("stop_um")
    points = args.points if args.points is not None else block.get("points")
    log_spacing = args.log or block.get("spacing") == "log"
    if start is None or stop is None or points is None:
        raise ConfigError("separation grid needs --dmin, --dmax and --points (or a config grid)")
    points = int(points)
    if points < 1:
        raise ConfigError("grid must have at least one point")
    if points > 1 and not start < stop:
        raise ConfigError("grid start must be below stop")
    if not start > 0.0:
        raise ConfigError("grid start must be > 0")
    if points == 1:
        return np.array([start * 1e-6])
    if log_spacing:
        return np.geomspace(start, stop, points) * 1e-6
    return np.linspace(start, stop, points) * 1e-6


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_pressure(args) -> int:
    config = _load_config(args.config)
    plate = _build_plate(_single_model(args, config), config, args)
    settings = _settings_from(config, args)
    table = eta_sweep(plate, [args.d_um * 1e-6], settings)
    _emit(
        ["d_um,a_m,P_Pa,eta",
         ",".join([_fmt(args.d_um), _fmt(table.a[0]), _fmt(table.pressure[0]), _fmt(table.eta[0])])],
        args.out,
    )
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    plate = _build_plate(_single_model(args, config), config, args)
    settings = _settings_from(config, args)
    d_values = _grid_from(config, args)
    table = eta_sweep(plate, d_values, settings)
    lines = ["d_um,a_um,P_Pa,P_id_Pa,eta"]
    for d, a, p, p_id, eta in table.rows():
        lines.append(",".join([_fmt(d * 1e6), _fmt(a * 1e6), _fmt(p), _fmt(p_id), _fmt(eta)]))
    _emit(lines, args.out)
    return 0


def _column_label(token: str) -> str:
    return "eta_" + token.replace(":", "_").replace("=", "").replace(",", "_")


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    tokens = _resolve_models(args, config)
    if len(tokens) < 2:
        raise ConfigError("compare needs at least two --model selectors")
    settings = _settings_from(config, args)
    d_values = _grid_from(config, args)
    columns = []
    for token in tokens:
        plate = _build_plate(token, config, args)
        columns.append(eta_sweep(plate, d_values, settings).eta)
    stacked = np.stack(columns)
    max_delta = stacked.max(axis=0) - stacked.min(axis=0)
    lines = ["d_um," + ",".join(_column_label(t) for t in tokens) + ",max_pairwise_delta"]
    for i, d in enumerate(np.sort(d_values)):
        fields = [_fmt(d * 1e6)] + [_fmt(col[i]) for col in columns] + [_fmt(max_delta[i])]
        lines.append(",".join(fields))
    _emit(lines, args.out)
    return 0


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    material = _material_from(config)
    settings = _settings_from(config, args)
    try:
        data = load_measurements(args.data)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}") from exc
    h_nm, f = _roughness_from(config, args, {}, required=False)
    init = ((h_nm if h_nm is not None else 5.0) * 1e-9, f if f is not None else 0.8)
    result = fit_roughness(data, init, material, settings.temperature, settings=settings)

    report = result.to_dict()
    report["h_nm"] = result.h * 1e9
    report["settings"] = {"temperature_K" if key == "temperature" else key: value
                          for key, value in dataclasses.asdict(settings).items()}
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")

    plate = build_rough_plate(
        material.plasma_frequency, material.relaxation_frequency,
        result.h, result.f, material.interband,
    )
    table = eta_sweep(plate, [m.d for m in data], settings)
    lines = ["d_um,eta_obs,eta_fit,residual"]
    ordered = sorted(data, key=lambda m: m.d)
    for i, m in enumerate(ordered):
        lines.append(",".join([
            _fmt(m.d * 1e6), _fmt(m.eta), _fmt(table.eta[i]), _fmt(table.eta[i] - m.eta),
        ]))
    Path(args.out or "fit_residuals.csv").write_text("\n".join(lines) + "\n")
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
    common.add_argument("--out", help="output path (default: stdout)")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--dmin", type=float, help="smallest average separation in um")
    grid.add_argument("--dmax", type=float, help="largest average separation in um")
    grid.add_argument("--points", type=int, help="number of grid points")
    grid.add_argument("--log", action="store_true", help="log-spaced grid")

    p = sub.add_parser("pressure", parents=[common], help="pressure at one separation")
    p.add_argument("d_um", type=float, help="average separation in um")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("sweep", parents=[common, grid], help="reduction-factor sweep")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", parents=[common, grid], help="eta columns for several models")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("fit", parents=[common], help="fit (h, f) to measured reduction factors")
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
        return args.func(args)
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
