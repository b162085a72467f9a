import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lifshitz_plates import (
    Composite,
    Drude,
    EvaluationSettings,
    LayerStack,
    Oscillator,
    Plasma,
    build_rough_plate,
    dump_measurements,
    engine,
    eta_sweep,
    ev2_to_angular_frequency2,
    ev_to_angular_frequency,
)
from lifshitz_plates import cli
from lifshitz_plates import fit as fit_module
from lifshitz_plates.cli import main

from conftest import GOLD_GAMMA, GOLD_WP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def test_pressure_perfect_reflector_zero_temperature(capsys):
    code, out, _ = run_cli(capsys, "pressure", "1.0", "--model", "perfect", "--t0")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d_um", "a_m", "P_Pa", "eta"]
    (d_um, a_m, p_pa, eta), = rows
    assert d_um == 1.0
    assert a_m == pytest.approx(1e-6)
    assert p_pa == pytest.approx(1.3001e-3, rel=1e-4)
    assert eta == pytest.approx(1.0, abs=1e-8)


def test_pressure_degenerate_two_layer_matches_drude(capsys):
    code_a, out_a, _ = run_cli(
        capsys, "pressure", "0.7", "--model", "two-layer", "--h-nm", "0", "--f", "1.0")
    code_b, out_b, _ = run_cli(capsys, "pressure", "0.7", "--model", "drude")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_pressure_missing_fill_factor_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "pressure", "0.7", "--model", "two-layer", "--h-nm", "11")
    assert code == 2
    assert "'f'" in err


def test_pressure_requires_model(capsys):
    code, _, err = run_cli(capsys, "pressure", "0.7")
    assert code == 2
    assert "model" in err


@pytest.mark.parametrize("grid", [("pressure", "0.01"),
                                  ("sweep", "--dmin", "0.01", "--dmax", "0.01", "--points", "1")])
def test_infeasible_separation_reported_once(capsys, grid):
    # 2 h (1 - f) = 11 nm exceeds d = 10 nm
    code, _, err = run_cli(capsys, *grid, "--model", "two-layer", "--h-nm", "11", "--f", "0.5")
    assert code == 2
    assert err.count("average separation d") == 1


def test_sweep_perfect_reflector(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "perfect", "--t0",
        "--dmin", "0.5", "--dmax", "2.0", "--points", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d_um", "a_um", "P_Pa", "P_id_Pa", "eta"]
    assert len(rows) == 3
    assert [row[0] for row in rows] == sorted(row[0] for row in rows)
    for row in rows:
        assert row[4] == pytest.approx(1.0, abs=1e-8)


def test_sweep_accepts_config_file(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": "drude",
        "temperature_K": 300.0,
        "grid": {"start_um": 0.5, "stop_um": 1.0, "points": 2, "spacing": "log"},
        "engine": {"quad_rel_tol": 1e-8},
    }))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 2


def test_sweep_rejects_bad_engine_key(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": "drude", "engine": {"bogus": 1}}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config),
                           "--dmin", "0.5", "--dmax", "1.0", "--points", "2")
    assert code == 2
    assert "engine" in err


def test_sweep_non_convergence_exit_code(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"engine": {"l_max": 1}}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config), "--model", "drude",
                           "--dmin", "0.2", "--dmax", "0.5", "--points", "2")
    assert code == 3
    assert "Matsubara" in err


def test_quadrature_budget_exit_code(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "_MAX_REFINEMENTS", 0)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"engine": {"quad_rel_tol": 1e-12}}))
    code, out, err = run_cli(capsys, "pressure", "0.162", "--config", str(config),
                             "--model", "drude", "--t0")
    assert code == 3
    assert out == ""
    assert "quadrature not converged" in err


def test_compare_orders_models(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--model", "drude", "--model", "plasma",
        "--dmin", "0.5", "--dmax", "2.0", "--points", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["d_um", "eta_drude", "eta_plasma", "max_pairwise_delta"]
    for _, eta_drude, eta_plasma, delta in rows:
        assert eta_drude < eta_plasma
        # columns are rounded to 9 significant digits independently
        assert delta == pytest.approx(eta_plasma - eta_drude, abs=1e-8)


def test_compare_parses_model_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "compare",
        "--model", "two-layer:h_nm=11,f=0.9", "--model", "two-layer:h_nm=2,f=0.5",
        "--model", "drude",
        "--dmin", "0.5", "--dmax", "1.0", "--points", "2")
    assert code == 0
    _, rows = parse_csv(out)
    for _, eta_11, eta_2, eta_drude, _delta in rows:
        # the smoother surface lies closer to the Drude curve
        assert eta_drude < eta_2 < eta_11


def test_compare_needs_two_models(capsys):
    code, _, err = run_cli(capsys, "compare", "--model", "perfect",
                           "--dmin", "0.5", "--dmax", "1.0", "--points", "2")
    assert code == 2
    assert "two" in err


def test_fit_recovers_synthetic_parameters(capsys, tmp_path, synthesize):
    data = synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 6))
    data_path = tmp_path / "meas.csv"
    dump_measurements(data, data_path)
    out_path = tmp_path / "residuals.csv"
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(data_path),
        "--h-nm", "9", "--f", "0.85", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["converged"]
    assert report["h_nm"] == pytest.approx(11.0, abs=0.2)
    assert report["f"] == pytest.approx(0.9, abs=0.01)
    assert report["settings"]["temperature_K"] == 300.0
    cov = np.array(report["covariance"])
    assert cov.shape == (2, 2) and cov[0, 1] == cov[1, 0]
    header, rows = parse_csv(out_path.read_text())
    assert header == ["d_um", "eta_obs", "eta_fit", "residual"]
    assert len(rows) == 6
    assert max(abs(row[3]) for row in rows) < 1e-5


def test_fit_zero_temperature_switch(capsys, tmp_path, synthesize):
    settings = EvaluationSettings(zero_temperature=True, quad_rel_tol=1e-6, sum_rel_tol=1e-8)
    data = synthesize(11e-9, 0.9, np.linspace(250e-9, 700e-9, 4), settings=settings)
    data_path = tmp_path / "meas.csv"
    dump_measurements(data, data_path)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"engine": {"quad_rel_tol": 1e-6, "sum_rel_tol": 1e-8}}))
    code, out, _ = run_cli(
        capsys, "fit", "--data", str(data_path), "--config", str(config), "--t0",
        "--h-nm", "10", "--f", "0.88", "--out", str(tmp_path / "residuals.csv"))
    assert code == 0
    report = json.loads(out)
    assert report["settings"]["zero_temperature"] is True
    assert report["h_nm"] == pytest.approx(11.0, abs=1.0)
    assert report["f"] == pytest.approx(0.9, abs=0.05)


def test_fit_sweeps_only_for_its_evaluations(capsys, tmp_path, synthesize, monkeypatch):
    """The residual table comes from the fit's own residuals at (h, f): the
    command makes no sweep beyond the fit's evaluations."""
    data_path = tmp_path / "meas.csv"
    dump_measurements(synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 6), noise=0.002,
                                 seed=5, weighted=True), data_path)
    calls = []

    def counting(*args):
        calls.append(args)
        return eta_sweep(*args)

    monkeypatch.setattr(fit_module, "eta_sweep", counting)
    monkeypatch.setattr(cli, "eta_sweep", counting)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # no child
    code, out, _ = run_cli(capsys, "fit", "--data", str(data_path),
                           "--out", str(tmp_path / "residuals.csv"))
    assert code == 0
    assert len(calls) == json.loads(out)["n_evaluations"]


@pytest.mark.parametrize("argv, message", [
    (["--h-nm", "150"], "initial h must lie in [0, h_max]: h0 = 1.5e-07 m, h_max = 1e-07 m"),
    (["--f", "0"], "initial f must lie in (0, 1]: f0 = 0.0"),
], ids=["h-above-h-max", "f-zero"])
def test_fit_refuses_a_start_outside_the_domain(capsys, tmp_path, synthesize, argv, message):
    """The refusal names the start and the bound it breaks; the CLI has no
    flag for h_max, so the message is the only place it shows."""
    data_path = tmp_path / "meas.csv"
    dump_measurements(synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4)), data_path)
    code, out, err = run_cli(capsys, "fit", "--data", str(data_path), *argv,
                             "--out", str(tmp_path / "residuals.csv"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "residuals.csv").exists()


def test_fit_starts_at_h_max(capsys, tmp_path, synthesize):
    """--h-nm 100 is h_max = 100 nm exactly, a start inside the domain."""
    data_path = tmp_path / "meas.csv"
    dump_measurements(synthesize(11e-9, 0.9, np.linspace(200e-9, 700e-9, 4)), data_path)
    code, out, err = run_cli(capsys, "fit", "--data", str(data_path), "--h-nm", "100",
                             "--f", "0.9", "--out", str(tmp_path / "residuals.csv"))
    assert code in (0, 3), err
    assert json.loads(out)["h_nm"] <= 100.0


def test_fit_missing_data_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fit", "--data", str(tmp_path / "absent.csv"))
    assert code == 2
    assert "data file" in err


@pytest.mark.parametrize("command, default", [("fit", "fit_residuals.csv"), ("sweep", "stdout"),
                                              ("pressure", "stdout"), ("compare", "stdout")])
def test_help_names_the_out_default(capsys, monkeypatch, command, default):
    """fit --help said its residual table went to stdout by default, but it
    goes to fit_residuals.csv; the other commands do write to stdout."""
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.strip().startswith("--out")]
    assert line.endswith(f"(default: {default})")


def test_cli_output_is_deterministic():
    argv = [sys.executable, "-m", "lifshitz_plates.cli", "sweep", "--model", "drude",
            "--dmin", "0.3", "--dmax", "3.0", "--points", "5", "--log"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\n") == 6


def test_cli_import_leaves_quadpack_unloaded():
    """The CLI and the default integration route never import scipy, nor a
    process pool (the fitter forks by hand); the kperp oracle imports
    scipy.integrate when it is called."""
    script = (
        "import sys\n"
        "import lifshitz_plates.cli\n"
        "assert not [m for m in sys.modules if m.startswith('scipy')], 'loaded by import'\n"
        "pools = [m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')]\n"
        "assert not pools, pools\n"
        "from lifshitz_plates import LayerStack, PerfectReflector, pressure\n"
        "pressure(LayerStack((), PerfectReflector()), 5e-6, integration_variable='kperp')\n"
        "assert 'scipy.integrate' in sys.modules, 'not loaded by the kperp route'\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


def _sweep_argv(*extra):
    return ["sweep", "--model", "drude", "--dmin", "0.5", "--dmax", "1.0", "--points", "2",
            *extra]


@pytest.mark.parametrize("text, fragment", [
    (None, "cannot read config file: "),
    ('{"model": ', "malformed config file: Expecting value"),
    ("[1]", "config file must contain a JSON object"),
])
def test_unusable_config_file_is_validation_error(capsys, tmp_path, text, fragment):
    config = tmp_path / "run.json"
    if text is not None:
        config.write_text(text)
    code, out, err = run_cli(capsys, *_sweep_argv("--config", str(config)))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + fragment)


@pytest.mark.parametrize("argv, fragment", [
    (["pressure", "0.5", "--model", "gold"],
     "unknown model 'gold'; choose from drude, plasma, two-layer, perfect"),
    (["pressure", "0.5", "--model", "two-layer:h=11"],
     "bad model parameter 'h=11'; use h_nm=<x>,f=<x>"),
    (["pressure", "0.5", "--model", "two-layer:h_nm=abc,f=0.9"],
     "bad numeric value in model parameter 'h_nm=abc'"),
    (["pressure", "0.5", "--model", "two-layer", "--f", "0.9"],
     "two-layer model requires key 'h_nm' (flag --h-nm)"),
    (["sweep", "--model", "drude", "--dmin", "0.5", "--dmax", "1.0"],
     "separation grid needs --dmin, --dmax and --points (or a config grid)"),
    (_sweep_argv("--points", "0"), "grid must have at least one point"),
    (["sweep", "--model", "drude", "--dmin", "1.0", "--dmax", "0.5", "--points", "2"],
     "grid start must be below stop"),
    (["sweep", "--model", "drude", "--dmin", "0", "--dmax", "0.5", "--points", "1"],
     "grid start must be > 0"),
    (["pressure", "0.5", "--model", "two-layer", "--h-nm", "nan", "--f", "0.9"],
     "layer thickness must be >= 0 and finite, got nan"),
    (["pressure", "0.5", "--model", "two-layer", "--h-nm", "inf", "--f", "0.9"],
     "layer thickness must be >= 0 and finite, got inf"),
])
def test_bad_model_or_grid_is_validation_error(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {fragment}\n")


@pytest.mark.parametrize("argv, config, message", [
    (["--temp", "0"], None, "temperature must be > 0 unless zero_temperature is set"),
    (["--temp", "nan"], None, "temperature must be finite, got nan"),
    ([], {"engine": {"quad_rel_tol": 0}}, "quad_rel_tol must lie in (0, 1e-3]"),
    ([], {"engine": {"l_max": 0}}, "l_max must be an integer >= 1, got 0"),
], ids=["zero-temperature-without-t0", "nan-temperature", "zero-quad-tol", "zero-l-max"])
def test_bad_engine_settings_are_validation_errors(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = run_cli(capsys, "pressure", "0.5", "--model", "drude", *argv)
    assert (code, out, err) == (2, "", f"error: invalid engine settings: {message}\n")


def test_sweep_out_writes_the_table(capsys, tmp_path):
    code, stdout_table, _ = run_cli(capsys, *_sweep_argv())
    assert code == 0
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, *_sweep_argv("--out", str(out_path)))
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text() == stdout_table


def test_config_oscillators_reach_every_metal_plate(capsys, tmp_path):
    """A config interband term is added to the Drude, plasma and two-layer plates
    exactly as the library adds it."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"material": {"oscillators": [
        {"strength_eV2": 20.0, "resonance_eV": 3.0, "damping_eV": 0.5}]}}))
    argv = ["compare", "--model", "drude", "--model", "plasma",
            "--model", "two-layer:h_nm=11,f=0.9", "--dmin", "0.5", "--dmax", "1.0",
            "--points", "2"]
    code, out, _ = run_cli(capsys, *argv, "--config", str(config))
    assert code == 0
    _, rows = parse_csv(out)
    code, bare_out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, bare_rows = parse_csv(bare_out)

    interband = Composite([Oscillator(ev2_to_angular_frequency2(20.0),
                                      ev_to_angular_frequency(3.0), ev_to_angular_frequency(0.5))])
    spec = build_rough_plate(GOLD_WP, GOLD_GAMMA, 11e-9, 0.9, interband.terms)
    plates = [LayerStack((), Composite((Drude(GOLD_WP, GOLD_GAMMA), interband))),
              LayerStack((), Composite((Plasma(GOLD_WP), interband))), spec]
    d_values = np.array([0.5e-6, 1.0e-6])
    for column, plate in enumerate(plates, start=1):
        eta = eta_sweep(plate, d_values, EvaluationSettings(temperature=300.0)).eta
        assert [row[column] for row in rows] == [float(f"{x:.8e}") for x in eta]
        assert all(row[column] != bare[column] for row, bare in zip(rows, bare_rows))


@pytest.mark.parametrize("config, argv, key", [
    ({"material": {"oscillators": [{"strength_eV2": 1}]}}, ["--model", "drude"],
     "'material.oscillators[0].resonance_eV' is missing"),
    ({"material": {"plasma_frequency_eV": "8.9"}}, ["--model", "drude"],
     "'material.plasma_frequency_eV' must be a number"),
    ({"material": [1]}, ["--model", "drude"], "'material' must be a JSON object"),
    ({"engine": [1, 2]}, ["--model", "drude"], "'engine' must be a JSON object"),
    ({"model": 5}, [], "'model' must be a string"),
    ({"roughness": {"h_nm": "11", "f": 0.9}}, ["--model", "two-layer"],
     "'roughness.h_nm' must be a number"),
    ({"temprature_K": 10}, ["--model", "drude"], "'temprature_K' is unknown"),
    ({"grid": {"start_um": 0.5, "stop": 1.0}}, ["--model", "drude"], "'grid.stop' is unknown"),
    ({"engine": {"quad_tol": 1e-9}}, ["--model", "drude"], "'engine.quad_tol' is unknown"),
    ({"material": {"oscillators": [{"strength_eV2": 1.0, "resonance_eV": 3.0,
                                    "damping_eV": 0.5, "width_eV": 1.0}]}},
     ["--model", "drude"], "'material.oscillators[0].width_eV' is unknown"),
], ids=["oscillator-key", "plasma-string", "material-list", "engine-list", "model-number",
        "h-string", "unknown-top-level", "unknown-nested", "unknown-engine",
        "unknown-oscillator-key"])
def test_malformed_config_value_names_its_key(capsys, tmp_path, config, argv, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--dmin", "0.5", "--dmax", "1.0", "--points", "2",
                             *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config key {key}")


def test_config_values_below_flags(capsys, tmp_path):
    """A flag wins over the config; config values fill the flags not given."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"model": "plasma", "roughness": {"h_nm": 3.0, "f": 0.5},
                                "grid": {"start_um": 0.3, "stop_um": 1.0, "points": 3,
                                         "spacing": "log"}}))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--model", "two-layer",
                           "--h-nm", "11", "--dmax", "2.0")
    assert code == 0
    expected = run_cli(capsys, "sweep", "--model", "two-layer", "--h-nm", "11", "--f", "0.5",
                       "--dmin", "0.3", "--dmax", "2.0", "--points", "3", "--log")
    assert (code, out) == expected[:2]
