"""Command-line surface: config parsing, subcommands, exit codes, SVG."""
import os
import warnings

import numpy as np
import pytest

import syndemic.cli
from syndemic.cli import (ConfigError, DEFAULT_CONFIG, RunConfig, emit_svg,
                          format_config, main, parse_config)
from syndemic.dynamics import IntegrationError, Trajectory
from syndemic.model import COMPARTMENTS
from syndemic.stability import ConvergenceError


def test_default_config_parses():
    cfg = parse_config(DEFAULT_CONFIG)
    assert "beta1" not in cfg.assignments
    assert cfg.initial_state().sum() == pytest.approx(50000.0)
    assert cfg.init_total == 50000.0


def test_empty_config_needs_transmission_rates():
    cfg = parse_config("")
    with pytest.raises(ConfigError, match="beta1"):
        cfg.parameters()


def test_round_trip_is_identical():
    cfg = parse_config(DEFAULT_CONFIG)
    cfg.assignments["beta1"] = 6.0
    cfg.assignments["beta2"] = 0.1
    cfg.horizon = 35.5
    cfg.n_ref = "50000"
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("key,value", [
    ("out", "runs#1"), ("out", " runs"), ("out", "runs\nhorizon = 1"),
    ("n_ref", "50000 # pinned"),
])
def test_unwritable_string_option_is_a_config_error(key, value):
    # parse_config would read "out = runs#1" back as out = "runs"
    with pytest.raises(ConfigError, match=key):
        format_config(RunConfig(**{key: value}))


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("mu = 0.02\n# fine\nbogus = 1\n")


def test_malformed_number_reports_line_number():
    with pytest.raises(ConfigError, match="line 2.*malformed"):
        parse_config("beta1 = 6\nbeta2 = zero\n")


def test_unknown_compartment_rejected():
    with pytest.raises(ConfigError, match="unknown compartment"):
        parse_config("init.exposed = 0.5\n")


def test_fraction_sum_violation_reports_line():
    text = DEFAULT_CONFIG.replace("init.susceptible = 0.6",
                                  "init.susceptible = 0.7")
    with pytest.raises(ConfigError, match="sum"):
        parse_config(text)


def test_incomplete_initial_state_rejected():
    with pytest.raises(ConfigError, match="missing"):
        parse_config("init.susceptible = 100\n")


def test_zero_mortality_rejected():
    cfg = parse_config("mu = 0\nbeta1 = 6\nbeta2 = 0.1\n")
    with pytest.raises(ConfigError, match="mu > 0"):
        cfg.parameters()


def test_nref_token_resolution():
    cfg = parse_config("n_ref = N0\n")
    assert cfg.resolve_n_ref() == pytest.approx(50000.0)
    cfg = parse_config("n_ref = 12345\n")
    assert cfg.resolve_n_ref() == 12345.0
    assert RunConfig().resolve_n_ref() is None
    with pytest.raises(ConfigError):
        parse_config("n_ref = sometimes\n")


def test_r0_command_prints_both_conventions(capsys):
    assert main(["r0", "--beta1", "6", "--beta2", "0.1",
                 "--nref", "dfe"]) == 0
    out = capsys.readouterr().out
    assert "R1 = 1.39239" in out
    assert "R2 = 1.83666" in out
    assert main(["r0", "--beta1", "6", "--beta2", "0.1",
                 "--nref", "50000"]) == 0
    assert "R2 = 1.83593" in capsys.readouterr().out


def test_r0_without_rates_is_an_input_error(capsys):
    assert main(["r0"]) == 2
    assert "beta1" in capsys.readouterr().err


def test_unknown_subcommand_and_flag_exit_2(capsys):
    assert main(["transmogrify"]) == 2
    assert main(["r0", "--frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err


def test_equilibrium_dfe_row(capsys):
    assert main(["equilibrium", "--kind", "dfe"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind," + ",".join(COMPARTMENTS) + ",residual"
    fields = lines[1].split(",")
    assert len(fields) == 12
    assert fields[0] == "disease-free"
    assert float(fields[1]) == pytest.approx(49980.0)
    assert all(float(v) == 0.0 for v in fields[2:11])
    assert float(fields[11]) < 1e-12


def test_equilibrium_syndemic_row(capsys):
    assert main(["equilibrium", "--kind", "syndemic", "--beta1", "6",
                 "--beta2", "0.1", "--nref", "50000"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[0] == "syndemic"
    assert float(fields[1]) == pytest.approx(4766.2, abs=1.0)


def test_equilibrium_extreme_transmission_solves(capsys):
    # stiff: early pseudo-transient trial steps leave the domain
    assert main(["equilibrium", "--kind", "syndemic", "--beta1", "1e4",
                 "--beta2", "50"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    state = np.array([float(v) for v in fields[1:11]])
    assert np.all(state >= 0.0)
    assert float(fields[11]) <= 1e-8


def test_non_finite_rate_is_an_input_error(capsys):
    assert main(["r0", "--beta1", "nan", "--beta2", "0.1"]) == 2
    captured = capsys.readouterr()
    assert "beta1 must be finite" in captured.err
    assert "R1" not in captured.out


@pytest.mark.parametrize("argv", [
    ["r0", "--beta1", "1e308", "--beta2", "1e308"],
    ["equilibrium", "--kind", "syndemic", "--beta1", "1e300", "--beta2", "0.1"],
    ["equilibrium", "--kind", "tbfree", "--beta1", "0", "--beta2", "1e200"],
])
def test_overflowing_transmission_is_an_input_error(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "overflow" in lines[0]


def test_stability_command_at_state_file(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text(" ".join(["49980"] + ["0"] * 9))
    assert main(["stability", "--beta1", "2.7", "--beta2", "0.03",
                 "--at", str(path), "--nref", "50000"]) == 0
    out = capsys.readouterr().out
    assert "classification: stable" in out
    assert len(out.splitlines()) == 11


def test_stability_bifurcation_output(capsys):
    assert main(["stability", "--beta1", "6", "--beta2", "0.1",
                 "--bifurcation"]) == 0
    out = capsys.readouterr().out
    assert "beta_star = 0.054446511" in out
    assert "a = " in out and "b = " in out
    assert "w = " in out and "v = " in out


def test_simulate_writes_csv_and_svg(tmp_path, capsys):
    assert main(["simulate", "--beta1", "6", "--beta2", "0.1",
                 "--horizon", "20", "--out", str(tmp_path)]) == 0
    csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(csv_lines) == 242
    assert csv_lines[0].startswith("time_years,susceptible")
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.count("<polyline") == 10
    first_line = svg.split('points="')[1].split('"')[0]
    assert len(first_line.split()) == 241


def test_scenario_exit_codes(tmp_path):
    assert main(["scenario", "--name", "table2", "--out", str(tmp_path)]) == 0
    assert main(["scenario", "--name", "table3", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "table3__summary.csv").exists()


@pytest.mark.parametrize("name,deaths,code", [
    ("table2", "off", 2), ("table3", "on", 2), ("dfe-stability", "off", 2),
    ("syndemic-stability", "on", 2), ("treatment-aids", "off", 0)])
def test_deaths_flag_applies_to_treatment_scenarios_only(name, deaths, code,
                                                         tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scenario", "--name", name, "--deaths", deaths,
                 "--out", str(out)]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            "error: --deaths applies to the treatment scenarios only\n")
        assert not out.exists()
    else:
        assert (out / f"{name}-deaths-{deaths}__summary.csv").exists()


@pytest.mark.parametrize("solver,error,argv", [
    ("syndemic", ConvergenceError("pseudo-transient iteration cap reached"),
     ["equilibrium", "--kind", "syndemic"]),
    ("integrate", IntegrationError("step size underflow", 0.0, np.zeros(10)),
     ["simulate", "--horizon", "1"]),
])
def test_solver_failure_exits_3(solver, error, argv, monkeypatch, tmp_path,
                                capsys):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(syndemic.cli, solver, fail)
    monkeypatch.setenv("SYNDEMIC_OUT_DIR", str(tmp_path))
    assert main(argv + ["--beta1", "6", "--beta2", "0.1"]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"


def test_out_dir_environment_override(tmp_path, monkeypatch, capsys):
    wanted = tmp_path / "from-env"
    ignored = tmp_path / "from-flag"
    monkeypatch.setenv("SYNDEMIC_OUT_DIR", str(wanted))
    assert main(["simulate", "--beta1", "6", "--beta2", "0.1",
                 "--horizon", "1", "--out", str(ignored)]) == 0
    assert (wanted / "trajectory.csv").exists()
    assert not ignored.exists()


def test_sweep_writes_report(tmp_path, capsys):
    assert main(["sweep", "--beta1", "6", "--beta2", "0.1",
                 "--param", "beta1", "--values", "4.3,6,10",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "beta1,r1,r2,r0"
    assert len(rows) == 4
    assert float(rows[1].split(",")[1]) == pytest.approx(0.99788, abs=1e-4)


@pytest.mark.parametrize("argv", [
    ["sweep", "--param", "beta1", "--values", "4.3,6"],
    ["simulate", "--horizon", "1"],
    ["scenario", "--name", "table2"],
])
def test_failed_write_leaves_no_temporary_file(argv, tmp_path, monkeypatch,
                                               capsys):
    def fail(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", fail)
    assert main(argv + ["--beta1", "6", "--beta2", "0.1",
                        "--out", str(tmp_path)]) == 2
    assert "error: cannot rename" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    assert main(["sweep", "--beta1", "6", "--beta2", "0.1",
                 "--param", "gamma", "--values", "1,2",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("param,values,problem", [
    ("mu", "0", "mu > 0 required"), ("mu", "-1", "mu >= 0 required"),
    ("beta2", "0.1,nan", "beta2 must be finite")])
def test_sweep_rejects_invalid_values(param, values, problem, tmp_path,
                                      capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--beta1", "6", "--beta2", "0.1", "--param", param,
                 "--values", values, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {param} = ") and problem in err
    assert not out.exists()


@pytest.mark.parametrize("argv,config", [
    (["--horizon", "inf"], ""), ([], "rel_tol = nan\n"),
    ([], "abs_tol = nan\n"), ([], "rel_tol = inf\n")])
def test_simulate_rejects_non_finite_horizon_and_tolerances(argv, config,
                                                            tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(DEFAULT_CONFIG + config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--beta1", "6",
                 "--beta2", "0.1", "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_simulate_rejects_non_positive_horizon(horizon, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--beta1", "6", "--beta2", "0.1", "--horizon",
                 horizon, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: horizon must be positive\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", [["r0"], ["equilibrium", "--kind", "syndemic"]])
@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_nref_is_an_input_error(command, token, tmp_path, capsys):
    assert main(command + ["--beta1", "6", "--beta2", "0.1",
                           "--nref", token]) == 2
    path = tmp_path / "run.cfg"
    path.write_text(f"n_ref = {token}\n")
    assert main(command + ["--config", str(path), "--beta1", "6",
                           "--beta2", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == 2 * ("error: n_ref must be a finite positive "
                                f"number, got {token!r}\n")
    assert captured.out == ""


def test_config_file_loading(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(DEFAULT_CONFIG + "beta1 = 6\nbeta2 = 0.1\n")
    assert main(["r0", "--config", str(path)]) == 0
    assert "R1 = 1.39239" in capsys.readouterr().out


def _toy_trajectory():
    times = np.linspace(0.0, 2.0, 5)
    states = np.column_stack([np.linspace(0.0, 7.3, 5)] * 10)
    return Trajectory(times=times, states=states, stats={})


def test_svg_single_selection_and_axis_bound():
    svg = emit_svg(_toy_trajectory(), ["active_tb"])
    assert svg.count("<polyline") == 1
    labels = [float(t.split(">")[1].split("<")[0])
              for t in svg.split("<text")[1:]
              if t.split(">")[1].split("<")[0].replace(".", "").isdigit()]
    assert max(labels) >= 7.3


def test_svg_empty_selection_rejected():
    with pytest.raises(ValueError):
        emit_svg(_toy_trajectory(), [])
    with pytest.raises(ValueError):
        emit_svg(_toy_trajectory(), ["not_a_compartment"])
