"""Command-line surface: config parsing, subcommands, exit codes, SVG."""
import numpy as np
import pytest

from syndemic.cli import (ConfigError, DEFAULT_CONFIG, RunConfig, emit_svg,
                          format_config, main, parse_config)
from syndemic.dynamics import Trajectory


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
    fields = lines[1].split(",")
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
    # a Runge-Kutta trial stage leaves the domain during the relaxation
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


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    assert main(["sweep", "--beta1", "6", "--beta2", "0.1",
                 "--param", "gamma", "--values", "1,2",
                 "--out", str(tmp_path)]) == 2


def test_config_file_loading(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(DEFAULT_CONFIG + "beta1 = 6\nbeta2 = 0.1\n")
    assert main(["r0", "--config", str(path)]) == 0
    assert "R1 = 1.39239" in capsys.readouterr().out


def _toy_trajectory():
    times = np.linspace(0.0, 2.0, 5)
    states = np.column_stack([np.linspace(0.0, 7.3, 5)] * 10)
    return Trajectory(times=times, states=states, params=None, stats={})


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
