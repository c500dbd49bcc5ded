"""Command-line surface: config parsing, subcommands, exit codes, SVG."""
import csv
import dataclasses
import math
import os
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import syndemic.cli
import writers_reference as reference
from bifurcation_fd import assert_left_null_vector_exact
from config_format import format_config
from syndemic.cli import (ConfigError, RunConfig, emit_svg, main,
                          parse_config)
from syndemic.dynamics import IntegrationError, Trajectory
from syndemic.model import COMPARTMENTS, PARAMETER_FIELDS, Parameters
from syndemic.reproduction import r0
from syndemic.stability import ConvergenceError, bifurcation_analysis

# The baseline calibration and the standard census, written out in full.
BASELINE_CONFIG = """\
# All rates are per year; beta1 and beta2 are supplied per run.
Lambda = 714
mu = 0.014285714285714285
beta1p = 0.9
beta2p = 1.1
k1 = 1
k2 = 1.3
tau1 = 1
tau2 = 2
tau3 = 2
tau4 = 1
rho1 = 0.1
rho2 = 0.25
rho3 = 0.125
alpha1 = 0.33
alpha2 = 0.33
psi = 1.07
delta = 1.03
eta = 1.02
dT = 0.125
dA = 0.3
dTA = 0.33

# Starting state as population fractions; init.total scales them to counts.
init.susceptible = 0.6
init.latent_tb = 0.14
init.active_tb = 0.03
init.recovered_tb = 0
init.hiv_only = 0.04
init.aids = 0.01
init.latent_tb_hiv = 0.12
init.active_tb_hiv = 0.05
init.recovered_tb_hiv = 0
init.aids_tb = 0.01
init.total = 50000
"""


def test_default_run_matches_baseline_config(tmp_path, capsys):
    # Without --config the run takes the Parameters defaults and the
    # standard census: the same files and numbers as the baseline written out.
    cfg = parse_config(BASELINE_CONFIG)
    assert set(cfg.assignments) == set(PARAMETER_FIELDS) - {"beta1", "beta2"}
    path = tmp_path / "baseline.cfg"
    path.write_text(BASELINE_CONFIG)
    rates = ["--beta1", "6", "--beta2", "0.1"]
    outputs = []
    for name, config in (("default", []), ("baseline", ["--config", str(path)])):
        out = tmp_path / name
        assert main(["simulate", *rates, "--out", str(out), *config]) == 0
        assert main(["r0", *rates, "--nref", "N0", *config]) == 0
        printed = capsys.readouterr().out.splitlines()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((printed[:2] + printed[3:], files))
    assert sorted(outputs[0][1]) == ["trajectory.csv", "trajectory.svg"]
    assert outputs[0] == outputs[1]


def test_empty_config_needs_transmission_rates():
    cfg = parse_config("")
    with pytest.raises(ConfigError, match="beta1"):
        cfg.parameters()


def test_round_trip_is_identical():
    cfg = parse_config(BASELINE_CONFIG)
    cfg.assignments["beta1"] = 6.0
    cfg.assignments["beta2"] = 0.1
    cfg.horizon = 35.5
    cfg.n_ref = "50000"
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("init_total", [None, np.float64(50000.0)])
def test_round_trip_of_numpy_floats(init_total):
    # numpy 2's repr of a np.float64 is "np.float64(6.0)", which
    # parse_config rejects as a malformed number
    cfg = parse_config(BASELINE_CONFIG)
    cfg.assignments["beta1"] = np.float64(6.0)
    cfg.assignments["beta2"] = np.float64(0.1)
    cfg.assignments["mu"] = np.float64(1.0) / np.float64(70.0)
    fractions = np.array(cfg.init_values)
    cfg.init_values = tuple(fractions if init_total is not None
                            else fractions * 50000.0)    # counts
    cfg.init_total = init_total
    horizon, rel_tol = np.float64([35.5, 1e-9])
    # replace, unlike setting an attribute, raises on a field RunConfig lacks
    cfg = dataclasses.replace(cfg, horizon=horizon, rel_tol=rel_tol)
    text = format_config(cfg)
    assert "np." not in text
    assert parse_config(text) == cfg


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
    text = BASELINE_CONFIG.replace("init.susceptible = 0.6",
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
    # stiff: an explicit integrator needs over 14,000 steps to relax it
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
    ["equilibrium", "--kind", "syndemic", "--beta1", "1e305", "--beta2", "0.1"],
    ["equilibrium", "--kind", "tbfree", "--beta1", "0", "--beta2", "1e305"],
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


@pytest.mark.parametrize("argv,kind", [
    (["--kind", "syndemic", "--beta1", "1e300", "--beta2", "0.1"], "hiv-free"),
    (["--kind", "tbfree", "--beta1", "0", "--beta2", "1e200"], "tb-free"),
])
def test_huge_transmission_equilibrium_solves(argv, kind, capsys):
    # the pressure solve keeps its products finite up to rates of about 1e303
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["equilibrium", *argv]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    state = np.array([float(v) for v in fields[1:11]])
    assert fields[0] == kind
    assert np.all(np.isfinite(state)) and np.all(state >= 0.0)
    assert float(fields[11]) <= 1e-12


def test_extreme_rate_root_is_solved_and_its_spectrum_refused(capsys):
    # the equilibrium command finds the root and judges no spectrum; the
    # stability command, the one verdict, refuses the spectrum there: the
    # Jacobian spans 1e-17 to 1e200 and an eigenpair fails its residual
    rates = ["--beta1", "6", "--beta2", "1e200"]
    assert main(["equilibrium", "--kind", "syndemic", *rates]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    state = np.array([float(v) for v in fields[1:11]])
    assert fields[0] == "syndemic"
    assert np.all(np.isfinite(state)) and np.all(state >= 0.0)
    assert main(["stability", "--at", "syndemic", *rates]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigenvalue failed the residual check\n"


@pytest.mark.parametrize("argv", [
    ["r0", "--beta1", "6", "--beta2", "1e307"],
    ["sweep", "--beta1", "6", "--beta2", "0.1", "--param", "beta2",
     "--values", "1e307,1e308"],
    ["equilibrium", "--kind", "dfe", "--beta2", "1e307"],
    ["equilibrium", "--kind", "hivfree", "--beta1", "6", "--beta2", "1e307"],
])
def test_overflowing_reproduction_number_is_an_input_error(argv, tmp_path,
                                                           capsys):
    # R1 and R2 overflow in Python floats, which numpy's error state does
    # not see; the r0 line used to blame a singular transition matrix, the
    # sweep wrote inf and the equilibrium reports carried it
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)] if argv[0] == "sweep"
                else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    where = "beta2 = 1e+307: " if argv[0] == "sweep" else ""
    assert lines == [f"error: {where}reproduction number overflow: R2 = inf"]
    assert not out.exists()


@pytest.mark.parametrize("nref", [[], ["--nref", "50000"]])
def test_overflowing_population_is_an_input_error(nref, tmp_path, capsys):
    # both rates are finite and positive, but Lambda/mu overflows; pinned or
    # not, the error names the population, not an overflow of R1 and R2
    config = tmp_path / "huge.cfg"
    config.write_text("Lambda = 1e300\nmu = 1e-10\n")
    assert main(["r0", "--config", str(config), "--beta1", "6",
                 "--beta2", "0.1", *nref]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: population denominator must be finite and positive\n")


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


@pytest.mark.parametrize("nref", ["50000", "dfe"])
def test_nref_does_not_apply_to_bifurcation(nref, capsys):
    # the threshold analysis is taken at Lambda/mu; the flag used to be
    # ignored, printing the same numbers as the run without it
    assert main(["stability", "--beta1", "6", "--beta2", "0.1",
                 "--bifurcation", "--nref", nref]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --nref does not apply to --bifurcation\n"
    assert captured.out == ""


@pytest.mark.parametrize("at", ["syndemic", "dfe"])
def test_at_does_not_apply_to_bifurcation(at, capsys):
    # the threshold analysis is taken at the disease-free state; the flag
    # used to be ignored, printing the same numbers as the run without it
    assert main(["stability", "--beta1", "6", "--beta2", "0.1",
                 "--bifurcation", "--at", at]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --at does not apply to --bifurcation\n"
    assert captured.out == ""


# a and b as printed for each extreme sub-model rate
EXTREME_RATE_COEFFICIENTS = {
    "Lambda = 1e-300": ("-1.2271485e+298", "1.0598769"),
    "Lambda = 1e-8": ("-1227148.5", "1.0598769"),
    "dA = 1e200": ("-4.5732579e+195", "1"),
    "dA = 1e160": ("-4.5732579e+155", "1"),
    "dA = 1e155": ("-4.5732579e+150", "1"),
    "rho1 = 1e-300": ("-3.6831059e+293", "1"),
    "rho1 = 1e-160": ("-3.6831059e+153", "1"),
}


@pytest.mark.parametrize("rate", list(EXTREME_RATE_COEFFICIENTS))
def test_extreme_submodel_rates_have_finite_coefficients(rate, tmp_path,
                                                        capsys):
    # the coefficients are closed forms: no difference step can underflow or
    # square to 0 at these rates, and no probe step sets a population floor
    path = tmp_path / "run.cfg"
    path.write_text(rate + "\n")
    assert main(["stability", "--config", str(path), "--beta1", "6",
                 "--beta2", "0.1", "--bifurcation"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    a, b = EXTREME_RATE_COEFFICIENTS[rate]
    assert lines[1:3] == [f"a = {a}", f"b = {b}"]
    assert all(math.isfinite(float(word)) for line in lines
               for word in line.split("=")[1].split())
    # v against exact rationals: at these rates the difference
    # rho1 + mu - beta* in v3 cancels unless it is taken in closed form
    name, value = rate.split(" = ")
    params = dataclasses.replace(Parameters(beta1=6.0, beta2=0.1),
                                 **{name: float(value)})
    assert_left_null_vector_exact(params, bifurcation_analysis(params))


@pytest.mark.parametrize("rate", list(EXTREME_RATE_COEFFICIENTS))
def test_extreme_submodel_rates_have_null_vectors_to_roundoff(rate):
    # zero_eig_residual is relative to max|J| times max|w| (or max|v|), so it
    # reads the null vectors' quality, not the rates' scale: the absolute
    # products reached 1.2e282 at rho1 = 1e-300
    name, value = rate.split(" = ")
    params = dataclasses.replace(Parameters(beta1=6.0, beta2=0.1),
                                 **{name: float(value)})
    assert bifurcation_analysis(params).zero_eig_residual <= 1e-15


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


@pytest.mark.parametrize("fixture,key", [
    ("treatment_tb_on", "with-treatment"),
    ("dfe_stability_result", "base"),        # holds clamped zeros
])
def test_simulate_output_matches_per_value_formatting(fixture, key, request,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    # the CSV and SVG files, against the per-value reference writers
    traj = request.getfixturevalue(fixture).trajectories[key]
    if fixture == "dfe_stability_result":
        assert (traj.states == 0.0).any()
    monkeypatch.setattr(syndemic.cli, "integrate", lambda *a, **k: traj)
    assert main(["simulate", "--beta1", "6", "--beta2", "0.1",
                 "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "trajectory.csv").read_bytes()
            == reference.trajectory_csv(traj, ".8g", "\n").encode())
    assert ((tmp_path / "trajectory.svg").read_bytes()
            == reference.emit_svg(traj, COMPARTMENTS).encode())


def test_scenario_exit_codes(tmp_path):
    assert main(["scenario", "--name", "table2", "--out", str(tmp_path)]) == 0
    assert main(["scenario", "--name", "table3", "--out", str(tmp_path)]) == 1
    assert (tmp_path / "table3__summary.csv").exists()


@pytest.mark.parametrize("name,summary,code", [
    ("table3", "table3__summary.csv", 1),
    ("treatment-aids-deaths-on", "treatment-aids-deaths-on__summary.csv", 0)])
def test_scenario_prints_the_summary_rows(name, summary, code, tmp_path,
                                          capsys):
    # one line per summary row, in order, then the files line; an info row
    # prints its actual value alone, with no nan for what it does not have
    assert main(["scenario", "--name", name, "--out", str(tmp_path)]) == code
    lines = capsys.readouterr().out.splitlines()
    with open(tmp_path / summary, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(lines) == len(rows) + 1
    for line, (row_name, _, _, _, status) in zip(lines, rows):
        assert line.startswith(f"[{status}] {row_name}: "), line
    assert lines[-1].startswith("wrote ")
    assert not [line for line in lines if "nan" in line]


def test_death_setting_is_part_of_the_scenario_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["scenario", "--name", "treatment-aids-deaths-off",
                 "--out", str(out)]) == 0
    assert (out / "treatment-aids-deaths-off__summary.csv").exists()
    capsys.readouterr()
    # the former switch is no option any more: argparse rejects it
    assert main(["scenario", "--name", "treatment-aids-deaths-off",
                 "--deaths", "off", "--out", str(tmp_path / "again")]) == 2
    assert "unrecognized arguments: --deaths off" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("config,named", [
    (BASELINE_CONFIG + "horizon = 5\nrel_tol = 1e-3\nn_ref = 1\n",
     "horizon, rel_tol, n_ref, init.*"),
    ("rel_tol = 1e-6\nn_ref = dfe\n", "rel_tol, n_ref")],
    ids=["with-census", "without-census"])
def test_scenario_rejects_run_options_it_does_not_read(config, named, tmp_path,
                                                       monkeypatch, capsys):
    # each experiment fixes its own horizon, tolerance, denominator and
    # census; a config that sets them is an input error, not a silent no-op
    monkeypatch.delenv("SYNDEMIC_OUT_DIR", raising=False)
    argv = ["scenario", "--name", "treatment-tb-deaths-on", "--config",
            str(tmp_path / "run.cfg"), "--beta1", "13", "--beta2", "0.06"]
    (tmp_path / "run.cfg").write_text(config)
    assert main(argv + ["--out", str(tmp_path / "rejected")]) == 2
    assert capsys.readouterr().err == f"error: scenario does not read {named}\n"
    assert not (tmp_path / "rejected").exists()
    # parameter keys and out alone still run
    (tmp_path / "run.cfg").write_text(
        BASELINE_CONFIG.split("# Starting state")[0]
        + f"out = {tmp_path / 'accepted'}\n")
    assert main(argv) == 0
    assert (tmp_path / "accepted" / "treatment-tb-deaths-on__summary.csv").exists()


@pytest.mark.parametrize("solver,error,argv", [
    ("syndemic", ConvergenceError("pressure Newton iteration cap reached"),
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


@pytest.mark.parametrize("config,flags,beta,n_ref", [
    ("", ["--beta1", "6", "--beta2", "0.1", "--nref", "50000"],
     (6.0, 0.1), 50000.0),
    ("beta1 = 5\nbeta2 = 0.2\nn_ref = 25000\n", [], (5.0, 0.2), 25000.0),
    ("beta1 = 5\nbeta2 = 0.2\nn_ref = 25000\n",
     ["--beta1", "6", "--beta2", "0.1", "--nref", "50000"], (6.0, 0.1), 50000.0),
    ("beta1 = 5\nbeta2 = 0.2\nn_ref = 25000\n", ["--nref", ""],
     (5.0, 0.2), 25000.0),
    ("beta1 = 5\n", ["--beta2", "0.1"], (5.0, 0.1), None),
], ids=["flags", "config", "flag-over-config", "empty-nref", "default-nref"])
def test_rates_and_nref_flag_over_config_over_default(config, flags, beta,
                                                     n_ref, tmp_path, capsys):
    # a flag wins over its config key, the key over the default (dfe); an
    # empty --nref counts as not given
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert main(["r0", "--config", str(path), *flags]) == 0
    numbers = r0(Parameters(beta1=beta[0], beta2=beta[1]), n_ref)
    assert capsys.readouterr().out.splitlines()[:2] == [
        f"R1 = {numbers.r1:.8g}", f"R2 = {numbers.r2:.8g}"]


def test_rates_have_no_default(tmp_path, capsys):
    (tmp_path / "run.cfg").write_text("beta1 = 5\n")
    assert main(["r0", "--config", str(tmp_path / "run.cfg")]) == 2
    assert capsys.readouterr().err == ("error: beta1 and beta2 must be set "
                                       "(config or flag)\n")


@pytest.mark.parametrize("config,flags,env,horizon,out", [
    ("", [], None, 20, "."),
    ("horizon = 0.25\nout = from-config\n", [], None, 0.25, "from-config"),
    ("horizon = 0.25\nout = from-config\n",
     ["--horizon", "0.5", "--out", "from-flag"], None, 0.5, "from-flag"),
    ("horizon = 0.25\nout = from-config\n", ["--out", ""], None, 0.25,
     "from-config"),
    ("out = from-config\n", ["--horizon", "0.5", "--out", "from-flag"],
     "from-env", 0.5, "from-env"),
    ("out = from-config\n", ["--horizon", "0.5"], "from-env", 0.5,
     "from-env"),
], ids=["defaults", "config", "flag-over-config", "empty-out",
        "env-over-flag", "env-over-config"])
def test_horizon_and_out_flag_over_config_over_default(
        config, flags, env, horizon, out, tmp_path, monkeypatch, capsys):
    # SYNDEMIC_OUT_DIR > --out > config out > the current directory; a flag
    # wins over its config key, the key over the default; an empty --out
    # counts as not given
    monkeypatch.chdir(tmp_path)
    if env is None:
        monkeypatch.delenv("SYNDEMIC_OUT_DIR", raising=False)
    else:
        monkeypatch.setenv("SYNDEMIC_OUT_DIR", env)
    (tmp_path / "run.cfg").write_text(config)
    assert main(["simulate", "--config", "run.cfg", "--beta1", "6",
                 "--beta2", "0.1", *flags]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(
        f"integrated {horizon:.8g} years, ")
    written = sorted(p.relative_to(tmp_path).as_posix()
                     for p in tmp_path.rglob("trajectory.*"))
    prefix = "" if out == "." else out + "/"
    assert written == [prefix + "trajectory.csv", prefix + "trajectory.svg"]


def test_readme_command_examples_parse():
    # every `syndemic ...` line of README's "Command line" block, with its
    # backslash continuations joined, parses (nothing runs)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("syndemic ")]
    assert len(commands) >= 10
    for command in commands:
        try:
            syndemic.cli._build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


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
    path.write_text(BASELINE_CONFIG + config)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--beta1", "6",
                 "--beta2", "0.1", "--out", str(out)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not out.exists()
    if config.startswith("abs_tol"):
        # no option any more: rel_tol sets the integrator's absolute floor
        line = len((BASELINE_CONFIG + config).splitlines())
        assert captured.err == f"error: line {line}: unknown key 'abs_tol'\n"


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
    path.write_text(BASELINE_CONFIG + "beta1 = 6\nbeta2 = 0.1\n")
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
