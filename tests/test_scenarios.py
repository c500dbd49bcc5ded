"""Scenario runners: curated reference sweeps, stability demonstrations,
treatment switch experiments, and their CSV reports."""
import csv
import dataclasses
import inspect

import numpy as np
import pytest

import syndemic.scenarios
import writers_reference as reference
from syndemic.dynamics import integrate
from syndemic.scenarios import (SCENARIOS, AssertionRecord,
                                run_treatment_impact, write_scenario_csv)


def _by_name(result, name):
    for record in result.assertions:
        if record.name == name:
            return record
    raise AssertionError(f"no assertion named {name!r}")


def test_tb_sweep_all_rows_pass(table2_result):
    assert table2_result.passed
    assert len(table2_result.assertions) == 12
    row = _by_name(table2_result, "beta1=6 active-TB equilibrium")
    assert row.actual == pytest.approx(903.5733547828055, rel=1e-6)
    assert row.status == "pass"


def test_tb_sweep_near_threshold_band(table2_result):
    row = _by_name(table2_result, "beta1=4.3 active-TB equilibrium")
    # sub-person reference count, judged on an absolute band
    assert row.tolerance == pytest.approx(0.01)
    assert row.status == "pass"


def test_hiv_sweep_known_failures_are_reported(table3_result):
    failing = {r.name for r in table3_result.assertions if r.status == "fail"}
    assert failing == {
        "beta2=0.051 HIV equilibrium (pinned)",
        "beta2=0.051 AIDS equilibrium (pinned)",
        "beta2=0.055 HIV equilibrium (pinned)",
        "beta2=0.055 AIDS equilibrium (pinned)",
        "beta2=0.099 HIV equilibrium (pinned)",
        "beta2=0.099 AIDS equilibrium (pinned)",
    }
    assert not table3_result.passed


def test_hiv_sweep_rates_and_ratios_pass(table3_result):
    for record in table3_result.assertions:
        if record.name.endswith("R2") or "ratio identity" in record.name:
            assert record.status == "pass", record.name


def test_hiv_sweep_self_consistent_comparisons_present(table3_result):
    row = _by_name(table3_result, "beta2=0.07 HIV equilibrium (self-consistent)")
    assert row.status == "info"
    assert row.actual == pytest.approx(5908.8058, rel=1e-4)


def test_subcritical_scenario(dfe_stability_result):
    result = dfe_stability_result
    assert result.passed
    extinction = [r for r in result.assertions
                  if "infected below 1 person" in r.name]
    assert len(extinction) == 6       # base start plus five perturbed
    assert all(r.actual < 1.0 for r in extinction)
    dominant = _by_name(
        result, "disease-free state locally stable (dominant eigenvalue < -1e-7)")
    assert dominant.actual < -1e-7


def test_subcritical_reference_rates(dfe_stability_result):
    r1 = _by_name(dfe_stability_result, "R1 at the initial census scale")
    r2 = _by_name(dfe_stability_result, "R2 at the initial census scale")
    assert r1.status == "pass" and r2.status == "pass"
    assert r1.actual == pytest.approx(0.62632, abs=5e-5)
    assert r2.actual == pytest.approx(0.55077, abs=5e-5)


def test_supercritical_scenario(syndemic_stability_result):
    result = syndemic_stability_result
    assert result.passed
    agree = _by_name(result, "integration and root-finding agree (max relative)")
    assert agree.actual < 1e-3
    spread = _by_name(result, "cross-start terminal agreement (relative)")
    assert spread.actual < 1e-3


def test_treatment_tb_reference_totals(treatment_tb_on):
    result = treatment_tb_on
    assert result.passed
    with_t = _by_name(result, "with-treatment N(20)")
    without_t = _by_name(result, "without-treatment N(20)")
    assert with_t.actual == pytest.approx(29758.1657, rel=1e-6)
    assert without_t.actual == pytest.approx(10509.6510, rel=1e-6)
    alt = _by_name(result, "without-treatment-alt N(20)")
    assert alt.status == "info"
    assert alt.actual == pytest.approx(8463.2835, rel=1e-6)


def test_treatment_without_deaths_follows_demography(treatment_tb_off):
    result = treatment_tb_off
    assert result.passed
    decay = [r for r in result.assertions
             if "matches demographic decay" in r.name]
    assert len(decay) == 3
    for record in decay:
        assert record.expected == pytest.approx(49995.02954586151, rel=1e-10)
        assert abs(record.actual - record.expected) <= 1.0


def test_treatment_aids_ordering(treatment_aids_on):
    record = _by_name(treatment_aids_on,
                      "AIDS count at 20y higher without treatment")
    assert record.passed
    assert record.actual > 0.0


def test_treatment_coinfection_crossover(treatment_coinfection_off):
    result = treatment_coinfection_off
    assert result.passed
    crossing = _by_name(
        result, "active coinfection drops below the treated arm near year 7")
    # first time on the shared report grid (1/12-year spacing) where the
    # untreated arm is below the treated one
    assert crossing.actual == pytest.approx(83.0 / 12.0, abs=0.01)
    zero = _by_name(result, "untreated arm recovered-coinfection stays zero")
    assert zero.actual == 0.0


def test_scenario_registry_names():
    assert list(SCENARIOS) == [
        "table2", "table3", "dfe-stability", "syndemic-stability",
        "treatment-tb-deaths-on", "treatment-tb-deaths-off",
        "treatment-aids-deaths-on", "treatment-aids-deaths-off",
        "treatment-coinfection-deaths-on", "treatment-coinfection-deaths-off"]


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_result_is_named_by_its_registry_key(name, scenario_results):
    # the name a run is listed under is the prefix of the files it writes
    assert scenario_results(name).spec.name == name


@pytest.mark.parametrize("fixture,name", [
    ("dfe_stability_result", "dfe-stability"),
    ("syndemic_stability_result", "syndemic-stability"),
    ("treatment_tb_on", "treatment-tb-deaths-on"),
    ("treatment_tb_off", "treatment-tb-deaths-off"),
    ("treatment_aids_on", "treatment-aids-deaths-on"),
    ("treatment_aids_off", "treatment-aids-deaths-off"),
    ("treatment_coinfection_on", "treatment-coinfection-deaths-on"),
    ("treatment_coinfection_off", "treatment-coinfection-deaths-off"),
])
def test_halved_tolerance_keeps_pass_status(fixture, name, request,
                                            monkeypatch):
    # The verdicts come from the model, not from the solver's tolerance.
    # Halving rel_tol halves the absolute floor too, so every step moves:
    # a 500-year syndemic start takes 785 steps, not 747. A report-grid
    # arm can take fewer (537 -> 525), as its landings set most steps.
    default = request.getfixturevalue(fixture)
    rel_tol = inspect.signature(integrate).parameters["rel_tol"].default
    tolerances = []

    def halved(*args, rel_tol=rel_tol, **kwargs):
        tolerances.append(rel_tol / 2)
        return integrate(*args, rel_tol=rel_tol / 2, **kwargs)

    monkeypatch.setattr(syndemic.scenarios, "integrate", halved)
    tight = SCENARIOS[name](None)
    assert tight.spec.name == name
    assert tolerances == [rel_tol / 2] * len(default.trajectories)
    assert ([(a.name, a.status) for a in tight.assertions]
            == [(a.name, a.status) for a in default.assertions])


def test_treatment_rejects_unknown_settings():
    with pytest.raises(ValueError):
        run_treatment_impact(family="vaccination")
    with pytest.raises(ValueError):
        run_treatment_impact(family="tb", deaths="maybe")


def test_assertion_record_status():
    passing = AssertionRecord("a", 1.0, 1.0, 0.1, passed=True)
    failing = AssertionRecord("b", 1.0, 2.0, 0.1, passed=False)
    info = AssertionRecord("c", float("nan"), 2.0, float("nan"), passed=None)
    assert (passing.status, failing.status, info.status) == \
        ("pass", "fail", "info")


def test_csv_report_layout(tmp_path, treatment_tb_on):
    files = write_scenario_csv(treatment_tb_on, tmp_path)
    names = sorted(p.name for p in files)
    assert names == [
        "treatment-tb-deaths-on__summary.csv",
        "treatment-tb-deaths-on__with-treatment.csv",
        "treatment-tb-deaths-on__without-treatment-alt.csv",
        "treatment-tb-deaths-on__without-treatment.csv",
    ]
    arm = (tmp_path / "treatment-tb-deaths-on__with-treatment.csv")
    lines = arm.read_text().splitlines()
    assert len(lines) == 242          # monthly grid over 20 years
    header = lines[0].split(",")
    assert header[0] == "time_years" and header[-1] == "total"
    assert len(header) == 12
    summary = (tmp_path / "treatment-tb-deaths-on__summary.csv")
    rows = summary.read_text().splitlines()
    assert rows[0] == "name,expected,actual,tolerance,status"
    assert any(",pass" in row for row in rows[1:])
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("fixture", [
    "table2_result", "table3_result", "dfe_stability_result",
    "syndemic_stability_result", "treatment_tb_on", "treatment_tb_off",
    "treatment_aids_on", "treatment_aids_off", "treatment_coinfection_on",
    "treatment_coinfection_off"])
def test_summary_row_names_are_unique(fixture, request, tmp_path):
    # the summary is the result's rows, in order, and no name repeats
    result = request.getfixturevalue(fixture)
    [path] = write_scenario_csv(dataclasses.replace(result, trajectories={}),
                                tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(name, status) for name, _, _, _, status in rows] == [
        (a.name, a.status) for a in result.assertions]
    assert len({name for name, *_ in rows}) == len(rows)


@pytest.mark.parametrize("fixture", [
    "treatment_tb_on", "treatment_tb_off", "treatment_aids_on",
    "treatment_aids_off", "treatment_coinfection_on",
    "treatment_coinfection_off"])
def test_each_arm_reports_its_n20_once(fixture, request):
    # as an assertion's actual value or as an info row, never both
    result = request.getfixturevalue(fixture)
    for arm in ("with-treatment", "without-treatment",
                "without-treatment-alt"):
        rows = [r.name for r in result.assertions
                if r.name.startswith(f"{arm} N(20)")]
        assert len(rows) == 1, rows


@pytest.mark.parametrize("fixture", ["treatment_tb_on", "dfe_stability_result"])
def test_csv_rows_match_per_value_formatting(fixture, request, tmp_path):
    # every trajectory file against the per-value reference writer; the
    # dfe-stability trajectories hold every step, clamped zeros among them
    result = request.getfixturevalue(fixture)
    write_scenario_csv(result, tmp_path)
    for key, traj in result.trajectories.items():
        path = tmp_path / f"{result.spec.name}__{key}.csv"
        assert (path.read_bytes()
                == reference.trajectory_csv(traj, ".10g", "\r\n").encode())
    if fixture == "dfe_stability_result":
        assert any((traj.states == 0.0).any()
                   for traj in result.trajectories.values())


# Exact work of the long runs: accepted and rejected steps, rhs
# evaluations and clamped steps of each start or arm. A change that moves
# any of them changes the step sequence, and with it the numbers.
SYNDEMIC_STABILITY_STATS = {
    "base": (747, 2, 4495, 0), "perturbed-1": (745, 2, 4483, 0),
    "perturbed-2": (746, 2, 4489, 0), "perturbed-3": (748, 2, 4501, 0),
    "perturbed-4": (746, 2, 4489, 0), "perturbed-5": (749, 2, 4507, 0),
}
DFE_STABILITY_STATS = {
    "base": (653, 2, 4202, 271), "perturbed-1": (652, 2, 4197, 272),
    "perturbed-2": (653, 2, 4202, 271), "perturbed-3": (654, 2, 4207, 270),
    "perturbed-4": (652, 2, 4195, 271), "perturbed-5": (655, 2, 4212, 269),
}
# each treatment fixture's arms: with-treatment, without-treatment and
# without-treatment-alt, in that order
TREATMENT_STATS = {
    "treatment_tb_on": [(537, 0, 3223, 0), (521, 0, 3127, 0),
                        (533, 0, 3199, 0)],
    "treatment_tb_off": [(532, 0, 3193, 0), (534, 0, 3205, 0),
                         (396, 0, 2377, 0)],
    "treatment_aids_on": [(537, 0, 3223, 0), (525, 0, 3151, 0),
                          (519, 0, 3115, 0)],
    "treatment_aids_off": [(532, 0, 3193, 0), (546, 0, 3277, 0),
                           (541, 0, 3247, 0)],
    "treatment_coinfection_on": [(537, 0, 3223, 0), (520, 0, 3121, 0),
                                 (539, 0, 3235, 0)],
    "treatment_coinfection_off": [(532, 0, 3193, 0), (571, 0, 3427, 0),
                                  (377, 0, 2263, 0)],
}


def _stats(result):
    return {key: (traj.stats["accepted"], traj.stats["rejected"],
                  traj.stats["rhs_evals"], traj.stats["clamped"])
            for key, traj in result.trajectories.items()}


def test_long_horizon_work_counters(syndemic_stability_result,
                                    dfe_stability_result):
    assert _stats(syndemic_stability_result) == SYNDEMIC_STABILITY_STATS
    assert _stats(dfe_stability_result) == DFE_STABILITY_STATS
    # six evaluations per step and one at the start, and one more after
    # each step that clamped a dip to zero, whose last stage was taken at
    # the unclamped state, so the next step evaluates rhs afresh: unless
    # the clamped step was the last, whose state then holds the clamp's
    # exact zero (dfe perturbed-4; the other final states are positive)
    for result in (syndemic_stability_result, dfe_stability_result):
        for (accepted, rejected, evals, clamped), traj in zip(
                _stats(result).values(), result.trajectories.values()):
            last_clamped = int(traj.states[-1].min() == 0.0)
            assert evals == (6 * (accepted + rejected) + 1 + clamped
                             - last_clamped)


@pytest.mark.parametrize("fixture", sorted(TREATMENT_STATS))
def test_treatment_work_counters(fixture, request):
    # no arm rejects or clamps a step: six evaluations per step, one more
    # at the start
    result = request.getfixturevalue(fixture)
    arms = ("with-treatment", "without-treatment", "without-treatment-alt")
    assert _stats(result) == dict(zip(arms, TREATMENT_STATS[fixture]))
    for accepted, rejected, evals, clamped in TREATMENT_STATS[fixture]:
        assert evals == 6 * accepted + 1
