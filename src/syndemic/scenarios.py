"""Canned numerical experiments with machine-readable pass/fail reports.

Each runner reproduces one benchmark experiment: the two equilibrium sweeps,
the two long-run stability illustrations, and the treatment-impact
comparisons. Expected values are curated reference numbers shipped with the
package; each row of a result records name, expected, actual, tolerance,
and status (``info`` for a number reported without a verdict), and the
whole result can be dumped to CSV.

The sweep and stability targets were generated under a pinned incidence
denominator (the tables pin it at the disease-free population, the
stability and treatment runs at the initial census of 50000), and each
runner pins the denominator its targets were generated under.
"""
from __future__ import annotations

import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .dynamics import Trajectory, integrate
from .equilibria import (EquilibriumReport, disease_free, hiv_free, syndemic,
                         tb_free_numeric)
from .model import (COMPARTMENTS, INFECTED_INDICES, Parameters,
                    disease_free_population, full_rhs, removal_rates,
                    total_population)
from .reproduction import r0
from .stability import TOL_EIG, stability_report

INITIAL_FRACTIONS = np.array([0.60, 0.14, 0.03, 0.0, 0.04, 0.01,
                              0.12, 0.05, 0.0, 0.01])
INITIAL_POPULATION = 50000.0

# Curated benchmark values. TB sweep: beta1 -> (R1, endemic active-TB count)
# at the disease-free population scale. The 4.3 row sits just below
# threshold, so its comparison uses an absolute band of 0.01 persons.
TB_SWEEP_REFERENCE = {
    4.3: (0.99788, 0.00397),
    6.0: (1.39239, 903.93492),
    10.0: (2.32065, 2206.57268),
    15.0: (3.48097, 2870.72755),
    50.0: (11.60326, 3804.50589),
}

# HIV sweep: beta2 -> (R2, equilibrium HIV count, equilibrium AIDS count).
# Three of the infected-count cells (0.051, 0.055, 0.099) contradict the R2
# published on their own rows. At the pinned equilibrium
# I_H* = (1 - 1/R2) * Lambda * d4 / (d3*d4 - alpha1*rho1) and
# A* = rho1/d4 * I_H*, so those rows' R2 imply 0 / 0 (R2 < 1, no endemic
# state), 113.87 / 17.67 and 5095.02 / 790.80. The runner asserts the
# printed cells anyway and reports the six failures rather than hiding
# them; tests/test_acceptance.py (criterion 2) scores those rows against
# the implied values.
HIV_SWEEP_REFERENCE = {
    0.051: (0.93669, 0.01708, 0.00266),
    0.055: (1.01016, 135.73817, 21.07182),
    0.07: (1.28566, 2516.54721, 390.59491),
    0.09: (1.65299, 4472.84980, 694.23361),
    0.099: (1.81829, 4930.48696, 765.26396),
}

# Fully endemic reference state (order as COMPARTMENTS) for beta1=6,
# beta2=0.1 under the 50000-pinned denominator, and the reproduction pair
# quoted with it (evaluated at n_ref=50000).
ENDEMIC_REFERENCE_STATE = np.array([4766.84, 2019.66, 943.06, 28621.89,
                                    362.66, 56.29, 31.39, 55.15,
                                    495.68, 112.33])
DFE_REFERENCE_R_PAIR = (0.62632, 0.55077)

# Treatment family: total population after 20 years, with and without TB
# treatment of singly-infected people (deaths on).
TREATMENT_N20_WITH = 29758.0
TREATMENT_N20_WITHOUT = 10509.0

_PERTURBATION_SEED = 20260822


@dataclass
class ScenarioSpec:
    name: str                  # prefix of the CSV files the result writes


@dataclass
class AssertionRecord:
    name: str
    expected: float
    actual: float
    tolerance: float
    passed: Optional[bool]     # None marks an informational row

    @property
    def status(self) -> str:
        if self.passed is None:
            return "info"
        return "pass" if self.passed else "fail"


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    trajectories: Dict[str, Trajectory] = field(default_factory=dict)
    terminal_states: Dict[str, np.ndarray] = field(default_factory=dict)
    equilibria: Dict[str, EquilibriumReport] = field(default_factory=dict)
    assertions: List[AssertionRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions if a.passed is not None)


def initial_state() -> np.ndarray:
    """The standard starting census: 50000 people split by INITIAL_FRACTIONS."""
    return INITIAL_FRACTIONS * INITIAL_POPULATION


def _record(result: ScenarioResult, name: str, expected: float, actual: float,
            tolerance: float) -> None:
    result.assertions.append(AssertionRecord(
        name=name, expected=expected, actual=actual, tolerance=tolerance,
        passed=bool(abs(actual - expected) <= tolerance)))


def _record_stable(result: ScenarioResult, name: str, state,
                   params: Parameters, n_ref: Optional[float] = None) -> None:
    report = stability_report(state, params, n_ref)
    result.assertions.append(AssertionRecord(
        name=name, expected=0.0, actual=report.dominant_real,
        tolerance=TOL_EIG, passed=report.classification == "stable"))


def _record_info(result: ScenarioResult, name: str, actual: float) -> None:
    result.assertions.append(AssertionRecord(
        name=name, expected=math.nan, actual=actual, tolerance=math.nan,
        passed=None))


def _max_relative_deviation(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref) / np.maximum(np.abs(ref), 1e-9)))


def run_table2(params: Optional[Parameters] = None) -> ScenarioResult:
    """TB transmission sweep: R1 and the endemic active-TB count per row.

    Rows are solved on the 4-compartment TB submodel with the denominator
    pinned at the disease-free population, the convention the reference
    values were generated under. A zero-transmission sanity row is appended.
    """
    base = params if params is not None else Parameters(0.0, 0.0)
    n_ref = disease_free_population(base)
    result = ScenarioResult(spec=ScenarioSpec(name="table2"))
    for beta1 in sorted(TB_SWEEP_REFERENCE):
        p = dataclasses.replace(base, beta1=beta1, beta2=0.0)
        key = f"beta1={beta1:g}"
        report = hiv_free(p, n_ref=n_ref)
        result.equilibria[key] = report
        r1_expect, it_expect = TB_SWEEP_REFERENCE[beta1]
        _record(result, f"{key} R1", r1_expect, report.repro.r1, 5e-5)
        # Sub-person reference counts are threshold artifacts; compare those
        # in absolute persons, everything else relatively.
        it_tol = 0.01 if it_expect < 1.0 else 0.005 * it_expect
        _record(result, f"{key} active-TB equilibrium", it_expect,
                float(report.state[2]), it_tol)
    zero = hiv_free(dataclasses.replace(base, beta1=0.0, beta2=0.0), n_ref=n_ref)
    result.equilibria["beta1=0"] = zero
    _record(result, "beta1=0 R1", 0.0, zero.repro.r1, 0.0)
    _record(result, "beta1=0 no endemic state", 0.0,
            float(zero.exists), 0.0)
    return result


def run_table3(params: Optional[Parameters] = None) -> ScenarioResult:
    """HIV transmission sweep: R2 and the equilibrium HIV/AIDS counts.

    Each row is solved twice: with the denominator pinned at the
    disease-free population (the reference convention) and self-consistent;
    the self-consistent counts follow the sweep as info rows. The HIV and AIDS cells printed for beta2 = 0.051,
    0.055 and 0.099 contradict the R2 on their own rows (which imply 0 / 0,
    113.87 / 17.67 and 5095.02 / 790.80; see HIV_SWEEP_REFERENCE), so those
    six assertions fail by design and the result does not pass. Criterion 2
    of tests/test_acceptance.py scores those rows against the implied values
    instead.
    """
    base = params if params is not None else Parameters(0.0, 0.0)
    n_h = disease_free_population(base)
    result = ScenarioResult(spec=ScenarioSpec(name="table3"))
    ratio = base.rho1 / removal_rates(base).d4
    for beta2 in sorted(HIV_SWEEP_REFERENCE):
        p = dataclasses.replace(base, beta1=0.0, beta2=beta2)
        key = f"beta2={beta2:g}"
        pinned = tb_free_numeric(p, n_ref=n_h)
        numeric = tb_free_numeric(p)
        result.equilibria[key] = numeric
        r2_expect, ih_expect, a_expect = HIV_SWEEP_REFERENCE[beta2]
        _record(result, f"{key} R2", r2_expect, pinned.repro.r2, 5e-5)
        i_h, a = (float(x) for x in pinned.state[[4, 5]])
        _record(result, f"{key} HIV equilibrium (pinned)", ih_expect,
                i_h, 0.002 * ih_expect)
        _record(result, f"{key} AIDS equilibrium (pinned)", a_expect,
                a, 0.002 * a_expect)
        if pinned.exists:
            _record(result, f"{key} AIDS/HIV ratio identity", ratio,
                    a / i_h, 1e-8)
        if numeric.exists:
            _record(result, f"{key} AIDS/HIV ratio identity (self-consistent)",
                    ratio, float(numeric.state[5] / numeric.state[4]), 1e-8)
    for key, report in result.equilibria.items():
        _record_info(result, f"{key} HIV equilibrium (self-consistent)",
                     float(report.state[4]))
        _record_info(result, f"{key} AIDS equilibrium (self-consistent)",
                     float(report.state[5]))
    return result


def _perturbed_starts() -> Dict[str, np.ndarray]:
    """The standard census ("base") and five censuses ("perturbed-1", ...)
    with the infected fractions jittered by up to 10%."""
    rng = np.random.default_rng(_PERTURBATION_SEED)
    starts = {"base": initial_state()}
    for i in range(1, 6):
        fractions = INITIAL_FRACTIONS.copy()
        jitter = 1.0 + rng.uniform(-0.1, 0.1, size=len(INFECTED_INDICES))
        fractions[list(INFECTED_INDICES)] *= jitter
        fractions /= fractions.sum()
        starts[f"perturbed-{i}"] = fractions * INITIAL_POPULATION
    return starts


def run_dfe_stability(params: Optional[Parameters] = None) -> ScenarioResult:
    """Subthreshold long-run behavior: every start decays to the
    disease-free state.

    Uses the full time-varying model over 500 years. The infected classes
    are below one person well before the horizon; the recovered-TB class
    drains at the slow demographic rate, which is why the horizon is longer
    than the infected decay alone would need.
    """
    base = params if params is not None else Parameters(2.7, 0.03)
    horizon = 500.0
    result = ScenarioResult(spec=ScenarioSpec(name="dfe-stability"))
    for key, y0 in _perturbed_starts().items():
        traj = integrate(lambda t, y, out: full_rhs(y, base, None, out), y0,
                         0.0, horizon)
        result.trajectories[key] = traj
        result.terminal_states[key] = traj.final
        infected_max = float(np.max(traj.final[list(INFECTED_INDICES)]))
        _record(result, f"{key} infected below 1 person at {horizon:g}y",
                0.0, infected_max, 1.0)

    _record_stable(
        result, "disease-free state locally stable (dominant eigenvalue < -1e-7)",
        disease_free(base).state, base)

    pair = r0(base, INITIAL_POPULATION)
    _record(result, "R1 at the initial census scale",
            DFE_REFERENCE_R_PAIR[0], pair.r1, 5e-5)
    _record(result, "R2 at the initial census scale",
            DFE_REFERENCE_R_PAIR[1], pair.r2, 5e-5)
    return result


def run_syndemic_stability(params: Optional[Parameters] = None) -> ScenarioResult:
    """Supercritical long-run behavior: every start settles on the same
    fully endemic state, which matches the curated reference vector.

    Runs under the 50000-pinned denominator, the convention the reference
    state was generated under; the pinned-system linearization at the
    settled state must be stable.
    """
    base = params if params is not None else Parameters(6.0, 0.1)
    n_ref = INITIAL_POPULATION
    horizon = 500.0
    result = ScenarioResult(spec=ScenarioSpec(name="syndemic-stability"))
    for key, y0 in _perturbed_starts().items():
        traj = integrate(lambda t, y, out: full_rhs(y, base, n_ref, out),
                         y0, 0.0, horizon)
        result.trajectories[key] = traj
        result.terminal_states[key] = traj.final

    finals = result.terminal_states
    worst_pair = max(_max_relative_deviation(b, a) for a, b in
                     itertools.combinations(finals.values(), 2))
    _record(result, "cross-start terminal agreement (relative)", 0.0,
            worst_pair, 1e-3)

    newton = syndemic(base, initial_state(), n_ref=n_ref)
    result.equilibria["newton"] = newton
    _record(result, "newton equilibrium vs reference (max relative)", 0.0,
            _max_relative_deviation(newton.state, ENDEMIC_REFERENCE_STATE),
            0.01)
    _record(result, "integrated state vs reference (max relative)", 0.0,
            _max_relative_deviation(finals["base"], ENDEMIC_REFERENCE_STATE),
            0.01)
    _record(result, "integration and root-finding agree (max relative)", 0.0,
            _max_relative_deviation(finals["base"], newton.state), 1e-3)
    _record_stable(result,
                   "endemic state locally stable under the pinned denominator",
                   newton.state, base, n_ref)
    return result


_TREATMENT_FAMILIES = {
    # family -> treatment rates zeroed in the without arm (minimal reading),
    # and additionally in the alternative arm (cross-compartment reading).
    "tb": ({"tau1": 0.0, "tau2": 0.0}, {"tau3": 0.0, "tau4": 0.0}),
    "aids": ({"alpha1": 0.0}, {"alpha2": 0.0}),
    "coinfection": ({"tau3": 0.0, "tau4": 0.0, "alpha2": 0.0},
                    {"tau1": 0.0, "tau2": 0.0, "alpha1": 0.0}),
}


def run_treatment_impact(params: Optional[Parameters] = None,
                         family: str = "tb",
                         deaths: str = "on") -> ScenarioResult:
    """Twenty-year treatment comparison for one treatment family.

    Arms: with-treatment (all rates as given), without-treatment (the
    family's rates zeroed), and without-treatment-alt (the corresponding
    rates in the other infection classes zeroed too; reported because the
    reference experiments do not pin down which reading they used). With
    deaths off, all disease-induced death rates are zeroed in every arm and
    the total population follows a closed-form demographic decay.
    """
    if family not in _TREATMENT_FAMILIES:
        raise ValueError(f"unknown treatment family: {family!r}")
    if deaths not in ("on", "off"):
        raise ValueError("deaths must be 'on' or 'off'")
    base = params if params is not None else Parameters(13.0, 0.06)
    if deaths == "off":
        base = dataclasses.replace(base, dT=0.0, dA=0.0, dTA=0.0)
    zeroed, extra = _TREATMENT_FAMILIES[family]
    arms = {
        "with-treatment": base,
        "without-treatment": dataclasses.replace(base, **zeroed),
        "without-treatment-alt": dataclasses.replace(base, **zeroed, **extra),
    }
    horizon = 20.0
    grid = np.linspace(0.0, horizon, 241)
    n_ref = INITIAL_POPULATION
    result = ScenarioResult(
        spec=ScenarioSpec(name=f"treatment-{family}-deaths-{deaths}"))
    y0 = initial_state()
    n20 = {}
    for key, p in arms.items():
        traj = integrate(
            lambda t, y, out, _p=p: full_rhs(y, _p, n_ref, out),
            y0, 0.0, horizon, report_times=grid)
        result.trajectories[key] = traj
        result.terminal_states[key] = traj.final
        n20[key] = total_population(traj.final)

    if deaths == "off":
        # With all disease deaths off, N obeys dN/dt = Lambda - mu N exactly.
        n_inf = disease_free_population(base)
        analytic = n_inf + (INITIAL_POPULATION - n_inf) * math.exp(-horizon * base.mu)
        for key in arms:
            _record(result, f"{key} N(20) matches demographic decay",
                    analytic, n20[key], 1.0)
    elif family == "tb":
        _record(result, "with-treatment N(20)", TREATMENT_N20_WITH,
                n20["with-treatment"], 0.05 * TREATMENT_N20_WITH)
        _record(result, "without-treatment N(20)", TREATMENT_N20_WITHOUT,
                n20["without-treatment"], 0.05 * TREATMENT_N20_WITHOUT)
        _record_info(result, "without-treatment-alt N(20)",
                     n20["without-treatment-alt"])

    if family == "aids" and deaths == "on":
        a_with = float(result.terminal_states["with-treatment"][5])
        a_without = float(result.terminal_states["without-treatment"][5])
        result.assertions.append(AssertionRecord(
            name="AIDS count at 20y higher without treatment",
            expected=0.0, actual=a_without - a_with, tolerance=0.0,
            passed=bool(a_without > a_with)))

    if family == "coinfection":
        wo = result.trajectories["without-treatment"]
        r_th_max = float(np.max(np.abs(wo.states[:, 8])))
        _record(result, "untreated arm recovered-coinfection stays zero",
                0.0, r_th_max, 1e-9)
        with_i = result.trajectories["with-treatment"]
        crossing = _first_crossing(with_i, wo, component=7, after=0.1)
        if deaths == "off":
            _record(result,
                    "active coinfection drops below the treated arm near year 7",
                    7.0, crossing, 1.5)
        else:
            _record_info(result, "coinfected crossover year", crossing)

    if deaths == "on" and family != "tb":   # else N(20) is asserted above
        for key in arms:
            _record_info(result, f"{key} N(20)", n20[key])
    return result


def _first_crossing(with_traj: Trajectory, without_traj: Trajectory,
                    component: int, after: float) -> float:
    """First report time after ``after`` where the untreated arm falls below
    the treated.

    The arms take different adaptive steps, so both must hold the same
    report grid; they are compared there, never step by step.
    """
    times = with_traj.times
    if not np.array_equal(times, without_traj.times):
        raise ValueError("the arms hold different report times")
    below = ((times > after) & (without_traj.states[:, component]
                                < with_traj.states[:, component]))
    return float(times[below][0]) if below.any() else math.inf


# Every canned experiment by the name of its result and files, as
# runner(params); params None runs the experiment's own defaults.
SCENARIOS: Dict[str, Callable[[Optional[Parameters]], ScenarioResult]] = {
    "table2": run_table2, "table3": run_table3,
    "dfe-stability": run_dfe_stability,
    "syndemic-stability": run_syndemic_stability,
    **{f"treatment-{family}-deaths-{deaths}": functools.partial(
        run_treatment_impact, family=family, deaths=deaths)
       for family in _TREATMENT_FAMILIES for deaths in ("on", "off")},
}


def atomic_write(path: Path, text: str) -> None:
    """Write text to path through a temporary file in the same directory,
    renamed over the target; on any failure the temporary file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.10g}"


def trajectory_csv(traj: Trajectory, spec: str, newline: str) -> str:
    """A trajectory as CSV text: a header line, then for each stored time
    the time in years, the ten compartments in model order and the total,
    each number formatted as ``"%" + spec`` formats it (the same text as
    ``format(v, spec)`` for the specs used here, such as ".10g") and every
    line ended by ``newline``. The states are finite (``integrate`` accepts
    no other), so no field needs quoting."""
    row = ",".join(["%" + spec] * (len(COMPARTMENTS) + 2))
    lines = [",".join(["time_years", *COMPARTMENTS, "total"])]
    lines += [row % (t, *y, total) for t, y, total in
              zip(traj.times.tolist(), traj.states.tolist(),
                  traj.states.sum(axis=1).tolist())]
    lines.append("")
    return newline.join(lines)


def write_scenario_csv(result: ScenarioResult, out_dir) -> List[Path]:
    """One CSV per trajectory plus a summary CSV with one row per assertion
    record, in order.

    Trajectory files hold one row per stored time of the trajectory (the
    report grid of the treatment runs, every step of the stability runs),
    ``trajectory_csv`` with ten significant digits and CRLF line ends, as
    ``csv.writer`` ends them. Files are written atomically (temp file then
    rename).
    """
    out = Path(out_dir)
    written = []
    for key, traj in result.trajectories.items():
        path = out / f"{result.spec.name}__{key}.csv"
        atomic_write(path, trajectory_csv(traj, ".10g", "\r\n"))
        written.append(path)
    summary_rows = [[a.name, _format(a.expected), _format(a.actual),
                     _format(a.tolerance), a.status]
                    for a in result.assertions]
    path = out / f"{result.spec.name}__summary.csv"
    atomic_write(path, _csv_text(["name", "expected", "actual", "tolerance",
                                  "status"], summary_rows))
    written.append(path)
    return written
