"""The three workloads: their inputs, their items and the checks on each item.

A workload is one round of items, built from the seed, that the benchmark
repeats until the run's time is up. Every round holds the same items in
the same order, so every run attempts whole rounds of the same operations.
An item calls the public functions of ``syndemic`` through module
attributes, looked up at call time, so that the traced mode can rebind
them. Each check is a function of the item's output that raises
CheckFailed; the self-test feeds the same functions doctored outputs.
"""
import contextlib
import dataclasses
import io
import math
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import Callable, List

import numpy as np

import reference as ref

HORIZON = 20.0
REPORT_GRID = np.linspace(0.0, HORIZON, 241)

RESIDUAL_TOL = 1e-8          # ||rhs||/N, 1/year, at a returned equilibrium
CLOSED_FORM_TOL = 1e-6       # relative, pinned HIV-only counts
RATIO_TOL = 1e-8             # absolute, A/I_H against rho1/d4
R_PUBLISHED_TOL = 5e-5       # absolute, published R1
COUNT_PUBLISHED_TOL = 0.005  # relative, published active-TB counts
ENDEMIC_TOL = 0.01           # relative, published endemic state
DEMOGRAPHY_TOL = 1.0         # persons, N(t) with disease deaths off
N20_TOL = 0.05               # relative, published treatment N(20)
TOTAL_TOL = 1e-6             # relative, CSV total column against the row sum
GRID_TOL = 1e-7              # relative to max(t, 1), CSV time column against the grid
FINAL_ROW_TOL = 1e-6         # relative to max(|x|, 1), final row against DOP853
NGM_TOL = 1e-6               # relative, NGM radius against max(R1, R2)
R_CLOSED_TOL = 1e-12         # relative, r0 against the benchmark's R1, R2
THRESHOLD_BAND = 1e-3        # |max(R1, R2) - 1| below this: sign not checked
BETA_STAR_TOL = 1e-12        # relative
TRACE_TOL = 1e-9             # relative


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclasses.dataclass
class Item:
    label: str
    run: Callable[[], object]
    checks: List[Callable[[object], None]]


@dataclasses.dataclass
class Workload:
    items: List[Item]           # one round, in run order
    tail_percentile: float      # item_tail_ms is read at this percentile
    deferred: List[Callable[[], None]] = dataclasses.field(default_factory=list)

    @property
    def min_items(self):
        """Timed items a run needs so that ten lie beyond the tail rank."""
        return math.ceil(10.0 / (1.0 - self.tail_percentile) - 1e-9)

    def finish(self):
        """Checks that need scipy; run after the timed part and after the
        peak memory reading, so neither includes them."""
        for check in self.deferred:
            check()


def jitter(values, rng, rel):
    values = np.asarray(values, dtype=float)
    return values * (1.0 + rng.uniform(-rel, rel, size=values.shape))


def jittered_census(rng):
    """The standard census with its infected fractions jittered by up to
    10% and renormalised, as scenarios._perturbed_starts makes them."""
    fractions = ref.STANDARD_FRACTIONS.copy()
    infected = [i for i in range(10) if i not in (ref.S, ref.RT)]
    fractions[infected] *= 1.0 + rng.uniform(-0.1, 0.1, size=len(infected))
    return fractions / fractions.sum()


def interleave(*groups):
    out = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# --------------------------------------------------------------- equilibria

def check_nonnegative(output):
    report, _ = output
    require(np.all(report.state >= 0.0), "equilibrium state has a negative component")


def residual_check(p, n_ref):
    def check(output):
        report, _ = output
        res = ref.relative_residual(report.state, p, n_ref)
        require(res <= RESIDUAL_TOL, f"relative residual {res:.3g} above {RESIDUAL_TOL}")
    return check


def check_kind(output):
    report, _ = output
    reading = ref.read_kind(report.state)
    require(reading is not None, "an infected group lies between 1e-3 and 1 person")
    require(report.kind == reading, f"kind {report.kind!r}, state reads {reading!r}")


def check_stable(output):
    _, stab = output
    require(stab.classification == "stable",
            f"equilibrium classified {stab.classification!r}")


def pinned_hiv_check(p):
    def check(output):
        report, _ = output
        i_h, a = ref.pinned_hiv_equilibrium(p)
        for name, got, want in (("I_H", report.state[ref.IH], i_h),
                                ("A", report.state[ref.A], a)):
            require(abs(got - want) <= CLOSED_FORM_TOL * want,
                    f"pinned {name} {got!r}, closed form {want!r}")
    return check


def hiv_ratio_check(p):
    def check(output):
        report, _ = output
        ratio = report.state[ref.A] / report.state[ref.IH]
        want = p.rho1 / (p.alpha1 + p.mu + p.dA)
        require(abs(ratio - want) <= RATIO_TOL, f"A/I_H {ratio!r}, rho1/d4 {want!r}")
    return check


def tb_sweep_check(beta1):
    r1_pub, it_pub = ref.TB_SWEEP[beta1]

    def check(output):
        report, _ = output
        require(abs(report.repro.r1 - r1_pub) <= R_PUBLISHED_TOL,
                f"R1 {report.repro.r1!r}, published {r1_pub}")
        tol = 0.01 if it_pub < 1.0 else COUNT_PUBLISHED_TOL * it_pub
        got = report.state[ref.IT]
        require(abs(got - it_pub) <= tol, f"active TB {got!r}, published {it_pub}")
    return check


def check_endemic_state(output):
    report, _ = output
    dev = float(np.max(np.abs(report.state - ref.ENDEMIC_STATE) / ref.ENDEMIC_STATE))
    require(dev <= ENDEMIC_TOL, f"endemic state off the published one by {dev:.3g}")


def _equilibrium_item(syn, label, p, n_ref, solve, extra):
    def run():
        report = solve()
        return report, syn.stability_report(report.state, p, n_ref)
    checks = [check_nonnegative, residual_check(p, n_ref), check_kind,
              check_stable, *extra]
    return Item(label, run, checks)


def equilibrium_sweep(syn, seed, scratch):
    rng = np.random.default_rng(seed)
    base = syn.Parameters(beta1=0.0, beta2=0.0)
    n_dfe = base.Lambda / base.mu

    tb_rows = []
    published = sorted(ref.TB_SWEEP)
    for beta1 in published + list(jitter(np.geomspace(5.0, 40.0, 4), rng, 0.05)):
        p = dataclasses.replace(base, beta1=float(beta1))
        extra = [tb_sweep_check(beta1)] if beta1 in ref.TB_SWEEP else []
        tb_rows.append(_equilibrium_item(
            syn, f"hiv_free beta1={beta1:.6g}", p, n_dfe,
            lambda p=p: syn.hiv_free(p, n_ref=n_dfe), extra))

    hiv_rows = []
    for beta2 in jitter(np.geomspace(0.08, 0.4, 4), rng, 0.05):
        p = dataclasses.replace(base, beta2=float(beta2))
        for n_ref, extra in ((n_dfe, [pinned_hiv_check(p)]), (None, [hiv_ratio_check(p)])):
            hiv_rows.append(_equilibrium_item(
                syn, f"tb_free_numeric beta2={beta2:.6g} n_ref={n_ref}",
                p, n_ref, lambda p=p, n_ref=n_ref: syn.tb_free_numeric(p, n_ref=n_ref),
                extra))

    b1, b2, n_pub = ref.ENDEMIC_POINT
    census = ref.STANDARD_FRACTIONS * ref.STANDARD_POPULATION
    points = [(b1, b2, n_pub, census, [check_endemic_state])]
    for beta1 in (4.0, 5.5, 7.0):
        for beta2 in (0.15, 0.3):
            jb1, jb2 = jitter([beta1, beta2], rng, 0.05)
            for n_ref in (ref.STANDARD_POPULATION, None):
                census = jittered_census(rng) * ref.STANDARD_POPULATION
                points.append((float(jb1), float(jb2), n_ref, census, []))
    coupled = []
    for beta1, beta2, n_ref, census, extra in points:
        p = dataclasses.replace(base, beta1=beta1, beta2=beta2)
        coupled.append(_equilibrium_item(
            syn, f"syndemic beta1={beta1:.6g} beta2={beta2:.6g} n_ref={n_ref}",
            p, n_ref, lambda p=p, n_ref=n_ref, census=census: syn.syndemic(p, census, n_ref=n_ref),
            extra))

    return Workload(interleave(tb_rows, hiv_rows, coupled), tail_percentile=0.95)


# ----------------------------------------------------------- trajectories

def read_csv(path):
    """(header, rows) of a CSV the program wrote."""
    lines = Path(path).read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows


def check_report_csv(header, rows):
    """241 rows on the report grid, ten compartments, total = row sum."""
    require(len(header) == 12 and header[0] == "time_years" and header[-1] == "total",
            f"unexpected header {header}")
    require(rows.shape == (len(REPORT_GRID), 12), f"CSV holds {rows.shape[0]} rows, not 241")
    require(np.all(np.abs(rows[:, 0] - REPORT_GRID) <= GRID_TOL * np.maximum(REPORT_GRID, 1.0)),
            "time column is not linspace(0, 20, 241)")
    sums = rows[:, 1:11].sum(axis=1)
    require(np.all(np.abs(rows[:, 11] - sums) <= TOTAL_TOL * np.abs(sums)),
            "total column differs from the row sum")


def check_treatment_passed(output):
    result, _ = output
    failed = [a.name for a in result.assertions if a.passed is False]
    require(result.passed and not failed, f"runner reports failures: {failed}")


def check_treatment_csvs(output):
    result, files = output
    names = {Path(f).name for f in files}
    for key in result.trajectories:
        require(f"{result.spec.name}__{key}.csv" in names, f"no CSV for arm {key}")
    require(f"{result.spec.name}__summary.csv" in names, "no summary CSV")
    for f in files:
        if not str(f).endswith("__summary.csv"):
            check_report_csv(*read_csv(f))


def demography_check(p):
    def check(output):
        _, files = output
        for f in files:
            if str(f).endswith("__summary.csv"):
                continue
            _, rows = read_csv(f)
            want = ref.demographic_total(p, ref.STANDARD_POPULATION, rows[:, 0])
            dev = float(np.max(np.abs(rows[:, 1:11].sum(axis=1) - want)))
            require(dev <= DEMOGRAPHY_TOL,
                    f"{Path(f).name}: N(t) off the demographic decay by {dev:.3g} persons")
    return check


def check_tb_n20(output):
    result, _ = output
    for arm, want in ref.TB_TREATMENT_N20.items():
        got = float(np.sum(result.terminal_states[arm]))
        require(abs(got - want) <= N20_TOL * want, f"{arm} N(20) {got:.6g}, published {want}")


def check_simulate_exit(output):
    rc, _ = output
    require(rc == 0, f"simulate exited {rc}")


def check_simulate_csv(output):
    _, out = output
    check_report_csv(*read_csv(out / "trajectory.csv"))


def check_simulate_svg(output):
    _, out = output
    try:
        root = ElementTree.fromstring((out / "trajectory.svg").read_text())
    except ElementTree.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    require(len(lines) == 10, f"SVG holds {len(lines)} polylines, not 10")


@dataclasses.dataclass
class FinalRowCheck:
    """Compares every final row a simulate item wrote against a DOP853 run
    of the benchmark's own right-hand side. ``record`` is one of the item's
    checks; the comparison is deferred to Workload.finish."""
    p: object
    y0: np.ndarray
    rows: list = dataclasses.field(default_factory=list)

    def record(self, output):
        _, out = output
        _, rows = read_csv(out / "trajectory.csv")
        self.rows.append(rows[-1, 1:11])

    def __call__(self):
        from scipy.integrate import solve_ivp
        sol = solve_ivp(lambda t, y: ref.rhs(y, self.p), (0.0, HORIZON), self.y0,
                        method="DOP853", rtol=1e-12, atol=1e-9)
        require(sol.success, f"reference integration failed: {sol.message}")
        want = sol.y[:, -1]
        for got in self.rows:
            dev = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))
            require(dev <= FINAL_ROW_TOL,
                    f"simulate final row off the DOP853 reference by {dev:.3g}")


def treatment_trajectories(syn, seed, scratch):
    rng = np.random.default_rng(seed)
    scenarios, cli = syn.scenarios, syn.cli
    base = syn.Parameters(beta1=13.0, beta2=0.06)
    scenario_dir = scratch / "scenarios"

    treatment = []
    for family in ("tb", "aids", "coinfection"):
        for deaths in ("on", "off"):
            checks = [check_treatment_passed, check_treatment_csvs]
            if deaths == "off":
                checks.append(demography_check(base))
            elif family == "tb":
                checks.append(check_tb_n20)

            def run(family=family, deaths=deaths):
                result = scenarios.run_treatment_impact(family=family, deaths=deaths)
                return result, scenarios.write_scenario_csv(result, scenario_dir)
            treatment.append(Item(f"treatment {family} deaths={deaths}", run, checks))

    simulate, deferred = [], []
    for i, (beta1, beta2) in enumerate((b1, b2) for b1 in np.geomspace(2.0, 40.0, 4)
                                       for b2 in np.geomspace(0.02, 0.5, 3)):
        beta1, beta2 = (float(v) for v in jitter([beta1, beta2], rng, 0.05))
        fractions = jittered_census(rng)
        out = scratch / f"simulate-{i:02d}"
        out.mkdir(parents=True, exist_ok=True)
        config = out / "census.cfg"
        config.write_text("".join(f"init.{name} = {float(value)!r}\n" for name, value
                                  in zip(syn.COMPARTMENTS, fractions))
                          + f"init.total = {ref.STANDARD_POPULATION!r}\n")
        argv = ["simulate", "--config", str(config), "--beta1", repr(beta1),
                "--beta2", repr(beta2), "--horizon", repr(HORIZON), "--out", str(out)]

        def run(argv=argv, out=out):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            return rc, out
        final = FinalRowCheck(syn.Parameters(beta1=beta1, beta2=beta2),
                              fractions * ref.STANDARD_POPULATION)
        simulate.append(Item(f"simulate beta1={beta1:.6g} beta2={beta2:.6g}", run,
                             [check_simulate_exit, check_simulate_csv, check_simulate_svg,
                              final.record]))
        deferred.append(final)

    items = interleave(treatment, simulate[0::2], simulate[1::2])
    return Workload(items, tail_percentile=0.90, deferred=deferred)


# ---------------------------------------------------------------- thresholds

def threshold_checks(p):
    r1, r2 = ref.r1(p), ref.r2(p)
    r_max = max(r1, r2)

    def check_r0(output):
        numbers = output[0]
        require(abs(numbers.r1 - r1) <= R_CLOSED_TOL * r1 and
                abs(numbers.r2 - r2) <= R_CLOSED_TOL * r2,
                f"r0 gives ({numbers.r1!r}, {numbers.r2!r}), closed forms ({r1!r}, {r2!r})")

    def check_ngm(output):
        rho = output[1].rho
        require(abs(rho - r_max) <= NGM_TOL * r_max,
                f"NGM radius {rho!r}, max(R1, R2) {r_max!r}")

    def check_dfe_stability(output):
        cls = output[2].classification
        if abs(r_max - 1.0) > THRESHOLD_BAND:
            require((cls == "stable") == (r_max < 1.0),
                    f"disease-free state {cls!r} at max(R1, R2) = {r_max:.6g}")

    def check_bifurcation(output):
        bif = output[4]
        want = ref.beta2_threshold(p)
        require(abs(bif.beta_star - want) <= BETA_STAR_TOL * want,
                f"beta_star {bif.beta_star!r}, root of R2 = 1 at {want!r}")
        require(bif.a < 0.0 < bif.b, f"not a forward bifurcation: a={bif.a!r}, b={bif.b!r}")

    return [check_r0, check_ngm, check_dfe_stability, check_bifurcation]


def trace_check(syn, p, dfe):
    def check(output):
        trace = output[3][0]
        jac_trace = float(np.trace(syn.jacobian(dfe, p)))
        require(abs(trace - jac_trace) <= TRACE_TOL * abs(trace),
                f"closed-form trace {trace!r}, jacobian trace {jac_trace!r}")
    return check


def threshold_analysis(syn, seed, scratch):
    rng = np.random.default_rng(seed)
    base = syn.Parameters(beta1=0.0, beta2=0.0)
    dfe = np.zeros(10)
    dfe[ref.S] = base.Lambda / base.mu
    items = []
    for beta1 in np.geomspace(0.5, 50.0, 20):
        for beta2 in np.geomspace(0.005, 0.5, 20):
            jb1, jb2 = (float(v) for v in jitter([beta1, beta2], rng, 0.05))
            p = dataclasses.replace(base, beta1=jb1, beta2=jb2)

            def run(p=p):
                return (syn.r0(p), syn.ngm_decomposition(p),
                        syn.stability_report(dfe, p), syn.dfe_trace_det(p),
                        syn.bifurcation_analysis(p))
            items.append(Item(f"threshold beta1={jb1:.6g} beta2={jb2:.6g}",
                              run, threshold_checks(p) + [trace_check(syn, p, dfe)]))
    return Workload(items, tail_percentile=0.99)


BY_NAME = {
    "equilibrium-sweep": equilibrium_sweep,
    "treatment-trajectories": treatment_trajectories,
    "threshold-analysis": threshold_analysis,
}


def build(name, syn, seed, scratch):
    return BY_NAME[name](syn, seed, Path(scratch))
