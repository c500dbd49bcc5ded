"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs a few items of each workload, requires every check to accept the
program's real output, then feeds each check doctored copies of that
output and requires it to reject every one. Exits 0 when all of this
holds, 1 otherwise. Takes about ten seconds.
"""
import dataclasses
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import syndemic  # noqa: E402
import syndemic.cli  # noqa: E402
import syndemic.scenarios  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

SCRATCH = ROOT / "perfbench" / "out" / "selftest"


# ------------------------------------------------------------ doctorings

def with_state(output, state):
    report, stab = output
    return dataclasses.replace(report, state=state), stab


def scaled_state(factor):
    return lambda out: with_state(out, out[0].state * factor)


def negative_component(out):
    state = out[0].state.copy()
    state[ref.RT] = -1.0
    return with_state(out, state)


def wrong_kind(out):
    report, stab = out
    kind = "syndemic" if report.kind != "syndemic" else "hiv-free"
    return dataclasses.replace(report, kind=kind), stab


def group_in_between(out):
    state = out[0].state.copy()
    state[list(ref.TB_GROUP)] = 0.0
    state[ref.LT] = 0.5
    return with_state(out, state)


def unstable(out):
    report, stab = out
    return report, dataclasses.replace(stab, classification="unstable")


def bump_component(index, factor):
    def doctor(out):
        state = out[0].state.copy()
        state[index] *= factor
        return with_state(out, state)
    return doctor


def active_tb_off(out):
    state = out[0].state.copy()
    state[ref.IT] = state[ref.IT] * 1.01 + 0.02
    return with_state(out, state)


def r1_off(out):
    report, stab = out
    return dataclasses.replace(report, repro=report.repro._replace(r1=report.repro.r1 + 1e-4)), stab


def runner_failure(out):
    result, files = out
    records = list(result.assertions)
    records[0] = dataclasses.replace(records[0], passed=False)
    return dataclasses.replace(result, assertions=records), files


def n20_off(out):
    result, files = out
    states = dict(result.terminal_states)
    states["with-treatment"] = states["with-treatment"] * 1.06
    return dataclasses.replace(result, terminal_states=states), files


def rewrite_csv(path, edit):
    """Copy path into the self-test directory with its lines edited."""
    lines = Path(path).read_text().splitlines()
    target = SCRATCH / "doctored" / Path(path).parent.name / Path(path).name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("\n".join(edit(lines)) + "\n")
    return target


def edit_cell(row, column, change):
    def edit(lines):
        cells = lines[row].split(",")
        cells[column] = repr(change(float(cells[column])))
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return edit


def drop_row(lines):
    return lines[:100] + lines[101:]


def treatment_file_edit(edit):
    def doctor(out):
        result, files = out
        first = next(f for f in files if not str(f).endswith("__summary.csv"))
        return result, [rewrite_csv(first, edit) if f == first else f for f in files]
    return doctor


def simulate_dir(edit_csv=None, edit_svg=None):
    def doctor(out):
        rc, src = out
        dst = SCRATCH / "doctored" / src.name
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(src, dst)
        if edit_csv:
            path = dst / "trajectory.csv"
            path.write_text("\n".join(edit_csv(path.read_text().splitlines())) + "\n")
        if edit_svg:
            path = dst / "trajectory.svg"
            path.write_text(edit_svg(path.read_text()))
        return rc, dst
    return doctor


def drop_polyline(svg):
    start = svg.index("<polyline")
    return svg[:start] + svg[svg.index("/>", start) + 2:]


def threshold_part(index, change):
    def doctor(out):
        parts = list(out)
        parts[index] = change(parts[index])
        return tuple(parts)
    return doctor


def flip_classification(stab):
    cls = "unstable" if stab.classification == "stable" else "stable"
    return dataclasses.replace(stab, classification=cls)


# Doctored outputs each check must reject, keyed by the check's name.
DOCTORS = {
    "check_nonnegative": [("a component at -1", negative_component)],
    "residual_check": [("state scaled by 1.01", scaled_state(1.01))],
    "check_kind": [("kind label swapped", wrong_kind),
                   ("TB group at 0.5 persons", group_in_between)],
    "check_stable": [("classified unstable", unstable)],
    "pinned_hiv_check": [("I_H scaled by 1 + 1e-4", bump_component(ref.IH, 1 + 1e-4))],
    "hiv_ratio_check": [("A scaled by 1 + 1e-6", bump_component(ref.A, 1 + 1e-6))],
    "tb_sweep_check": [("R1 off by 1e-4", r1_off),
                       ("active TB scaled by 1.01, plus 0.02 persons", active_tb_off)],
    "check_endemic_state": [("state scaled by 1.02", scaled_state(1.02))],
    "check_treatment_passed": [("one assertion failed", runner_failure)],
    "check_treatment_csvs": [("one row dropped", treatment_file_edit(drop_row)),
                             ("total column off by 1%",
                              treatment_file_edit(edit_cell(50, 11, lambda v: v * 1.01)))],
    "demography_check": [("2 persons added at one report time",
                          treatment_file_edit(edit_cell(120, 1, lambda v: v + 2.0)))],
    "check_tb_n20": [("N(20) scaled by 1.06", n20_off)],
    "check_simulate_exit": [("exit code 2", lambda out: (2, out[1]))],
    "check_simulate_csv": [("one row dropped", simulate_dir(edit_csv=drop_row)),
                           ("time column shifted", simulate_dir(
                               edit_csv=edit_cell(10, 0, lambda v: v + 0.01))),
                           ("total column off by 1%", simulate_dir(
                               edit_csv=edit_cell(10, 11, lambda v: v * 1.01)))],
    "check_simulate_svg": [("one polyline removed", simulate_dir(edit_svg=drop_polyline)),
                           ("truncated XML", simulate_dir(edit_svg=lambda s: s[:-10]))],
    "check_r0": [("R1 scaled by 1 + 1e-9", threshold_part(
        0, lambda n: n._replace(r1=n.r1 * (1 + 1e-9))))],
    "check_ngm": [("NGM radius off by 1e-4", threshold_part(
        1, lambda g: dataclasses.replace(g, rho=g.rho + 1e-4)))],
    "check_dfe_stability": [("classification flipped", threshold_part(2, flip_classification))],
    "check_bifurcation": [
        ("beta_star scaled by 1 + 1e-9", threshold_part(
            4, lambda b: dataclasses.replace(b, beta_star=b.beta_star * (1 + 1e-9)))),
        ("a positive", threshold_part(4, lambda b: dataclasses.replace(b, a=abs(b.a)))),
        ("b negative", threshold_part(4, lambda b: dataclasses.replace(b, b=-abs(b.b))))],
    "trace_check": [("trace off by 1e-3", threshold_part(
        3, lambda td: (td[0] + 1e-3, td[1])))],
    "FinalRowCheck": [("a final row scaled by 1 + 1e-4", None)],   # doctored in main()
}


def check_name(check):
    """The check's own name, or its factory's for a closure named check."""
    return check.__qualname__.split(".")[0] if check.__name__ == "check" else check.__name__


# ------------------------------------------------------------ running

def covering_items(workload):
    """The first item of each distinct set of checks, in round order."""
    chosen, signatures = [], set()
    for item in workload.items:
        signature = frozenset(check_name(c) for c in item.checks)
        if signature not in signatures:
            signatures.add(signature)
            chosen.append(item)
    return chosen


def rejects(check, *output):
    try:
        check(*output)
    except wl.CheckFailed:
        return True
    return False


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    problems, seen = [], set()
    for name in wl.BY_NAME:
        workload = wl.build(name, syndemic, 1, SCRATCH / name)
        for item in covering_items(workload):
            output = item.run()
            for check in item.checks:
                if isinstance(getattr(check, "__self__", None), wl.FinalRowCheck):
                    check(output)      # records the final row for the deferred check
                    continue
                cname = check_name(check)
                seen.add(cname)
                if rejects(check, output):
                    problems.append(f"{item.label}: {cname} rejects the real output")
                if not DOCTORS.get(cname):
                    problems.append(f"{cname} has no doctored output")
                for what, doctor in DOCTORS.get(cname, ()):
                    if not rejects(check, doctor(output)):
                        problems.append(f"{item.label}: {cname} accepts {what}")
            print(f"{name}: {item.label}: {len(item.checks)} checks", flush=True)
        for final in workload.deferred:
            if not final.rows:
                continue
            seen.add("FinalRowCheck")
            if rejects(final):
                problems.append("final-row check rejects the real output")
            final.rows.append(final.rows[-1] * (1 + 1e-4))
            if not rejects(final):
                problems.append("final-row check accepts a row scaled by 1 + 1e-4")
    unused = set(DOCTORS) - seen
    if unused:
        problems.append(f"no item exercised {sorted(unused)}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for line in problems:
        print("FAIL", line)
    doctored = sum(len(v) for v in DOCTORS.values())
    print(f"selftest {'failed' if problems else 'passed'}: {len(seen)} checks, "
          f"{doctored} doctored outputs")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
