"""Regenerate the golden trajectory outputs in this directory.

Two ``simulate`` and two ``sweep`` invocations, each as ``NAME.txt`` (the
command on its first line, as ``$ syndemic ARGS``, then its standard
output, then ``exit CODE``, as in ``../cli``) and ``NAME.csv`` (the one CSV
file it wrote: ``trajectory.csv`` or ``sweep.csv``). Each runs with
``--out out`` in a fresh working directory, so the paths it prints are the
same wherever it runs. Beside them, the CSV
files that ``write_scenario_csv`` writes for treatment-tb under
``--deaths on`` and ``off`` and for the table2 and table3 sweeps, and the
summary CSV alone of dfe-stability, syndemic-stability, and treatment-aids
and treatment-coinfection under both death settings, under the names it
gives them.
``tests/test_golden_trajectories.py`` compares all of them byte for byte.

    PYTHONPATH=src python tests/golden/trajectories/regenerate.py

Rewrite the files only for a change that is meant to move these outputs,
and read the diff before committing it.
"""
import contextlib
import dataclasses
import functools
import io
import os
import tempfile
from pathlib import Path

from syndemic.cli import main
from syndemic.scenarios import (run_dfe_stability, run_syndemic_stability,
                                run_table2, run_table3, run_treatment_impact,
                                write_scenario_csv)

HERE = Path(__file__).resolve().parent

SIMULATE = {
    f"simulate_{beta1}_{beta2}": ("simulate", "--beta1", beta1,
                                  "--beta2", beta2, "--out", "out")
    for beta1, beta2 in (("13", "0.06"), ("6", "0.1"))}
# R2 across its threshold, and R1 across its own under the census
# denominator
SWEEP = {
    "sweep_beta2": ("sweep", "--beta1", "6", "--beta2", "0.1", "--param",
                    "beta2", "--values", "0.03,0.055,0.07,0.1", "--out",
                    "out"),
    "sweep_beta1_nref-N0": ("sweep", "--beta1", "6", "--beta2", "0.1",
                            "--param", "beta1", "--values", "2.7,4.5,6,13",
                            "--nref", "N0", "--out", "out"),
}
TREATMENT_DEATHS = ("on", "off")     # treatment-tb, as tests/conftest.py runs it
TABLES = {"table2": run_table2, "table3": run_table3}   # summary CSV only
# scenario name -> run, whose summary CSV alone is golden: their trajectory
# files are large, and the summary holds every asserted number
SUMMARIES = {
    "dfe-stability": run_dfe_stability,
    "syndemic-stability": run_syndemic_stability,
    **{f"treatment-{family}-deaths-{deaths}": functools.partial(
        run_treatment_impact, family=family, deaths=deaths)
       for family in ("aids", "coinfection") for deaths in TREATMENT_DEATHS},
}


def render(argv) -> str:
    """The golden text of one invocation: command, standard output, exit
    code. The command writes under the current working directory."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(argv))
    return f"$ syndemic {' '.join(argv)}\n{printed.getvalue()}exit {code}\n"


if __name__ == "__main__":
    os.environ.pop("SYNDEMIC_OUT_DIR", None)     # it would override --out
    for stale in [*HERE.glob("*.txt"), *HERE.glob("*.csv")]:
        stale.unlink()
    home, written = os.getcwd(), []
    for name, argv in {**SIMULATE, **SWEEP}.items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                (HERE / f"{name}.txt").write_bytes(render(argv).encode())
                [report] = Path("out").glob("*.csv")
                (HERE / f"{name}.csv").write_bytes(report.read_bytes())
                written += [HERE / f"{name}.txt", HERE / f"{name}.csv"]
            finally:
                os.chdir(home)
    for deaths in TREATMENT_DEATHS:
        written += write_scenario_csv(
            run_treatment_impact(family="tb", deaths=deaths), HERE)
    for run in TABLES.values():
        written += write_scenario_csv(run(), HERE)
    for run in SUMMARIES.values():
        written += write_scenario_csv(
            dataclasses.replace(run(), trajectories={}), HERE)
    print(f"wrote {len(written)} files to {HERE}")
