"""Regenerate the golden command-line outputs in this directory.

Each ``NAME.txt`` holds one invocation of the ``syndemic`` tool: the
command on its first line, as ``$ syndemic ARGS``, then everything the
command printed to standard output, then ``exit CODE``.
``tests/test_golden_cli.py`` replays every invocation through ``cli.main``
in process and compares the bytes, except the last field of an
``equilibrium`` data row: that is the roundoff-level residual, which is
only bounded (``RESIDUAL_BOUND``).

    PYTHONPATH=src python tests/golden/cli/regenerate.py

A file that differs from its new text only in a residual, both within
the bound, is left as it is: that field is roundoff and follows the BLAS
kernel, so a run that changes nothing else rewrites nothing. Rewrite the
files only for a change that is meant to move these outputs, and read the
diff before committing it.
"""
import contextlib
import io
from pathlib import Path

from syndemic.cli import main

HERE = Path(__file__).resolve().parent

RATE_PAIRS = (("6", "0.1"), ("2.7", "0.03"), ("13", "0.06"))
# the equilibrium rows add a boundary root under both denominators and a
# stiff, extreme-transmission pair
EQUILIBRIUM_PAIRS = RATE_PAIRS + (("10", "0.13"), ("1e4", "50"))
EQUILIBRIUM_KINDS = ("dfe", "tbfree", "hivfree", "syndemic")
DENOMINATORS = ((), ("--nref", "N0"))
RESIDUAL_BOUND = 1e-12


def _suffix(beta1, beta2, nref) -> str:
    return f"_{beta1}_{beta2}" + ("_nref-N0" if nref else "")


def _invocations():
    table = {}
    for beta1, beta2 in RATE_PAIRS:
        rates = ("--beta1", beta1, "--beta2", beta2)
        for nref in DENOMINATORS:
            suffix = _suffix(beta1, beta2, nref)
            table["r0" + suffix] = ("r0", *rates, *nref)
            for at in ("dfe", "syndemic"):
                table[f"stability-{at}" + suffix] = (
                    "stability", *rates, "--at", at, *nref)
    for beta1, beta2 in RATE_PAIRS[:2]:
        table[f"bifurcation_{beta1}_{beta2}"] = (
            "stability", "--beta1", beta1, "--beta2", beta2, "--bifurcation")
    # the threshold analysis takes no state and no denominator: input errors
    for flag, value in (("--nref", "50000"), ("--at", "syndemic")):
        table[f"bifurcation_6_0.1_{flag[2:]}-{value}"] = (
            "stability", "--beta1", "6", "--beta2", "0.1", "--bifurcation",
            flag, value)
    for beta1, beta2 in EQUILIBRIUM_PAIRS:
        for nref in DENOMINATORS:
            for kind in EQUILIBRIUM_KINDS:
                table[f"equilibrium-{kind}" + _suffix(beta1, beta2, nref)] = (
                    "equilibrium", "--beta1", beta1, "--beta2", beta2,
                    "--kind", kind, *nref)
    return table


INVOCATIONS = _invocations()


def render(argv) -> str:
    """The golden text of one invocation: command, standard output, exit
    code."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(argv))
    return f"$ syndemic {' '.join(argv)}\n{printed.getvalue()}exit {code}\n"


def split_residual(text: str):
    """(text, residual): an equilibrium invocation's text with the last
    field of its data row cut off, and that field as a float; any other
    text unchanged, with residual None."""
    lines = text.split("\n")
    if not lines[0].startswith("$ syndemic equilibrium ") or len(lines) < 4:
        return text, None
    row, _, residual = lines[2].rpartition(",")
    lines[2] = row + ","
    return "\n".join(lines), float(residual)


def golden_path(name: str) -> Path:
    return HERE / f"{name}.txt"


def same_up_to_residual(old: str, new: str) -> bool:
    """Whether two texts differ at most in residuals that are both within
    RESIDUAL_BOUND."""
    (old, old_residual), (new, new_residual) = (split_residual(old),
                                                split_residual(new))
    return old == new and (old_residual is None or max(
        old_residual, new_residual) <= RESIDUAL_BOUND)


if __name__ == "__main__":
    paths = {golden_path(name): argv for name, argv in INVOCATIONS.items()}
    for stale in set(HERE.glob("*.txt")) - set(paths):
        stale.unlink()
    written = 0
    for path, argv in paths.items():
        text = render(argv)
        old = path.read_bytes().decode() if path.exists() else None
        if old is not None and same_up_to_residual(old, text):
            continue
        path.write_bytes(text.encode())
        written += 1
    print(f"wrote {written} of {len(paths)} files to {HERE}")
