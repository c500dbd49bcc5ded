"""Golden command-line outputs: r0, stability, the bifurcation report and
the equilibrium rows, byte for byte against tests/golden/cli (see its
regenerate.py), the equilibrium rows' roundoff-level residual bounded."""
import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
_spec = importlib.util.spec_from_file_location("golden_cli_regenerate",
                                               GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_golden_file_has_an_invocation():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(
        golden.INVOCATIONS)


@pytest.mark.parametrize("name", sorted(golden.INVOCATIONS))
def test_cli_output_matches_golden_file(name):
    expected, golden_residual = golden.split_residual(
        golden.golden_path(name).read_bytes().decode())
    got, residual = golden.split_residual(
        golden.render(golden.INVOCATIONS[name]))
    assert got == expected
    if golden_residual is not None:
        assert golden_residual <= golden.RESIDUAL_BOUND
        assert residual <= golden.RESIDUAL_BOUND
