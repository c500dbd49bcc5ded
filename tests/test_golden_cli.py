"""Golden command-line outputs: r0, stability and the bifurcation report,
byte for byte against tests/golden/cli (see its regenerate.py)."""
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
    expected = golden.golden_path(name).read_bytes()
    assert golden.render(golden.INVOCATIONS[name]).encode() == expected
