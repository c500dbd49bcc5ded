"""Golden trajectories: two ``simulate`` runs (standard output and
trajectory.csv), two ``sweep`` runs (standard output and sweep.csv), the
treatment-tb CSV files under both death settings, the table2 and table3
summary CSVs and six more scenario summaries, byte for byte against
tests/golden/trajectories (see its regenerate.py)."""
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from syndemic.scenarios import write_scenario_csv

GOLDEN = Path(__file__).resolve().parent / "golden" / "trajectories"
_spec = importlib.util.spec_from_file_location(
    "golden_trajectories_regenerate", GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_golden_file_has_a_source():
    names = [f"{name}.{suffix}" for name in [*golden.SIMULATE, *golden.SWEEP]
             for suffix in ("txt", "csv")]
    names += [f"treatment-tb-deaths-{deaths}__{key}.csv"
              for deaths in golden.TREATMENT_DEATHS
              for key in ("with-treatment", "without-treatment",
                          "without-treatment-alt", "summary")]
    names += [f"{table}__summary.csv" for table in golden.TABLES]
    names += [f"{name}__summary.csv" for name in golden.SUMMARIES]
    assert sorted(p.name for p in GOLDEN.glob("*.*")
                  if p.suffix != ".py") == sorted(names)


def _replay(name, argv, report, tmp_path, monkeypatch):
    # run in tmp_path, as regenerate.py runs in a fresh directory
    monkeypatch.delenv("SYNDEMIC_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    text = golden.render(argv)
    assert text.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    assert ((tmp_path / "out" / report).read_bytes()
            == (GOLDEN / f"{name}.csv").read_bytes())


@pytest.mark.parametrize("name", sorted(golden.SIMULATE))
def test_simulate_matches_golden_files(name, tmp_path, monkeypatch):
    _replay(name, golden.SIMULATE[name], "trajectory.csv", tmp_path,
            monkeypatch)


@pytest.mark.parametrize("name", sorted(golden.SWEEP))
def test_sweep_matches_golden_files(name, tmp_path, monkeypatch):
    _replay(name, golden.SWEEP[name], "sweep.csv", tmp_path, monkeypatch)


@pytest.mark.parametrize("deaths", golden.TREATMENT_DEATHS)
def test_treatment_tb_csvs_match_golden_files(deaths, request, tmp_path):
    result = request.getfixturevalue(f"treatment_tb_{deaths}")
    written = write_scenario_csv(result, tmp_path)
    assert len(written) == 4
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), \
            path.name


@pytest.mark.parametrize("table", sorted(golden.TABLES))
def test_table_summaries_match_golden_files(table, request, tmp_path):
    result = request.getfixturevalue(f"{table}_result")
    written = write_scenario_csv(result, tmp_path)
    assert [path.name for path in written] == [f"{table}__summary.csv"]
    assert written[0].read_bytes() == (GOLDEN / written[0].name).read_bytes()


def _fixture(name: str) -> str:
    # the session fixture of tests/conftest.py that holds the scenario's run
    if name.startswith("treatment-"):
        return name.replace("-deaths", "").replace("-", "_")
    return name.replace("-", "_") + "_result"


@pytest.mark.parametrize("name", sorted(golden.SUMMARIES))
def test_scenario_summaries_match_golden_files(name, request, tmp_path):
    result = request.getfixturevalue(_fixture(name))
    written = write_scenario_csv(dataclasses.replace(result, trajectories={}),
                                 tmp_path)
    assert [path.name for path in written] == [f"{name}__summary.csv"]
    assert written[0].read_bytes() == (GOLDEN / written[0].name).read_bytes()
