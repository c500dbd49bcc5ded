"""Shared fixtures. The scenario runners integrate for hundreds of model
years, so each one executes once per session and is reused by the unit
tests and the acceptance gate alike."""
import sys

import pytest

from syndemic.scenarios import (run_dfe_stability, run_syndemic_stability,
                                run_table2, run_table3, run_treatment_impact)


@pytest.fixture(scope="session")
def table2_result():
    return run_table2()


@pytest.fixture(scope="session")
def table3_result():
    return run_table3()


@pytest.fixture(scope="session")
def dfe_stability_result():
    return run_dfe_stability()


@pytest.fixture(scope="session")
def syndemic_stability_result():
    return run_syndemic_stability()


@pytest.fixture(scope="session")
def treatment_tb_on():
    return run_treatment_impact(family="tb", deaths="on")


@pytest.fixture(scope="session")
def treatment_tb_off():
    return run_treatment_impact(family="tb", deaths="off")


@pytest.fixture(scope="session")
def treatment_aids_on():
    return run_treatment_impact(family="aids", deaths="on")


@pytest.fixture(scope="session")
def treatment_aids_off():
    return run_treatment_impact(family="aids", deaths="off")


@pytest.fixture(scope="session")
def treatment_coinfection_on():
    return run_treatment_impact(family="coinfection", deaths="on")


@pytest.fixture(scope="session")
def treatment_coinfection_off():
    return run_treatment_impact(family="coinfection", deaths="off")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap a function with a call counter, in the given module and in
    every package module that bound it by name, and return the list the
    calls append to."""
    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for modname, mod in list(sys.modules.items()):
            if (modname.partition(".")[0] == "syndemic"
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counted)
        return calls
    return install
