"""Shared fixtures. The scenario runners integrate for hundreds of model
years, so each one executes once per session and is reused by the unit
tests and the acceptance gate alike."""
import sys

import pytest

from syndemic.scenarios import SCENARIOS


@pytest.fixture(scope="session")
def scenario_results():
    """Each canned experiment's default result by its ``SCENARIOS`` name,
    run on first request and kept for the session."""
    results = {}

    def get(name):
        if name not in results:
            results[name] = SCENARIOS[name](None)
        return results[name]
    return get


@pytest.fixture(scope="session")
def table2_result(scenario_results):
    return scenario_results("table2")


@pytest.fixture(scope="session")
def table3_result(scenario_results):
    return scenario_results("table3")


@pytest.fixture(scope="session")
def dfe_stability_result(scenario_results):
    return scenario_results("dfe-stability")


@pytest.fixture(scope="session")
def syndemic_stability_result(scenario_results):
    return scenario_results("syndemic-stability")


@pytest.fixture(scope="session")
def treatment_tb_on(scenario_results):
    return scenario_results("treatment-tb-deaths-on")


@pytest.fixture(scope="session")
def treatment_tb_off(scenario_results):
    return scenario_results("treatment-tb-deaths-off")


@pytest.fixture(scope="session")
def treatment_aids_on(scenario_results):
    return scenario_results("treatment-aids-deaths-on")


@pytest.fixture(scope="session")
def treatment_aids_off(scenario_results):
    return scenario_results("treatment-aids-deaths-off")


@pytest.fixture(scope="session")
def treatment_coinfection_on(scenario_results):
    return scenario_results("treatment-coinfection-deaths-on")


@pytest.fixture(scope="session")
def treatment_coinfection_off(scenario_results):
    return scenario_results("treatment-coinfection-deaths-off")


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
