"""What the benchmark harness in perfbench/ reads of the package.

The harness is not part of the package and imports it from outside, so a
rename or removal here shows only when a traced run starts. These tests load
its tracer by path and check the names its workloads call.
"""
import importlib.util
from pathlib import Path

import numpy as np

import syndemic
from syndemic.model import full_jacobian

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_spanned_function():
    tracer = _load_tracer()
    traced = tracer.Tracer(syndemic)
    spanned = sum(len(names) for names in tracer.SPANNED.values())
    assert len(traced.wrappers) == spanned + 1        # plus model.full_rhs
    traced.install()
    try:
        assert traced.patched
    finally:
        traced.uninstall()
    assert syndemic.dynamics.integrate.__module__ == "syndemic.dynamics"


def test_workload_entry_points_resolve():
    p = syndemic.Parameters(beta1=6.0, beta2=0.1)
    dfe = syndemic.disease_free(p).state
    assert syndemic.jacobian is full_jacobian
    assert np.array_equal(syndemic.jacobian(dfe, p), full_jacobian(dfe, p))
    assert syndemic.stability_report(dfe, p).classification == "unstable"
    trace, det = syndemic.dfe_trace_det(p)
    assert np.isfinite(trace) and np.isfinite(det)


def test_scenario_result_fields_the_harness_reads(treatment_tb_on):
    assert treatment_tb_on.spec.name == "treatment-tb-deaths-on"
    for arm, traj in treatment_tb_on.trajectories.items():
        assert np.array_equal(treatment_tb_on.terminal_states[arm], traj.final)
