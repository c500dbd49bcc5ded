"""Acceptance gate: one test per shipped criterion, each at its stated
tolerance, so a verbose run gives a per-criterion pass/fail line.

Criterion 2 scores the HIV sweep row by row. Three of its published
infected-count cells (beta2 = 0.051, 0.055, 0.099) contradict the R2
printed on their own rows, so no solution of the model can match them.
Setting the HIV sub-model to zero with the denominator pinned at
N = Lambda/mu gives A = rho1*I_H/d4 from the AIDS equation, S* = N/R2 from
the pre-AIDS equation, and then, from the susceptible equation,

    I_H* = (1 - 1/R2) * Lambda * d4 / (d3*d4 - alpha1*rho1),

with d3 = rho1 + mu and d4 = alpha1 + mu + dA; for R2 <= 1 the only
equilibrium is disease-free. At the published R2 this gives 0 / 0 for
0.051 (published 0.01708 / 0.00266), 113.87 / 17.67 for 0.055 (published
135.74 / 21.07, +19%) and 5095.02 / 790.80 for 0.099 (published
4930.49 / 765.26, -3.2%); the 0.07 and 0.09 rows agree with it to 0.05%.
The test therefore scores those three cells against the equilibrium the
row's own R2 implies, and checks that the scenario runner, which scores
the printed cells, still reports exactly those six mismatches. The
companion test pins the rows that are attainable as published.
"""
import dataclasses

import numpy as np
import pytest

from bifurcation_fd import coefficients_fd
from syndemic.dynamics import integrate, steady_state_by_integration
from syndemic.equilibria import syndemic
from syndemic.model import (INFECTED_INDICES, Parameters, force_of_infection,
                            full_jacobian, full_rhs, hiv_submodel_rhs,
                            tb_submodel_rhs, validate_parameters)
from syndemic.reproduction import ngm_decomposition, r0, r2_closed
from syndemic.scenarios import (ENDEMIC_REFERENCE_STATE, HIV_SWEEP_REFERENCE,
                                INITIAL_FRACTIONS, INITIAL_POPULATION)
from syndemic.stability import (bifurcation_analysis, eigenvalues,
                                fd_jacobian, h2_condition_check)

S0 = 714.0 / (1.0 / 70.0)
START = INITIAL_FRACTIONS * INITIAL_POPULATION


def _failures(result, predicate=lambda r: True):
    lines = []
    for record in result.assertions:
        if record.status == "fail" and predicate(record):
            lines.append(f"{record.name}: expected {record.expected!r}, "
                         f"got {record.actual!r} "
                         f"(tolerance {record.tolerance!r})")
    return lines


def test_criterion_1_tb_sweep_reference_rows(table2_result):
    # R1 to 5e-5 absolute; endemic active-TB to 0.5% relative with a 0.01
    # absolute band for the near-threshold row
    failures = _failures(table2_result)
    assert table2_result.passed, "\n" + "\n".join(failures)


def test_criterion_2_hiv_sweep_reference_rows(table3_result):
    # R2 to 5e-5 absolute on every row; the pinned HIV and AIDS counts to
    # 0.2% relative. The 0.07 and 0.09 rows are scored against the printed
    # counts. The 0.051, 0.055 and 0.099 counts contradict the R2 printed
    # beside them, so those rows are scored against the equilibrium that
    # the published R2 implies, computed here from the module docstring's
    # formula (independent of beta2 and of the solver): 0 / 0 with no
    # endemic state, 113.87 / 17.67 and 5095.02 / 790.80. The printed
    # cells lie outside that band, and the runner must keep flagging them.
    p = Parameters(beta1=0.0, beta2=0.0)
    d3 = p.rho1 + p.mu
    d4 = p.alpha1 + p.mu + p.dA
    records = {r.name: r for r in table3_result.assertions}
    contradicted = (0.051, 0.055, 0.099)
    for beta2, (r2_pub, ih_pub, a_pub) in HIV_SWEEP_REFERENCE.items():
        key = f"beta2={beta2:g}"
        assert abs(records[f"{key} R2"].actual - r2_pub) <= 5e-5, key
        ih = records[f"{key} HIV equilibrium (pinned)"].actual
        a = records[f"{key} AIDS equilibrium (pinned)"].actual
        if beta2 not in contradicted:
            assert abs(ih - ih_pub) <= 0.002 * ih_pub, key
            assert abs(a - a_pub) <= 0.002 * a_pub, key
            continue
        ih_implied = max(0.0, 1.0 - 1.0 / r2_pub) * p.Lambda * d4 / (
            d3 * d4 - p.alpha1 * p.rho1)
        a_implied = p.rho1 / d4 * ih_implied
        assert abs(ih - ih_implied) <= 0.002 * ih_implied, key
        assert abs(a - a_implied) <= 0.002 * a_implied, key
        assert abs(ih_pub - ih_implied) > 0.002 * ih_implied, key
        assert abs(a_pub - a_implied) > 0.002 * a_implied, key
        if r2_pub < 1.0:    # the bands above are then exactly zero
            assert not table3_result.equilibria[key].exists, key
    expected_failures = {f"beta2={b:g} {c} equilibrium (pinned)"
                         for b in contradicted for c in ("HIV", "AIDS")}
    failing = {r.name for r in table3_result.assertions if r.status == "fail"}
    assert failing == expected_failures, "\n" + "\n".join(
        _failures(table3_result))


def test_criterion_2_companion_attainable_rows(table3_result):
    for record in table3_result.assertions:
        if record.name.endswith("R2") or "ratio identity" in record.name:
            assert record.status == "pass", record.name
        if record.name.startswith(("beta2=0.07 ", "beta2=0.09 ")):
            assert record.status == "pass", record.name


def test_criterion_3_next_generation_consistency():
    paired = [(6.0, 0.1), (2.7, 0.03), (13.0, 0.06), (4.3, 0.1), (50.0, 0.1)]
    for beta1, beta2 in paired:
        p = Parameters(beta1=beta1, beta2=beta2)
        assert ngm_decomposition(p).rho == pytest.approx(r0(p).r0, rel=1e-6)
    rng = np.random.default_rng(8675309)
    for _ in range(20):
        rates = {name: float(rng.uniform(0.01, 3.0)) for name in
                 ("k1", "k2", "tau1", "tau2", "tau3", "tau4", "rho1",
                  "rho2", "rho3", "alpha1", "alpha2", "dT", "dA", "dTA")}
        p = Parameters(beta1=float(rng.uniform(0.01, 3.0)),
                       beta2=float(rng.uniform(0.01, 3.0)),
                       Lambda=float(rng.uniform(100.0, 1000.0)),
                       mu=float(rng.uniform(0.01, 0.1)),
                       beta1p=float(rng.uniform(0.0, 1.0)),
                       beta2p=float(rng.uniform(1.0, 3.0)),
                       psi=float(rng.uniform(1.0, 3.0)),
                       delta=float(rng.uniform(1.0, 3.0)),
                       eta=float(rng.uniform(1.0, 3.0)), **rates)
        assert validate_parameters(p) == []
        assert ngm_decomposition(p).rho == pytest.approx(r0(p).r0, rel=1e-6)


def test_criterion_4_coexistence_equilibrium_two_routes():
    p = Parameters(beta1=6.0, beta2=0.1)
    reference = np.array(ENDEMIC_REFERENCE_STATE)
    newton = syndemic(p, START, n_ref=50000.0)
    integrated, converged = steady_state_by_integration(
        p, START, horizon=1500.0, n_ref=50000.0)
    assert converged and newton.stats["locally_stable"]
    assert np.max(np.abs(newton.state - reference) / reference) < 0.01
    assert np.max(np.abs(integrated - reference) / reference) < 0.01
    agreement = np.abs(newton.state - integrated) / np.maximum(newton.state, 1.0)
    assert np.max(agreement) < 1e-3
    eigs = eigenvalues(full_jacobian(newton.state, p, n_ref=50000.0))
    assert max(e.real for e in eigs) < 0.0


def test_criterion_5_subcritical_local_stability():
    p = Parameters(beta1=2.7, beta2=0.03)
    dfe = np.zeros(10)
    dfe[0] = S0
    eigs = eigenvalues(full_jacobian(dfe, p, n_ref=50000.0))
    assert len(eigs) == 10
    assert all(e.real < -1e-7 for e in eigs)
    pair = r0(p, n_ref=50000.0)
    assert pair.r1 == pytest.approx(0.62632, abs=5e-5)
    assert pair.r2 == pytest.approx(0.55077, abs=5e-5)


def test_criterion_6_transcritical_threshold():
    p = Parameters(beta1=6.0, beta2=0.1)
    rep = bifurcation_analysis(p)
    assert rep.beta_star == pytest.approx(0.054447, abs=1e-5)
    at_star = dataclasses.replace(p, beta2=rep.beta_star)
    assert r2_closed(at_star, n_ref=S0) == pytest.approx(1.0, abs=1e-8)
    j3 = fd_jacobian(lambda y: hiv_submodel_rhs(y, at_star, n_ref=S0),
                     np.array([S0, 0.0, 0.0]))
    eigs = sorted(eigenvalues(j3), key=lambda e: e.real, reverse=True)
    assert abs(eigs[0]) < 1e-8
    assert eigs[1].real == pytest.approx(-p.mu, abs=1e-7)
    assert eigs[2].real < 0.0
    assert rep.a < 0.0 < rep.b
    a_fd, b_fd = coefficients_fd(p, rep)
    assert abs(rep.a - a_fd) <= 1e-6 * abs(rep.a)
    assert abs(rep.b - b_fd) <= 1e-6 * abs(rep.b)


def test_criterion_7_treatment_horizon_totals(treatment_tb_on):
    totals = {k: float(v.final.sum())
              for k, v in treatment_tb_on.trajectories.items()}
    assert totals["with-treatment"] == pytest.approx(29758.0, rel=0.05)
    assert totals["without-treatment"] == pytest.approx(10509.0, rel=0.05)
    # the alternative switch interpretation is reported alongside
    alt = [r for r in treatment_tb_on.assertions
           if r.name == "without-treatment-alt N(20)"]
    assert len(alt) == 1 and alt[0].status == "info"
    assert treatment_tb_on.passed


def test_criterion_8_property_suite():
    p = Parameters(beta1=6.0, beta2=0.1)
    rng = np.random.default_rng(20260822)

    # conservation of people on random states
    for _ in range(1000):
        y = rng.uniform(0.0, 10000.0, size=10)
        balance = (p.Lambda - p.mu * y.sum() - p.dT * (y[2] + y[7])
                   - p.dA * y[5] - p.dTA * y[9])
        assert abs(full_rhs(y, p).sum() - balance) < 1e-9 * max(1.0, y.sum())

    # infection pressures do not depend on the population scale
    for _ in range(100):
        y = rng.uniform(1.0, 5000.0, size=10)
        lam = force_of_infection(y, p)
        scaled = force_of_infection(7.5 * y, p)
        assert scaled.lambdaT == pytest.approx(lam.lambdaT, rel=1e-12)
        assert scaled.lambdaH == pytest.approx(lam.lambdaH, rel=1e-12)

    # sub-systems are exact restrictions of the coupled system
    for _ in range(50):
        y3 = rng.uniform(1.0, 20000.0, size=3)
        full3 = np.zeros(10)
        full3[[0, 4, 5]] = y3
        assert np.array_equal(hiv_submodel_rhs(y3, p),
                              full_rhs(full3, p)[[0, 4, 5]])
        y4 = rng.uniform(1.0, 20000.0, size=4)
        full4 = np.zeros(10)
        full4[[0, 1, 2, 3]] = y4
        assert np.array_equal(tb_submodel_rhs(y4, p),
                              full_rhs(full4, p)[[0, 1, 2, 3]])

    # forward invariance of the feasible region on random 50-year runs
    for i in range(100):
        y0 = rng.uniform(0.0, 1500.0, size=10)
        if i % 2:
            y0 *= 70000.0 / max(y0.sum(), 1.0)     # start above the ceiling
        traj = integrate(lambda t, y, out: full_rhs(y, p, out=out),
                         y0, 0.0, 50.0, rel_tol=1e-6)
        totals = traj.states.sum(axis=1)
        bound = max(y0.sum(), p.Lambda / p.mu)
        assert np.min(traj.states) >= 0.0
        assert totals.max() <= bound + 1e-6 * max(1.0, y0.sum())

    # persistence functional turns negative whenever TB meets HIV pressure
    for _ in range(100):
        y = rng.uniform(0.0, 1.0, size=10)
        y *= rng.uniform(0.1, 0.95) * S0 / y.sum()
        lam = force_of_infection(y, p)
        result = h2_condition_check(y, p)
        if y[2] > 0.0 and lam.lambdaH > 0.0:
            assert any(g < 0.0 for g in result.ghat)

    # eigenvalue routine leaves tiny residuals on random matrices
    for n in range(2, 11):
        m = rng.normal(size=(n, n))
        scale = max(1.0, np.linalg.norm(m, 2))
        for lam in eigenvalues(m):
            smin = np.linalg.svd(m - lam * np.eye(n), compute_uv=False)[-1]
            assert smin <= 1e-7 * scale
