"""Equilibrium solvers: closed forms, the Newton solve on the infection
pressures, and their independent routes: pseudo-transient continuation on
the compartments (tests/ptc.py), fsolve on a pressure map built from the
flow list (tests/flow_list.py), and a 60-digit root of that map on each
single-disease axis."""
import dataclasses
import decimal
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import fsolve

from flow_list import arrows, flow_rhs, pressures
from ptc import _ptc, ptc_hiv_free, ptc_syndemic, ptc_tb_free
from submodels import submodel_classification
from syndemic import equilibria
from syndemic.equilibria import (EquilibriumReport, disease_free, hiv_free,
                                 residual, syndemic, tb_free_numeric)
from syndemic.model import (_HIV_SUB_INDICES, _TB_SUB_INDICES,
                            PARAMETER_FIELDS, DomainError, Parameters,
                            disease_free_population, full_rhs,
                            validate_parameters)
from syndemic.reproduction import (ngm_decomposition, r0, r1_closed,
                                   r2_closed)
from syndemic.scenarios import INITIAL_FRACTIONS, INITIAL_POPULATION
from syndemic.stability import (TOL_EIG, ConvergenceError,
                                bifurcation_analysis, fd_jacobian,
                                stability_report)

S0 = 714.0 / (1.0 / 70.0)
START = INITIAL_FRACTIONS * INITIAL_POPULATION

# (S, pre-AIDS, AIDS) from the closed form at the recruitment scale
TB_FREE_CLOSED = {
    0.055: (49477.02909647779, 113.93263560447943, 17.6835576326243),
    0.07: (38874.808575803974, 2515.5405988510342, 390.43867387931795),
    0.09: (30235.962225625313, 4472.40634668156, 694.1650648951422),
    0.099: (27487.238386932106, 5095.045448264, 790.8052802183591),
}
# same equilibria under the self-consistent (time-varying) denominator
TB_FREE_SELF = {
    0.055: (48110.96740817384, 423.37202356283063, 65.71184401196928),
    0.07: (23894.78417266187, 5908.80579514289, 917.1095469179651),
    0.09: (14298.662361623621, 8082.512945709566, 1254.492031484855),
    0.099: (12110.125791077431, 8578.258798706216, 1331.4370641007429),
}
# (S, latent, active, recovered) at the recruitment scale
HIV_FREE_PINNED = {
    6.0: (5816.326009456088, 1933.0015696960731, 903.5733547828055,
          33420.83221171545),
    10.0: (1567.1633155924187, 4718.601224126056, 2205.6900546832985,
           22188.75742711953),
    15.0: (815.5302710917662, 6138.84993599629, 2869.579268913124,
           15047.221921009148),
    50.0: (186.970139459264, 8135.669543858223, 3802.9840939570995,
           4578.265400600817),
}
SYNDEMIC_SELF = np.array([
    1251.007035, 4591.178555, 2141.823008, 17215.550353, 117.844699,
    18.290751, 141.282902, 130.325712, 538.212590, 148.094494,
])
SYNDEMIC_PINNED = np.array([
    4766.224459, 2020.127362, 943.285860, 28625.633020, 362.496254,
    56.263277, 31.389270, 55.133584, 495.475792, 112.293451,
])


def _stable_report(report, p, n_ref):
    # the full model's verdict at a solve's root
    return stability_report(report.state, p, n_ref).classification == "stable"


def _axis_stable(solve, report, p, n_ref):
    # the verdict of the sub-model that the single-disease solve solves
    indices = _TB_SUB_INDICES if solve is hiv_free else _HIV_SUB_INDICES
    return submodel_classification(report.state, p, n_ref,
                                   indices) == "stable"


def _axis_oracle(p, n_ref, k, guess):
    """The state at the root of the pressure map on the axis where only
    pressure k (0: TB, 1: HIV) is positive, in 60-digit decimals from the
    flow list's arrows: the state where they balance at a pressure lambda
    comes from elimination, and the secant method finds the root of
    g(lambda) = pressure(y(lambda)) - lambda from beside the pressure of
    guess, a state. g changes sign 1e-30 relative on either side of the
    root, which certifies it."""
    dec = decimal.Decimal
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = dataclasses.replace(p, **{name: dec(getattr(p, name))
                                          for name in PARAMETER_FIELDS})
        support = (0, 1, 2, 3) if k == 0 else (0, 4, 5)

        def balance(lam):
            pair = (lam, dec(0)) if k == 0 else (dec(0), lam)
            # (M | -b) on the support: f = b + M y, y = 0 elsewhere
            rows = {i: {j: dec(0) for j in (*support, "b")} for i in support}
            rows[0]["b"] = -exact.Lambda
            for source, target, rate, _ in arrows(None, exact, lam=pair):
                if source in rows:
                    rows[source][source] -= rate
                    if target in rows:
                        rows[target][source] += rate
            # elimination without pivoting, as M is an M-matrix
            order = [list(rows[i].values()) for i in support]
            for c, pivot in enumerate(order):
                for row in order[c + 1:]:
                    f = row[c] / pivot[c]
                    row[:] = [x - f * y for x, y in zip(row, pivot)]
            y = {}
            for c in reversed(range(len(support))):
                y[support[c]] = (order[c][-1] - sum(
                    order[c][j] * y[support[j]]
                    for j in range(c + 1, len(support)))) / order[c][c]
            return [y.get(i, dec(0)) for i in range(10)]

        def g(lam):
            y = balance(lam)
            n = sum(y) if n_ref is None else dec(n_ref)
            return pressures(y, exact, n)[k] - lam

        guess = np.asarray(guess, dtype=float)
        start = pressures(guess, p, guess.sum() if n_ref is None else n_ref)[k]
        a, b = dec(start) * dec("0.999"), dec(start) * dec("1.001")
        ga, gb = g(a), g(b)
        for _ in range(100):
            if abs(b - a) <= b * dec("1e-45"):
                break
            a, b, ga = b, b - gb * (b - a) / (gb - ga), gb
            gb = g(b)
        step = b * dec("1e-30")
        assert b > 0 and g(b - step) > 0 > g(b + step)
        return np.array([float(v) for v in balance(b)])


def test_disease_free_report():
    report = disease_free(Parameters(beta1=6.0, beta2=0.1))
    assert report.kind == "disease-free"
    assert report.exists
    assert report.state[0] == pytest.approx(S0, abs=1e-6)
    assert np.all(report.state[1:] == 0.0)
    assert report.residual < 1e-12


@pytest.mark.parametrize("beta2", sorted(TB_FREE_CLOSED))
def test_tb_free_closed_form_values(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    report = tb_free_numeric(p, n_ref=S0)
    s, i_h, a = report.state[[0, 4, 5]]
    expected = TB_FREE_CLOSED[beta2]
    assert report.exists
    assert s == pytest.approx(expected[0], rel=1e-9)
    assert i_h == pytest.approx(expected[1], rel=1e-9)
    assert a == pytest.approx(expected[2], rel=1e-9)


def test_tb_free_closed_form_below_threshold():
    report = tb_free_numeric(Parameters(beta1=6.0, beta2=0.051), n_ref=S0)
    assert not report.exists
    assert tuple(report.state[[0, 4, 5]]) == (pytest.approx(S0), 0.0, 0.0)


def test_tb_free_closed_form_bad_reference():
    with pytest.raises(DomainError):
        tb_free_numeric(Parameters(beta1=6.0, beta2=0.1), n_ref=0.0)


@pytest.mark.parametrize("beta2", sorted(TB_FREE_CLOSED))
def test_tb_free_closed_satisfies_pinned_balance(beta2):
    # back-substitution into the frozen-denominator sub-system
    from submodels import hiv_submodel_rhs
    p = Parameters(beta1=6.0, beta2=beta2)
    report = tb_free_numeric(p, n_ref=S0)
    rhs = hiv_submodel_rhs(report.state[[0, 4, 5]], p, n_ref=S0)
    assert np.max(np.abs(rhs)) < 1e-8 * S0


@pytest.mark.parametrize("beta2", sorted(TB_FREE_CLOSED))
def test_tb_free_aids_ratio_identity(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    report = tb_free_numeric(p, n_ref=S0)
    ratio = p.rho1 / (p.alpha1 + p.mu + p.dA)
    assert report.state[5] / report.state[4] == pytest.approx(ratio, rel=1e-10)
    assert ratio == pytest.approx(0.15521064, abs=1e-8)


@pytest.mark.parametrize("beta2", sorted(TB_FREE_SELF))
def test_tb_free_numeric_self_consistent(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    report = tb_free_numeric(p)
    assert report.kind == "tb-free"
    assert report.exists and _axis_stable(tb_free_numeric, report, p, None)
    got = report.state[[0, 4, 5]]
    assert np.allclose(got, TB_FREE_SELF[beta2], rtol=1e-6)
    assert np.all(report.state[[1, 2, 3, 6, 7, 8, 9]] == 0.0)


def test_tb_free_numeric_below_threshold_returns_dfe():
    report = tb_free_numeric(Parameters(beta1=6.0, beta2=0.03))
    assert report.kind == "disease-free"
    assert not report.exists


@pytest.mark.parametrize("beta1", sorted(HIV_FREE_PINNED))
def test_hiv_free_pinned_values(beta1):
    p = Parameters(beta1=beta1, beta2=0.1)
    report = hiv_free(p, n_ref=S0)
    assert report.exists
    assert np.allclose(report.state[[0, 1, 2, 3]], HIV_FREE_PINNED[beta1],
                       rtol=1e-6)


def test_hiv_free_below_threshold():
    report = hiv_free(Parameters(beta1=4.3, beta2=0.1), n_ref=S0)
    assert not report.exists
    assert report.state[2] == 0.0


def test_hiv_free_self_consistent_differs_from_pinned():
    p = Parameters(beta1=6.0, beta2=0.1)
    report = hiv_free(p)
    assert report.exists
    expected = (1732.931488792585, 4485.808696605379, 2096.8721787136997,
                23316.75607214344)
    assert np.allclose(report.state[[0, 1, 2, 3]], expected, rtol=1e-6)


def test_syndemic_equilibrium_self_consistent():
    p = Parameters(beta1=6.0, beta2=0.1)
    report = syndemic(p, START)
    assert report.kind == "syndemic"
    assert report.exists and _stable_report(report, p, None)
    assert np.allclose(report.state, SYNDEMIC_SELF, rtol=1e-5)
    assert report.residual < 1e-10


def test_syndemic_equilibrium_pinned_census():
    p = Parameters(beta1=6.0, beta2=0.1)
    report = syndemic(p, START, n_ref=50000.0)
    assert report.kind == "syndemic"
    assert np.allclose(report.state, SYNDEMIC_PINNED, rtol=1e-5)


def test_syndemic_agrees_with_library_root_finder():
    p = Parameters(beta1=6.0, beta2=0.1)
    report = syndemic(p, START, n_ref=50000.0)
    sol = fsolve(lambda y: full_rhs(y, p, n_ref=50000.0), report.state,
                 full_output=False, xtol=1e-12)
    rel = np.abs(report.state - sol) / np.maximum(np.abs(sol), 1.0)
    assert np.max(rel) < 1e-6


def test_subcritical_relaxation_lands_on_dfe():
    report = syndemic(Parameters(beta1=2.7, beta2=0.03), START)
    assert report.kind == "disease-free"
    assert report.state[0] == pytest.approx(S0, rel=1e-6)


@pytest.mark.parametrize("beta1,beta2,n_ref,kind", [
    # R1 = 0.626, R2 = 0.551: no infected equilibrium exists
    (2.7, 0.03, 50000.0, "disease-free"),
    # past the TB threshold, at the HIV invasion boundary
    (10.0, 0.13, 50000.0, "hiv-free"),
    (10.0, 0.13, None, "hiv-free"),
    (6.0, 0.1, 50000.0, "syndemic"),
])
def test_kind_label_does_not_depend_on_newton_stop(beta1, beta2, n_ref, kind):
    # Newton only approaches a boundary root, and the solve finishes on its
    # face, so an absent group is exactly 0; exists holds for a syndemic
    # root only
    report = syndemic(Parameters(beta1=beta1, beta2=beta2), START, n_ref=n_ref)
    assert report.kind == kind
    assert report.exists == (kind == "syndemic")
    for present, group in ((kind in ("hiv-free", "syndemic"), [1, 2, 6, 7, 9]),
                           (kind in ("tb-free", "syndemic"), list(range(4, 10)))):
        assert present or np.all(report.state[group] == 0.0)


def test_tb_free_numeric_reaches_the_endemic_root():
    # R2 > 1: the disease-free root is unstable and must not be returned
    p = Parameters(beta1=6.0, beta2=0.137)
    report = tb_free_numeric(p, n_ref=S0)
    assert _axis_stable(tb_free_numeric, report, p, S0)
    assert np.allclose(report.state, _axis_oracle(p, S0, 1, report.state),
                       rtol=1e-8)


@pytest.mark.parametrize("excess", [1e-3, 1e-4, 1e-5])
def test_tb_free_numeric_accurate_near_threshold(excess):
    # R2 - 1 = excess: the Jacobian at the root is nearly singular, so a
    # small residual does not mean a small error
    beta_star = bifurcation_analysis(Parameters(beta1=6.0, beta2=0.1)).beta_star
    p = Parameters(beta1=6.0, beta2=beta_star * (1.0 + excess))
    report = tb_free_numeric(p, n_ref=S0)
    assert report.kind == "tb-free"
    assert np.allclose(report.state, _axis_oracle(p, S0, 1, report.state),
                       rtol=1e-8, atol=0.0)


def test_syndemic_solve_iterations():
    # deterministic work, pinned within a band; wall time is not gated
    p = Parameters(beta1=6.0, beta2=0.1)
    report = syndemic(p, START, n_ref=50000.0)
    assert report.stats.keys() == {"iterations"}
    assert 7 <= report.stats["iterations"] <= 9           # 8 measured
    assert _stable_report(report, p, 50000.0)


def test_boundary_root_lands_on_its_face():
    # Newton only approaches a root with lambdaH = 0; the solve finishes on
    # that axis, so every HIV class is exactly 0
    p = Parameters(beta1=6.0, beta2=0.03)
    report = syndemic(p, np.full(10, 5000.0), n_ref=50000.0)
    assert report.kind == "hiv-free"
    assert np.all(report.state[4:] == 0.0)
    assert np.all(report.state[:4] > 0.0)
    assert 7 <= report.stats["iterations"] <= 9           # 8 measured
    assert _stable_report(report, p, 50000.0)


@pytest.mark.parametrize("solve,n_ref", [
    (hiv_free, S0), (hiv_free, None), (tb_free_numeric, S0),
    (tb_free_numeric, None)])
def test_submodel_solve_iterations(solve, n_ref):
    # the single-disease states are closed forms: no Newton step
    p = Parameters(beta1=6.0, beta2=0.1)
    report = solve(p, n_ref=n_ref)
    assert report.stats == {"iterations": 0}
    assert _axis_stable(solve, report, p, n_ref)


def test_extreme_transmission_solve_iterations():
    # `syndemic equilibrium --beta1 1e4 --beta2 50`: an explicit integrator
    # needs over 14,000 steps to relax it
    p = Parameters(beta1=1e4, beta2=50.0)
    report = syndemic(p, START)
    assert report.stats["iterations"] <= 6                # 4 measured
    assert _stable_report(report, p, None)
    assert report.residual < 1e-10


@pytest.mark.parametrize("n_ref", [None, 50000.0])
def test_stall_test_alone_ends_the_solve_at_roundoff(n_ref, monkeypatch):
    # with no step tolerance, only a step no smaller than a small last one
    # can end the solve: it must, and at the same root
    p = Parameters(beta1=6.0, beta2=0.1)
    expected = syndemic(p, START, n_ref=n_ref).state
    monkeypatch.setattr(equilibria, "_STEP_TOL", 0.0)
    report = syndemic(p, START, n_ref=n_ref)
    assert report.stats["iterations"] <= 12               # 10 and 9 measured
    assert _agreement(report.state, expected) < 1e-13


@pytest.mark.parametrize("excess", [1e-4, 1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("n_ref", [None, S0])
@pytest.mark.parametrize("solve", [hiv_free, tb_free_numeric])
def test_near_threshold_solve_reaches_the_root(solve, n_ref, excess):
    # R - 1 = excess on the solve's axis, where g' vanishes with R - 1: the
    # R - 1 of the closed form carries a roundoff of about 1e-16 / excess
    # relative, and so do the root and the state
    k = 0 if solve is hiv_free else 1
    unit = (r1_closed, r2_closed)[k](Parameters(beta1=1.0, beta2=1.0), n_ref)
    rates = {"beta1": 6.0, "beta2": 0.1}
    rates[("beta1", "beta2")[k]] = (1.0 + excess) / unit
    p = Parameters(**rates)
    report = solve(p, n_ref=n_ref)
    assert report.stats["iterations"] == 0
    assert np.allclose(report.state, _axis_oracle(p, n_ref, k, report.state),
                       rtol=1e-15 / excess, atol=0.0)


@pytest.mark.parametrize("solve,beta1,beta2,n_ref,kind,iterations,solves", [
    (syndemic, 6.0, 0.1, 50000.0, "syndemic", 8, 1),
    (syndemic, 6.0, 1e200, None, "syndemic", 5, 1),   # an extreme rate
    (syndemic, 13.0, 0.06, None, "hiv-free", 6, 0),   # lands on a face
    (hiv_free, 6.0, 0.1, None, "hiv-free", 0, 0),
    (tb_free_numeric, 6.0, 0.1, S0, "tb-free", 0, 0)])
def test_solve_linear_algebra_calls(solve, beta1, beta2, n_ref, kind,
                                    iterations, solves, monkeypatch):
    # one inverse per Newton step and one solve for the state at an
    # interior root (a face root and the single-disease states are closed
    # forms); no spectrum: stability_report alone judges one
    calls = {name: [] for name in ("inv", "solve", "eig", "eigvals", "svd",
                                   "det", "lstsq")}
    for name, log in calls.items():
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    p = Parameters(beta1=beta1, beta2=beta2)
    report = (syndemic(p, START, n_ref=n_ref) if solve is syndemic
              else solve(p, n_ref=n_ref))
    assert report.kind == kind
    assert report.stats["iterations"] == iterations
    assert {name: len(log) for name, log in calls.items()} == {
        "inv": iterations, "solve": solves, "eig": 0, "eigvals": 0,
        "svd": 0, "det": 0, "lstsq": 0}


@pytest.mark.parametrize("n_ref", [None, S0])
@pytest.mark.parametrize("excess", [1e-1, 3e-2, 1e-2, 1e-4])
def test_hiv_free_near_threshold_reaches_the_root(excess, n_ref):
    # R1 - 1 = excess on the TB axis, where g is not affine in lambdaT: the
    # solve must reach the stable endemic root, not a spurious one
    beta1 = (1.0 + excess) / r1_closed(Parameters(beta1=1.0, beta2=0.1),
                                       n_ref)
    p = Parameters(beta1=beta1, beta2=0.1)
    report = hiv_free(p, n_ref=n_ref)
    reference, _ = ptc_hiv_free(p, n_ref=n_ref)
    assert report.kind == "hiv-free"
    assert _axis_stable(hiv_free, report, p, n_ref)
    assert _agreement(report.state, reference) < 1e-10


@pytest.mark.parametrize("n_ref", [None, S0, 1.0, 50000.0])
@pytest.mark.parametrize("beta1", [1e150, 1e200, 1e250, 1e300])
def test_extreme_tb_transmission_reaches_an_endemic_root(beta1, n_ref):
    # M(lambda) at the pressure bound has entries from about 1e-2 to beta1
    # or more, and the root has fewer than 1e-140 susceptibles
    p = Parameters(beta1=beta1, beta2=0.1)
    tb_only = hiv_free(p, n_ref=n_ref)
    coupled = syndemic(p, START, n_ref=n_ref)
    assert tb_only.kind == "hiv-free"
    assert coupled.kind in ("hiv-free", "syndemic")
    assert tb_only.residual <= 1e-12
    assert coupled.residual <= 1e-12


def test_negative_root_is_an_error(monkeypatch):
    # a converged pressure below the face band is no equilibrium; it must
    # not be read as the face lambda = 0
    def negative_root(params, n_ref, bound):
        return -1e-3 * bound, np.zeros((10, 10)), 5

    monkeypatch.setattr(equilibria, "_newton", negative_root)
    with pytest.raises(ConvergenceError, match="negative pressure"):
        syndemic(Parameters(beta1=6.0, beta2=0.1), START)


def test_syndemic_seed_without_people_is_an_error():
    with pytest.raises(DomainError):
        syndemic(Parameters(beta1=6.0, beta2=0.1), np.zeros(10))
    with pytest.raises(DomainError):
        syndemic(Parameters(beta1=6.0, beta2=0.1), np.full(10, np.nan))


@pytest.mark.parametrize("rates,rejected", [
    ({"mu": 0.0}, True), ({"mu": -1.0 / 70.0}, True),
    # each rate is valid on its own; only the quotient overflows
    ({"Lambda": 1e300, "mu": 1e-10}, False),
    ({"mu": math.nan}, True)])
def test_disease_free_population_must_be_finite_and_positive(rates, rejected):
    # every call that reads Lambda/mu checks it first, so a zero mu is a
    # DomainError, not a ZeroDivisionError, and a NaN or overflowing
    # quotient is named as the denominator, not as an overflow of R
    p = dataclasses.replace(Parameters(beta1=6.0, beta2=0.1), **rates)
    assert bool(validate_parameters(p)) == rejected
    calls = [lambda: r0(p), lambda: ngm_decomposition(p),
             lambda: disease_free(p), lambda: hiv_free(p),
             lambda: tb_free_numeric(p), lambda: syndemic(p, START),
             lambda: r0(p, S0), lambda: r0(p, 1.0),
             lambda: hiv_free(p, n_ref=S0),
             lambda: tb_free_numeric(p, n_ref=S0),
             lambda: syndemic(p, START, n_ref=50000.0)]
    for call in calls:
        with pytest.raises(DomainError, match="population denominator must "
                                              "be finite and positive"):
            call()
    base = Parameters(beta1=6.0, beta2=0.1)
    assert disease_free_population(base) == base.Lambda / base.mu


# The pseudo-transient route of tests/ptc.py: its work counters, pinned

def test_syndemic_solve_work_counters():
    # deterministic work, pinned within a band; wall time is not gated
    _, stats = ptc_syndemic(Parameters(beta1=6.0, beta2=0.1), START,
                            n_ref=50000.0)
    assert 10 <= stats["steps"] <= 16                     # 13 measured
    assert stats["rejected"] == 0
    assert stats["jacobian_builds"] == stats["steps"] + 1
    assert stats["locally_stable"]


def test_boundary_root_is_evaluated_once():
    # the last Newton step zeroes the root's roundoff-sized components before
    # its one evaluation, so no Jacobian is built twice at the end
    state, stats = ptc_syndemic(Parameters(beta1=6.0, beta2=0.03),
                                np.full(10, 5000.0), n_ref=50000.0)
    assert np.all(state[4:] == 0.0)
    assert stats["jacobian_builds"] == stats["steps"] + 1
    assert stats["locally_stable"]


@pytest.mark.parametrize("solve,n_ref,measured", [
    (hiv_free, S0, 13), (hiv_free, None, 13),
    (tb_free_numeric, S0, 20), (tb_free_numeric, None, 19)])
def test_submodel_solve_work_counters(solve, n_ref, measured):
    # as the syndemic solve: one Jacobian per accepted step plus the seed's
    route = ptc_hiv_free if solve is hiv_free else ptc_tb_free
    _, stats = route(Parameters(beta1=6.0, beta2=0.1), n_ref=n_ref)
    assert measured - 3 <= stats["steps"] <= measured + 3
    assert stats["rejected"] == 0
    assert stats["jacobian_builds"] == stats["steps"] + 1
    assert stats["locally_stable"]


def test_extreme_transmission_solve_work_counters():
    # stiff: early pseudo-transient trial steps leave the domain
    _, stats = ptc_syndemic(Parameters(beta1=1e4, beta2=50.0), START)
    assert stats["steps"] + stats["rejected"] <= 60       # 35 + 9 measured
    assert stats["locally_stable"]


# The package's roots against the pseudo-transient route, on a grid over
# the benchmark's equilibrium-sweep ranges, under both conventions, and at
# the scenario runners' rate pairs

def _agreement(state, reference):
    return np.max(np.abs(state - reference)) / max(np.max(np.abs(reference)),
                                                   1.0)


def _ptc_kind(state):
    tb, hiv = state[[1, 2, 6, 7, 9]].sum() > 0.01, state[4:].sum() > 0.01
    return {(False, False): "disease-free", (False, True): "tb-free",
            (True, False): "hiv-free", (True, True): "syndemic"}[tb, hiv]


# the benchmark's syndemic points: beta1 in [3.8, 7.35], beta2 in
# [0.1425, 0.315]; its sub-model points: beta1 4.3 to 50, beta2 0.076 to 0.42
CONVENTIONS = (None, S0, 50000.0)
SYNDEMIC_GRID = list(itertools.product((3.8, 5.5, 7.35), (0.14, 0.2, 0.315),
                                       CONVENTIONS))
SUBMODEL_RATES = list(itertools.product((4.3, 6.0, 15.0, 42.0, 50.0),
                                        (0.076, 0.14, 0.2, 0.32, 0.42)))


@pytest.mark.parametrize("beta1,beta2,n_ref", SYNDEMIC_GRID + [
    (6.0, 0.1, 50000.0), (2.7, 0.03, 50000.0), (2.7, 0.03, None),
    (13.0, 0.06, None), (13.0, 0.06, 50000.0), (10.0, 0.13, 50000.0),
    (1e4, 50.0, None), (1e4, 50.0, 50000.0),
    # from the census seed's own pressures, Newton settles on the unstable
    # hiv-free root here; from the pressure bound it reaches the stable one
    (15.0, 0.2, None), (10.0, 0.5, None),
    # a zero transmission rate: that pressure has no weight and stays 0
    (0.0, 0.1, 50000.0), (6.0, 0.0, None), (0.0, 0.0, None)])
def test_syndemic_matches_pseudo_transient_route(beta1, beta2, n_ref):
    p = Parameters(beta1=beta1, beta2=beta2)
    report = syndemic(p, START, n_ref=n_ref)
    reference, stats = ptc_syndemic(p, START, n_ref=n_ref)
    assert _agreement(report.state, reference) < 1e-10
    assert report.kind == _ptc_kind(reference)
    assert _stable_report(report, p, n_ref) == stats["locally_stable"]


def test_submodels_match_pseudo_transient_route():
    for (beta1, beta2), n_ref in itertools.product(SUBMODEL_RATES,
                                                   CONVENTIONS):
        p = Parameters(beta1=beta1, beta2=beta2)
        for k, solve, route in ((0, hiv_free, ptc_hiv_free),
                                (1, tb_free_numeric, ptc_tb_free)):
            report = solve(p, n_ref=n_ref)
            reference, stats = route(p, n_ref=n_ref)
            assert _agreement(report.state, reference) < 1e-10
            assert report.kind == _ptc_kind(reference)
            if report.repro[k] > 1.0:    # the reproduction number gate opened
                assert (_axis_stable(solve, report, p, n_ref)
                        == stats["locally_stable"])


def test_scenario_equilibria_match_pseudo_transient_route(
        table2_result, table3_result, syndemic_stability_result):
    base = Parameters(beta1=0.0, beta2=0.0)
    for key, report in table2_result.equilibria.items():
        p = Parameters(beta1=float(key.split("=")[1]), beta2=0.0)
        if report.repro.r1 > 1.0:
            reference, _ = ptc_hiv_free(p, n_ref=base.Lambda / base.mu)
            assert _agreement(report.state, reference) < 1e-10
    for key, report in table3_result.equilibria.items():
        p = Parameters(beta1=0.0, beta2=float(key.split("=")[1]))
        if report.repro.r2 > 1.0:
            reference, _ = ptc_tb_free(p)
            assert _agreement(report.state, reference) < 1e-10
    newton = syndemic_stability_result.equilibria["newton"]
    reference, _ = ptc_syndemic(Parameters(beta1=6.0, beta2=0.1), START,
                                n_ref=INITIAL_POPULATION)
    assert _agreement(newton.state, reference) < 1e-10


# Every root of the pressure map, by fsolve from a grid of starts, with the
# state at fixed pressures solved from the flow list's arrows

def _pressure_map(p, n_ref):
    """(g, y): g(lambda) = W y(lambda) / N - lambda and y(lambda), the state
    where the arrows balance with the pressures held at lambda."""
    zero = np.zeros(10)

    def linear(lam):
        # f = b + M y at fixed pressures: b = f(0), column j of M = f(e_j) - b
        b = flow_rhs(zero, p, lam=lam)
        return b, np.column_stack([flow_rhs(e, p, lam=lam) - b
                                   for e in np.eye(10)])
    b, a = linear((0.0, 0.0))
    ct, ch = (linear(lam)[1] - a for lam in ((1.0, 0.0), (0.0, 1.0)))

    def y(lam):
        return np.linalg.solve(a + lam[0] * ct + lam[1] * ch, -b)

    def g(lam):
        return np.array(pressures(y(lam), p, n_ref)) - lam
    return g, y


def _roots(p, n_ref, starts=12):
    g, y = _pressure_map(p, n_ref)
    top = np.array([p.beta1, p.beta2 * p.eta]) * (
        1.0 if n_ref is None else p.Lambda / p.mu / n_ref)
    found = []
    for start in itertools.product(*(np.linspace(0.0, t, starts) for t in top)):
        lam, _, ier, _ = fsolve(g, start, full_output=True, xtol=1e-13)
        if (ier != 1 or np.any(lam < -1e-12 * np.array(top))
                or np.max(np.abs(g(lam)) / top) > 1e-12):
            continue
        lam = np.maximum(lam, 0.0)
        if all(np.max(np.abs(lam - other) / top) > 1e-8 for other in found):
            found.append(lam)
    return [y(lam) for lam in found]


def _stable(state, p, n_ref):
    jac = fd_jacobian(lambda y: flow_rhs(y, p, n_ref), state)
    return np.linalg.eigvals(jac).real.max() < -TOL_EIG


@pytest.mark.parametrize("beta1,beta2,n_ref,count", [
    (6.0, 0.1, None, 4), (6.0, 0.1, 50000.0, 4),
    (13.0, 0.06, None, 3), (13.0, 0.06, 50000.0, 3),
    (5.5, 0.3, None, 4), (5.5, 0.3, 50000.0, 4)])
def test_exactly_one_root_is_stable_and_it_is_the_solves(beta1, beta2, n_ref,
                                                         count):
    p = Parameters(beta1=beta1, beta2=beta2)
    roots = _roots(p, n_ref)
    stable = [state for state in roots if _stable(state, p, n_ref)]
    assert len(roots) == count
    assert len(stable) == 1
    assert _agreement(syndemic(p, START, n_ref=n_ref).state, stable[0]) < 1e-9


def test_tb_free_monotone_in_transmission():
    values = [tb_free_numeric(Parameters(beta1=6.0, beta2=b), n_ref=S0)
              .state[4] for b in (0.07, 0.09, 0.099)]
    assert values[0] < values[1] < values[2]


def test_hiv_free_monotone_in_transmission():
    values = [hiv_free(Parameters(beta1=b, beta2=0.1), n_ref=S0).state[2]
              for b in (6.0, 10.0, 15.0, 50.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_residual_zero_at_equilibrium():
    p = Parameters(beta1=6.0, beta2=0.1)
    assert residual(disease_free(p).state, p) < 1e-12
    with pytest.raises(DomainError):
        residual(np.zeros(10), p)


# _ptc (tests/ptc.py) follows x' = f(x), so each test system has its root as
# an attractor; each passes (f, J) from one callable

def test_ptc_solves_smooth_system():
    sol, stats = _ptc(lambda x: (4.0 - x ** 2, np.array([[-2.0 * x[0]]])),
                      np.array([3.0]))
    assert sol[0] == pytest.approx(2.0, rel=1e-10)
    assert stats["locally_stable"]


def test_ptc_rejects_out_of_domain_trial():
    out_of_domain = []

    def fun_jac(x):
        if x[0] <= 1.0:
            out_of_domain.append(x[0])
            raise DomainError("log of a nonpositive number")
        return (np.array([-np.log(x[0] - 1.0)]),
                np.array([[-1.0 / (x[0] - 1.0)]]))

    # as the pseudo-time step grows, one trial from 100 overshoots to 0.50
    sol, stats = _ptc(fun_jac, np.array([100.0]))
    assert sol[0] == pytest.approx(2.0, rel=1e-10)
    assert out_of_domain and stats["rejected"] == len(out_of_domain)


def test_ptc_reports_failure_with_last_iterate():
    with pytest.raises(ConvergenceError) as exc:
        _ptc(lambda x: (-(x ** 2 + 1.0), np.array([[-2.0 * x[0]]])),
             np.array([1.0]))
    assert exc.value.last_iterate is not None
