"""Equilibrium solvers: closed forms, pseudo-transient continuation, dual
routes."""
import numpy as np
import pytest
from scipy.optimize import fsolve

from syndemic.equilibria import (EquilibriumReport, _ptc, disease_free,
                                 hiv_free, residual, syndemic, tb_free_closed,
                                 tb_free_numeric)
from syndemic.model import DomainError, Parameters, full_rhs
from syndemic.scenarios import INITIAL_FRACTIONS, INITIAL_POPULATION
from syndemic.stability import ConvergenceError, bifurcation_analysis

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
    sol = tb_free_closed(p, S0)
    expected = TB_FREE_CLOSED[beta2]
    assert sol.exists
    assert sol.s == pytest.approx(expected[0], rel=1e-9)
    assert sol.i_h == pytest.approx(expected[1], rel=1e-9)
    assert sol.a == pytest.approx(expected[2], rel=1e-9)


def test_tb_free_closed_form_below_threshold():
    sol = tb_free_closed(Parameters(beta1=6.0, beta2=0.051), S0)
    assert not sol.exists
    assert (sol.s, sol.i_h, sol.a) == (pytest.approx(S0), 0.0, 0.0)


def test_tb_free_closed_form_bad_reference():
    with pytest.raises(DomainError):
        tb_free_closed(Parameters(beta1=6.0, beta2=0.1), 0.0)


@pytest.mark.parametrize("beta2", sorted(TB_FREE_CLOSED))
def test_tb_free_closed_satisfies_pinned_balance(beta2):
    # back-substitution into the frozen-denominator sub-system
    from syndemic.model import hiv_submodel_rhs
    p = Parameters(beta1=6.0, beta2=beta2)
    sol = tb_free_closed(p, S0)
    rhs = hiv_submodel_rhs(np.array([sol.s, sol.i_h, sol.a]), p, n_ref=S0)
    assert np.max(np.abs(rhs)) < 1e-8 * S0


@pytest.mark.parametrize("beta2", sorted(TB_FREE_CLOSED))
def test_tb_free_aids_ratio_identity(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    sol = tb_free_closed(p, S0)
    ratio = p.rho1 / (p.alpha1 + p.mu + p.dA)
    assert sol.a / sol.i_h == pytest.approx(ratio, rel=1e-10)
    assert ratio == pytest.approx(0.15521064, abs=1e-8)


@pytest.mark.parametrize("beta2", sorted(TB_FREE_SELF))
def test_tb_free_numeric_self_consistent(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    report = tb_free_numeric(p)
    assert report.kind == "tb-free"
    assert report.exists and report.stats["locally_stable"]
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
    assert report.exists and report.stats["locally_stable"]
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
    # a residual stop at ||f|| <= 1e-10 N can leave a few 1e-6 persons in a
    # group that is absent at the root; exists holds for a syndemic root only
    report = syndemic(Parameters(beta1=beta1, beta2=beta2), START, n_ref=n_ref)
    assert report.kind == kind
    assert report.exists == (kind == "syndemic")


def test_tb_free_numeric_reaches_the_endemic_root():
    # R2 > 1: the disease-free root is unstable and must not be returned
    p = Parameters(beta1=6.0, beta2=0.137)
    report = tb_free_numeric(p, n_ref=S0)
    assert report.stats["locally_stable"]
    closed = tb_free_closed(p, S0)
    assert np.allclose(report.state[[0, 4, 5]], (closed.s, closed.i_h, closed.a),
                       rtol=1e-8)


@pytest.mark.parametrize("excess", [1e-3, 1e-4, 1e-5])
def test_tb_free_numeric_accurate_near_threshold(excess):
    # R2 - 1 = excess: the Jacobian at the root is nearly singular, so a
    # small residual does not mean a small error
    beta_star = bifurcation_analysis(Parameters(beta1=6.0, beta2=0.1)).beta_star
    p = Parameters(beta1=6.0, beta2=beta_star * (1.0 + excess))
    report = tb_free_numeric(p, n_ref=S0)
    closed = tb_free_closed(p, S0)
    assert report.kind == "tb-free"
    assert np.allclose(report.state[[0, 4, 5]], (closed.s, closed.i_h, closed.a),
                       rtol=1e-8, atol=0.0)


def test_syndemic_solve_work_counters():
    # deterministic work, pinned within a band; wall time is not gated
    report = syndemic(Parameters(beta1=6.0, beta2=0.1), START, n_ref=50000.0)
    stats = report.stats
    assert 10 <= stats["steps"] <= 16                     # 13 measured
    assert stats["rejected"] == 0
    assert stats["jacobian_builds"] == stats["steps"] + 1
    assert stats["locally_stable"]


def test_extreme_transmission_solve_work_counters():
    # `syndemic equilibrium --beta1 1e4 --beta2 50` is stiff: an explicit
    # integrator needs over 14,000 steps to relax it
    report = syndemic(Parameters(beta1=1e4, beta2=50.0), START)
    stats = report.stats
    assert stats["steps"] + stats["rejected"] <= 60       # 35 + 9 measured
    assert stats["locally_stable"]
    assert report.residual < 1e-10


def test_tb_free_monotone_in_transmission():
    values = [tb_free_closed(Parameters(beta1=6.0, beta2=b), S0).i_h
              for b in (0.07, 0.09, 0.099)]
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


# _ptc follows x' = fun(x), so each test system has its root as an attractor

def test_ptc_solves_smooth_system():
    sol, stats = _ptc(lambda x: 4.0 - x ** 2,
                      lambda x: np.array([[-2.0 * x[0]]]), np.array([3.0]))
    assert sol[0] == pytest.approx(2.0, rel=1e-10)
    assert stats["locally_stable"]


def test_ptc_rejects_out_of_domain_trial():
    out_of_domain = []

    def fun(x):
        if x[0] <= 1.0:
            out_of_domain.append(x[0])
            raise DomainError("log of a nonpositive number")
        return np.array([-np.log(x[0] - 1.0)])

    # as the pseudo-time step grows, one trial from 100 overshoots to 0.50
    sol, stats = _ptc(fun, lambda x: np.array([[-1.0 / (x[0] - 1.0)]]),
                      np.array([100.0]))
    assert sol[0] == pytest.approx(2.0, rel=1e-10)
    assert out_of_domain and stats["rejected"] == len(out_of_domain)


def test_ptc_reports_failure_with_last_iterate():
    with pytest.raises(ConvergenceError) as exc:
        _ptc(lambda x: -(x ** 2 + 1.0),
             lambda x: np.array([[-2.0 * x[0]]]), np.array([1.0]))
    assert exc.value.last_iterate is not None
