"""Jacobians, eigenvalues, threshold crossing, and the persistence check."""
import dataclasses

import numpy as np
import pytest

from syndemic.model import (DomainError, Parameters, full_rhs,
                            hiv_submodel_rhs)
from syndemic.reproduction import r2_closed
from syndemic.scenarios import INITIAL_FRACTIONS
from syndemic.stability import (ConvergenceError, bifurcation_analysis,
                                bifurcation_threshold, classify,
                                dfe_trace_det, eigenvalues, fd_jacobian,
                                h2_condition_check, jacobian,
                                stability_report)

S0 = 714.0 / (1.0 / 70.0)
SUB = Parameters(beta1=2.7, beta2=0.03)
SUPER = Parameters(beta1=6.0, beta2=0.1)

BETA_STAR = 0.05444651061036972
COEFF_A = -1.718695316540857e-05
COEFF_B = 1.0598768702103896


def _dfe():
    dfe = np.zeros(10)
    dfe[0] = S0
    return dfe


def test_fd_jacobian_on_polynomial_map():
    fun = lambda x: np.array([x[0] ** 2 + x[1], 3.0 * x[1] ** 3])
    x = np.array([1.5, -2.0])
    expected = np.array([[3.0, 1.0], [0.0, 36.0]])
    assert np.max(np.abs(fd_jacobian(fun, x) - expected)) < 1e-7


def test_fd_jacobian_rejects_nonfinite_probe():
    with pytest.raises(DomainError):
        fd_jacobian(lambda x: np.array([float("nan")]), np.array([0.0]))


def test_jacobian_entries_at_disease_free_state():
    j = jacobian(_dfe(), SUPER)
    d1 = SUPER.k1 + SUPER.tau1 + SUPER.mu
    assert j[0, 0] == pytest.approx(-SUPER.mu, abs=1e-7)
    assert j[0, 2] == pytest.approx(-SUPER.beta1, rel=1e-5)
    assert j[1, 1] == pytest.approx(-d1, rel=1e-7)


def test_jacobian_matches_directional_derivative():
    rng = np.random.default_rng(99)
    y = rng.uniform(100.0, 5000.0, size=10)
    u = rng.normal(size=10)
    j = jacobian(y, SUPER)
    h = 1e-5
    fd = (full_rhs(y + h * u, SUPER) - full_rhs(y - h * u, SUPER)) / (2 * h)
    assert np.max(np.abs(j @ u - fd)) < 1e-4 * max(1.0, np.max(np.abs(j)))


def test_jacobian_decouples_without_transmission():
    quiet = Parameters(beta1=0.0, beta2=0.0)
    y = np.full(10, 1000.0)
    j = jacobian(y, quiet)
    assert abs(j[1, 0]) < 1e-8    # no infection path out of susceptibles
    assert abs(j[6, 8]) < 1e-8


def test_eigenvalues_of_known_matrices():
    eigs = eigenvalues(np.diag([-3.0, -1.0, -2.0]))
    assert [e.real for e in eigs] == pytest.approx([-1.0, -2.0, -3.0])
    spin = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert spin[0] == pytest.approx(1j)
    assert spin[1] == pytest.approx(-1j)


def test_eigenvalues_input_guards():
    with pytest.raises(DomainError):
        eigenvalues(np.eye(17))
    with pytest.raises(DomainError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(DomainError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalue_residuals_on_random_matrices():
    rng = np.random.default_rng(4242)
    for n in range(2, 11):
        m = rng.normal(size=(n, n))
        scale = max(1.0, np.linalg.norm(m, 2))
        for lam in eigenvalues(m):
            shifted = m - lam * np.eye(n)
            smin = np.linalg.svd(shifted, compute_uv=False)[-1]
            assert smin <= 1e-7 * scale
            # characteristic polynomial nearly vanishes too
            assert abs(np.linalg.det(shifted)) <= 1e-6 * (3.0 * scale) ** n


def test_eigenvalues_invariant_under_orthogonal_similarity():
    rng = np.random.default_rng(555)
    for n in (3, 6, 10):
        m = rng.normal(size=(n, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = eigenvalues(m)
        b = list(eigenvalues(q.T @ m @ q))
        tol = 1e-8 * max(1.0, np.linalg.norm(m, 2))
        for lam in a:
            j = int(np.argmin([abs(lam - mu) for mu in b]))
            assert abs(lam - b[j]) < 100 * tol
            b.pop(j)


def test_classify_cases():
    assert classify([-1.0 + 0j, -2.0 + 0j]) == "stable"
    assert classify([0.1 + 0j, -1.0 + 0j]) == "unstable"
    assert classify([1e-9 + 0j, -1.0 + 0j]) == "marginal"


def test_subcritical_disease_free_state_is_stable():
    eigs = eigenvalues(jacobian(_dfe(), SUB, n_ref=50000.0))
    assert max(e.real for e in eigs) < -1e-7
    assert max(e.real for e in eigs) == pytest.approx(-1.0 / 70.0, rel=1e-4)


def test_supercritical_disease_free_state_is_unstable():
    eigs = eigenvalues(jacobian(_dfe(), SUPER, n_ref=50000.0))
    assert max(e.real for e in eigs) > 0.0
    assert max(e.real for e in eigs) == pytest.approx(0.37301147, rel=1e-5)
    free = eigenvalues(jacobian(_dfe(), SUPER))
    assert max(e.real for e in free) == pytest.approx(0.3735012587, rel=1e-5)


def test_stability_report_bundle():
    report = stability_report(_dfe(), SUB, n_ref=50000.0)
    assert report.classification == "stable"
    assert report.dominant_real == pytest.approx(-1.0 / 70.0, rel=1e-4)
    assert len(report.eigenvalues) == 10
    assert "jacobian" in report.method


def test_trace_closed_form_matches_numeric():
    trace, det = dfe_trace_det(SUB)
    assert trace == pytest.approx(-10.427857142857142, abs=1e-6)
    assert trace == pytest.approx(np.trace(jacobian(_dfe(), SUB)), abs=1e-6)
    assert det == pytest.approx(1.8081514078230172e-06, rel=1e-3)


@pytest.mark.parametrize("params", [SUB, SUPER,
                                    Parameters(beta1=6.0, beta2=0.03),
                                    Parameters(beta1=40.0, beta2=0.4, mu=0.02)])
def test_trace_closed_form_matches_closed_form_jacobian(params):
    dfe = np.zeros(10)
    dfe[0] = params.Lambda / params.mu
    trace, _ = dfe_trace_det(params)
    assert trace == pytest.approx(np.trace(jacobian(dfe, params)), abs=1e-12)


def test_trace_det_sign_patterns():
    # det changes sign with the dominant threshold, trace stays negative
    _, det_mixed = dfe_trace_det(Parameters(beta1=6.0, beta2=0.03))
    assert det_mixed == pytest.approx(-1.899995e-06, rel=1e-3)
    trace_super, det_super = dfe_trace_det(SUPER)
    assert trace_super == pytest.approx(-10.3578571429, abs=1e-6)
    assert det_super == pytest.approx(3.540440e-06, rel=1e-3)


def test_trace_decreases_with_mortality():
    faster = dataclasses.replace(SUB, mu=1.0 / 50.0)
    assert dfe_trace_det(faster)[0] < dfe_trace_det(SUB)[0]


def test_threshold_value_and_unit_crossing():
    p = Parameters(beta1=6.0, beta2=0.1)
    bstar = bifurcation_threshold(p)
    assert bstar == pytest.approx(BETA_STAR, rel=1e-12)
    at_threshold = dataclasses.replace(p, beta2=bstar)
    assert r2_closed(at_threshold, n_ref=S0) == pytest.approx(1.0, abs=1e-8)


def test_threshold_analysis_frozen_values():
    rep = bifurcation_analysis(Parameters(beta1=6.0, beta2=0.1))
    assert rep.beta_star == pytest.approx(BETA_STAR, rel=1e-12)
    assert rep.a == pytest.approx(COEFF_A, rel=1e-6)
    assert rep.b == pytest.approx(COEFF_B, rel=1e-9)
    assert rep.a < 0.0 < rep.b
    assert rep.zero_eig_residual < 1e-8
    assert rep.v[0] == 0.0
    assert rep.w[2] == pytest.approx(1.0)
    assert abs(rep.a - rep.a_fd) <= 1e-6 * abs(rep.a)
    assert abs(rep.b - rep.b_fd) <= 1e-6 * abs(rep.b)


def test_threshold_analysis_random_draws_agree_with_differences():
    rng = np.random.default_rng(909)
    for _ in range(10):
        p = Parameters(
            beta1=1.0, beta2=0.1,
            Lambda=float(rng.uniform(100.0, 1000.0)),
            mu=float(rng.uniform(0.005, 0.05)),
            rho1=float(rng.uniform(0.05, 0.5)),
            alpha1=float(rng.uniform(0.05, 1.0)),
            dA=float(rng.uniform(0.05, 1.0)),
            eta=float(rng.uniform(1.0, 2.0)))
        rep = bifurcation_analysis(p)
        assert rep.a < 0.0 < rep.b
        assert abs(rep.a - rep.a_fd) <= 1e-6 * abs(rep.a)
        assert abs(rep.b - rep.b_fd) <= 1e-6 * abs(rep.b)


def test_threshold_analysis_requires_progression():
    with pytest.raises(DomainError):
        bifurcation_analysis(dataclasses.replace(SUPER, rho1=0.0))


def test_submodel_spectrum_at_threshold():
    p = dataclasses.replace(SUPER, beta2=BETA_STAR)
    j3 = fd_jacobian(lambda y: hiv_submodel_rhs(y, p, n_ref=S0),
                     np.array([S0, 0.0, 0.0]))
    eigs = sorted(eigenvalues(j3), key=lambda e: e.real, reverse=True)
    assert abs(eigs[0]) < 1e-8
    assert eigs[1].real == pytest.approx(-p.mu, abs=1e-7)
    assert eigs[2].real < -1e-3


def test_persistence_terms_vanish_at_disease_free_state():
    result = h2_condition_check(_dfe(), SUPER)
    assert np.all(result.ghat == 0.0)
    assert result.violating_indices == ()


def test_persistence_terms_at_standard_start():
    scaled = INITIAL_FRACTIONS * S0
    result = h2_condition_check(scaled, SUPER)
    assert result.violating_indices == (1, 5)
    assert result.ghat[3] == 0.0 and result.ghat[7] == 0.0


def test_persistence_structural_zero_components():
    rng = np.random.default_rng(13)
    for _ in range(25):
        y = rng.uniform(0.0, 1.0, size=10)
        y *= 0.9 * S0 / y.sum()
        result = h2_condition_check(y, SUPER)
        assert result.ghat[3] == 0.0
        assert result.ghat[7] == 0.0


def test_persistence_negative_when_tb_and_hiv_present():
    rng = np.random.default_rng(14)
    for _ in range(50):
        y = rng.uniform(0.0, 1.0, size=10)
        y *= 0.9 * S0 / y.sum()
        y[2] = max(y[2], 1.0)      # active TB present
        y[4] = max(y[4], 1.0)      # HIV pressure strictly positive
        y *= 0.9 * S0 / y.sum()
        result = h2_condition_check(y, SUPER)
        assert 1 in result.violating_indices
        assert result.ghat[1] < 0.0


def test_persistence_check_requires_domain_membership():
    outside = np.full(10, S0)
    with pytest.raises(DomainError):
        h2_condition_check(outside, SUPER)
    negative = _dfe()
    negative[4] = -10.0
    with pytest.raises(DomainError):
        h2_condition_check(negative, SUPER)
