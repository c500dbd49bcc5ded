"""Jacobians, eigenvalues, threshold crossing, and the persistence check."""
import dataclasses
import re

import numpy as np
import pytest

import bifurcation_fd
import submodels
import syndemic.model
import syndemic.stability
from bifurcation_fd import assert_left_null_vector_exact, coefficients_fd
from h2 import h2_condition_check
from submodels import classify, hiv_submodel_rhs
from syndemic.model import DomainError, Parameters, full_jacobian, full_rhs
from syndemic.reproduction import bifurcation_threshold, r2_closed
from syndemic.scenarios import INITIAL_FRACTIONS
from syndemic.stability import (ConvergenceError, bifurcation_analysis,
                                dfe_trace_det, eigenvalues, fd_jacobian,
                                stability_report)

S0 = 714.0 / (1.0 / 70.0)
SUB = Parameters(beta1=2.7, beta2=0.03)
SUPER = Parameters(beta1=6.0, beta2=0.1)

BETA_STAR = 0.05444651061036972
COEFF_A = -1.718695316540857e-05
COEFF_B = 1.0598768702103896
# The finite-difference route's values (tests/bifurcation_fd.py), pinned bit
# for bit: each depends on the exact probes and steps, so any change to that
# route shows here.
COEFF_A_FD = -1.7186953165400488e-05
COEFF_B_FD = 1.05987687020947


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
    j = full_jacobian(_dfe(), SUPER)
    d1 = SUPER.k1 + SUPER.tau1 + SUPER.mu
    assert j[0, 0] == pytest.approx(-SUPER.mu, abs=1e-7)
    assert j[0, 2] == pytest.approx(-SUPER.beta1, rel=1e-5)
    assert j[1, 1] == pytest.approx(-d1, rel=1e-7)


def test_jacobian_matches_directional_derivative():
    rng = np.random.default_rng(99)
    y = rng.uniform(100.0, 5000.0, size=10)
    u = rng.normal(size=10)
    j = full_jacobian(y, SUPER)
    h = 1e-5
    fd = (full_rhs(y + h * u, SUPER) - full_rhs(y - h * u, SUPER)) / (2 * h)
    assert np.max(np.abs(j @ u - fd)) < 1e-4 * max(1.0, np.max(np.abs(j)))


def test_jacobian_decouples_without_transmission():
    quiet = Parameters(beta1=0.0, beta2=0.0)
    y = np.full(10, 1000.0)
    j = full_jacobian(y, quiet)
    assert abs(j[1, 0]) < 1e-8    # no infection path out of susceptibles
    assert abs(j[6, 8]) < 1e-8


def test_eigenvalues_of_known_matrices():
    eigs = eigenvalues(np.diag([-3.0, -1.0, -2.0]))
    assert [e.real for e in eigs] == pytest.approx([-1.0, -2.0, -3.0])
    spin = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert spin[0] == pytest.approx(1j)
    assert spin[1] == pytest.approx(-1j)


@pytest.mark.parametrize("matrix,dtype", [
    (full_jacobian(_dfe(), SUPER), np.float64),     # real spectrum
    (np.array([[4.0, 1.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3.0]]),
     np.float64),
    (full_jacobian(np.full(10, 5000.0), SUPER), np.complex128),
    (np.random.default_rng(7).normal(size=(9, 9)), np.complex128),
])
def test_eigenvalues_are_lapacks_values_in_order(matrix, dtype):
    # the values np.linalg.eig returns, bit for bit, as Python complex in
    # the documented order (descending real part, then imaginary part),
    # whether numpy returned a float or a complex array
    vals = np.linalg.eig(matrix)[0]
    assert vals.dtype == dtype
    expected = sorted(vals.astype(complex).tolist(),
                      key=lambda v: (-v.real, -v.imag))
    eigs = eigenvalues(matrix)
    assert all(type(e) is complex for e in eigs)
    assert (np.array(eigs).tobytes()
            == np.array(expected, dtype=complex).tobytes())


@pytest.mark.parametrize("matrix,expected", [
    (np.eye(2), 1.0),
    (np.diag([2.0, -5.0]), 5.0),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0),      # Jordan blocks: defective
    (np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]), 2.0),
])
def test_eigenvalue_moduli_known_matrices(matrix, expected):
    # the largest modulus is the spectral radius
    moduli = [abs(e) for e in eigenvalues(matrix)]
    assert max(moduli) == pytest.approx(expected, rel=1e-12)


def test_eigenvalues_input_guards():
    with pytest.raises(DomainError):
        eigenvalues(np.eye(17))
    with pytest.raises(DomainError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(DomainError):
        eigenvalues(np.zeros((0, 0)))
    with pytest.raises(DomainError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_reject_non_finite_entries(bad):
    with pytest.raises(DomainError, match="must be finite"):
        eigenvalues(np.array([[1.0, 0.0], [bad, 1.0]]))


@pytest.mark.parametrize("position", [0, -1])
def test_eigenvalue_failing_residual_check_raises(position, monkeypatch):
    m = full_jacobian(_dfe(), SUPER)
    true_eig = np.linalg.eig

    def one_value_off(a):
        vals, vecs = true_eig(a)
        vals = vals.astype(complex)
        vals[position] += 1e-3 * np.linalg.norm(a, 2)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", one_value_off)
    with pytest.raises(ConvergenceError, match="residual check"):
        eigenvalues(m)


def _counting(monkeypatch, name):
    # wrap np.linalg.<name> with a call counter
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("shift,passes", [(1e-6, True), (1e-4, False)])
def test_residual_check_scales_by_the_norm(shift, passes, monkeypatch):
    # ||A||_2 = 100: a residual of 1e-6 lies between 1e-7 and 1e-7 ||A||_2
    # and passes, 1e-4 lies above both and raises; either way the norm is
    # needed, so the SVD runs once
    m = np.diag([-100.0, -3.0, -2.0])
    true_eig = np.linalg.eig

    def one_value_off(a):
        vals, vecs = true_eig(a)
        vals = vals.astype(complex)
        vals[0] += shift
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", one_value_off)
    svd_calls = _counting(monkeypatch, "svd")
    if passes:
        assert eigenvalues(m)[-1] == -100.0 + shift
    else:
        with pytest.raises(ConvergenceError, match="residual check"):
            eigenvalues(m)
    assert len(svd_calls) == 1


def _normal_matrix(scale):
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    return q @ np.diag([1.0, -2.0, 3.0, -4.0]) @ q.T * scale


def test_residual_check_does_not_overflow():
    # the squared residuals of a 1e200-scale matrix used to overflow: a
    # ConvergenceError and a RuntimeWarning, or under the command line's
    # error state a FloatingPointError
    m = _normal_matrix(1e200)
    expected = [3e200, 1e200, -2e200, -4e200]
    for state in ({}, {"over": "raise", "invalid": "raise",
                       "divide": "raise"}):
        with np.errstate(**state):
            eigs = eigenvalues(m)
        assert [e.real for e in eigs] == pytest.approx(expected, rel=1e-12)


def test_doctored_residual_raises_at_any_scale(monkeypatch):
    true_eig = np.linalg.eig

    def one_value_off(a):
        vals, vecs = true_eig(a)
        vals = vals.astype(complex)
        vals[0] += 1e-3 * np.linalg.norm(a, 2)
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eig", one_value_off)
    for scale in (1.0, 1e200):
        with pytest.raises(ConvergenceError, match="residual check"):
            eigenvalues(_normal_matrix(scale))


def test_residual_verdict_is_that_of_the_unscaled_check(monkeypatch):
    # random, defective (Jordan) and model Jacobian matrices, each with one
    # eigenvalue moved off by 0 to 1e-3 of ||A||_2: the check passes exactly
    # where ||A v - lambda v|| / ||v|| <= 1e-7 max(||A||_2, 1) does
    rng = np.random.default_rng(4242)
    matrices = [rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
                for n in range(2, 11)]
    matrices += [np.array([[1.0, 1.0], [0.0, 1.0]]),
                 np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]),
                 full_jacobian(_dfe(), SUPER), full_jacobian(_dfe(), SUB),
                 full_jacobian(np.full(10, 5000.0), SUPER)]
    true_eig = np.linalg.eig
    for m in matrices:
        norm = max(np.linalg.norm(m, 2), 1.0)
        for shift in (0.0, 1e-9, 1e-8, 1e-6, 1e-3):
            vals, vecs = true_eig(m)
            vals = vals.astype(complex)
            vals[0] += shift * norm
            r = m @ vecs - vecs * vals
            passes = (np.linalg.norm(r, axis=0) / np.linalg.norm(vecs, axis=0)
                      <= 1e-7 * norm).all()
            monkeypatch.setattr(np.linalg, "eig",
                                lambda a, vals=vals, vecs=vecs: (vals, vecs))
            if passes:
                eigenvalues(m)
            else:
                with pytest.raises(ConvergenceError, match="residual check"):
                    eigenvalues(m)
            monkeypatch.setattr(np.linalg, "eig", true_eig)


def test_no_svd_when_every_residual_is_small(monkeypatch):
    svd_calls = _counting(monkeypatch, "svd")
    rng = np.random.default_rng(4242)
    matrices = [full_jacobian(_dfe(), SUPER), full_jacobian(_dfe(), SUB),
                np.diag([-3.0, -1.0, -2.0])]
    matrices += [rng.normal(size=(n, n)) for n in range(2, 11)]
    for m in matrices:
        eigenvalues(m)
    assert svd_calls == []


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


def test_eigenvector_residual_bounds_smallest_singular_value():
    # ||A v - mu v|| / ||v|| >= sigma_min(A - mu I) for any mu and v, so the
    # eigenvector check in eigenvalues() passes only where a check of the
    # smallest singular value against the same bound would pass. Checked at
    # every computed pair and with the value moved off by 1e-9 to 1e-3 of
    # ||A||_2, up to the rounding of the two computed sides (16 eps ||A||_2).
    eps = np.finfo(float).eps
    rng = np.random.default_rng(4242)
    for n in range(2, 11):
        m = rng.normal(size=(n, n))
        scale = np.linalg.norm(m, 2)
        vals, vecs = np.linalg.eig(m)
        for lam, v in zip(vals, vecs.T):
            for shift in (0.0, 1e-9, 1e-6, 1e-3):
                mu = lam + shift * scale
                residual = np.linalg.norm(m @ v - mu * v) / np.linalg.norm(v)
                shifted = m - mu * np.eye(n)
                smin = np.linalg.svd(shifted, compute_uv=False)[-1]
                assert residual >= smin - 16.0 * eps * scale


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
    eigs = eigenvalues(full_jacobian(_dfe(), SUB, n_ref=50000.0))
    assert max(e.real for e in eigs) < -1e-7
    assert max(e.real for e in eigs) == pytest.approx(-1.0 / 70.0, rel=1e-4)


def test_supercritical_disease_free_state_is_unstable():
    eigs = eigenvalues(full_jacobian(_dfe(), SUPER, n_ref=50000.0))
    assert max(e.real for e in eigs) > 0.0
    assert max(e.real for e in eigs) == pytest.approx(0.37301147, rel=1e-5)
    free = eigenvalues(full_jacobian(_dfe(), SUPER))
    assert max(e.real for e in free) == pytest.approx(0.3735012587, rel=1e-5)


def test_stability_report_bundle():
    report = stability_report(_dfe(), SUB, n_ref=50000.0)
    assert report.classification == "stable"
    assert report.dominant_real == pytest.approx(-1.0 / 70.0, rel=1e-4)
    assert len(report.eigenvalues) == 10


def test_trace_closed_form_matches_numeric():
    trace, det = dfe_trace_det(SUB)
    assert trace == pytest.approx(-10.427857142857142, abs=1e-6)
    assert trace == pytest.approx(np.trace(full_jacobian(_dfe(), SUB)),
                                  abs=1e-6)
    assert det == pytest.approx(1.8081514078230172e-06, rel=1e-3)


@pytest.mark.parametrize("params", [SUB, SUPER,
                                    Parameters(beta1=6.0, beta2=0.03),
                                    Parameters(beta1=40.0, beta2=0.4, mu=0.02)])
def test_trace_closed_form_matches_closed_form_jacobian(params):
    dfe = np.zeros(10)
    dfe[0] = params.Lambda / params.mu
    trace, _ = dfe_trace_det(params)
    assert trace == pytest.approx(np.trace(full_jacobian(dfe, params)),
                                  abs=1e-12)


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
    assert bifurcation_threshold(SUPER) == pytest.approx(BETA_STAR, rel=1e-12)
    # R2 is 1 exactly at the threshold rate, under either convention, for
    # the default rates and with each rate that enters the threshold moved.
    for p in (SUPER, SUB, Parameters(beta1=13.0, beta2=0.06),
              Parameters(beta1=6.0, beta2=0.1, alpha1=0.0),
              Parameters(beta1=6.0, beta2=0.1, rho1=0.37, eta=1.6, dA=0.8)):
        at_threshold = dataclasses.replace(p, beta2=bifurcation_threshold(p))
        for n_ref in (None, p.Lambda / p.mu):
            assert r2_closed(at_threshold, n_ref) == 1.0


def test_threshold_analysis_frozen_values():
    rep = bifurcation_analysis(Parameters(beta1=6.0, beta2=0.1))
    assert rep.beta_star == pytest.approx(BETA_STAR, rel=1e-12)
    assert rep.a == pytest.approx(COEFF_A, rel=1e-6)
    assert rep.b == pytest.approx(COEFF_B, rel=1e-9)
    assert rep.a < 0.0 < rep.b
    assert rep.zero_eig_residual < 1e-8
    assert rep.v[0] == 0.0
    assert rep.w[2] == pytest.approx(1.0)
    assert_left_null_vector_exact(Parameters(beta1=6.0, beta2=0.1), rep)
    a_fd, b_fd = coefficients_fd(Parameters(beta1=6.0, beta2=0.1), rep)
    assert abs(rep.a - a_fd) <= 1e-6 * abs(rep.a)
    assert abs(rep.b - b_fd) <= 1e-6 * abs(rep.b)


@pytest.mark.parametrize("beta1,beta2", [(6.0, 0.1), (2.7, 0.03),
                                         (13.0, 0.06), (4.3, 0.1),
                                         (50.0, 0.1)])
def test_threshold_analysis_difference_route_is_pinned(beta1, beta2):
    # beta2 is replaced by the threshold rate and TB plays no part, so every
    # row gives the same coefficients.
    p = Parameters(beta1=beta1, beta2=beta2)
    rep = bifurcation_analysis(p)
    assert (rep.a, rep.b) == (COEFF_A, COEFF_B)
    assert coefficients_fd(p, rep) == (COEFF_A_FD, COEFF_B_FD)


def test_threshold_analysis_difference_route_probe_count(monkeypatch):
    # The difference route of tests/bifurcation_fd.py: five one-state calls
    # at beta* on one Parameters object, the centre and dfe3 +- s*w
    # (s = h/2, h), then fd_jacobian at beta* + kappa and at beta* - kappa,
    # each the centre and then dfe3 +- e_j*s_j (s = h_j/2, h_j) one probe
    # at a time.
    calls = []
    original = bifurcation_fd.hiv_submodel_rhs

    def recording(state, params, n_ref=None):
        calls.append((np.array(state), params))
        return original(state, params, n_ref)

    monkeypatch.setattr(bifurcation_fd, "hiv_submodel_rhs", recording)
    rep = bifurcation_analysis(SUPER)
    assert calls == []
    assert coefficients_fd(SUPER, rep) == (COEFF_A_FD, COEFF_B_FD)
    bstar = rep.beta_star
    assert [(p.beta1, p.beta2) for _, p in calls] == (
        [(0.0, bstar)] * 5 + [(0.0, bstar + 1e-5)] * 13
        + [(0.0, bstar - 1e-5)] * 13)
    assert all(p is calls[0][1] for _, p in calls[:5])
    assert all(state.shape == (3,) for state, _ in calls)

    dfe3 = np.array([S0, 0.0, 0.0])
    h = 1e-3 * S0 / float(np.max(np.abs(rep.w)))
    along_w = [dfe3] + [dfe3 + sign * (s * rep.w)
                        for s in (h / 2.0, h) for sign in (1.0, -1.0)]
    assert ({tuple(state) for state, _ in calls[:5]}
            == {tuple(r) for r in along_w})
    steps = np.maximum(1e-6, 1e-6 * np.abs(dfe3))
    coordinate = []
    for s in (steps / 2.0, steps):
        for j in range(3):
            e = np.zeros(3)
            e[j] = s[j]
            coordinate += [dfe3 + e, dfe3 - e]
    for jacobian in (calls[5:18], calls[18:]):
        states = [state for state, _ in jacobian]
        assert tuple(states[0]) == tuple(dfe3)
        assert len(states[1:]) == len(coordinate)
        assert ({tuple(r) for r in states[1:]}
                == {tuple(r) for r in coordinate})


def test_threshold_analysis_reuses_flow_matrices(count_calls):
    # The closed forms build no flow matrices. The difference route makes
    # three parameter sets per rate pair (beta*, beta* +- kappa), and each
    # builds its matrices once, for all of its probes.
    builds = count_calls(syndemic.model, "_build_flow_matrices")
    grid = [Parameters(beta1=float(beta1), beta2=float(beta2))
            for beta1, beta2 in zip(np.linspace(1.0, 50.0, 20),
                                    np.linspace(0.01, 0.4, 20))]
    reports = [bifurcation_analysis(p) for p in grid]
    assert builds == []
    for p, rep in zip(grid, reports):
        assert coefficients_fd(p, rep) == (COEFF_A_FD, COEFF_B_FD)
    assert len(builds) == 3 * len(grid)


def test_threshold_analysis_needs_no_differences_or_rhs_calls(count_calls):
    # a, b and the null vectors are closed forms: no sub-model, full-model
    # or flow-matrix evaluation, and no finite-difference jacobian
    modules = {"fd_jacobian": syndemic.stability,
               "hiv_submodel_rhs": submodels, "full_rhs": syndemic.model,
               "flow_matrices": syndemic.model}
    calls = [count_calls(module, name) for name, module in modules.items()]
    bifurcation_analysis(SUPER)
    assert [len(c) for c in calls] == [0, 0, 0, 0]
    # the counters do see calls made through the package: 1 + 12 probes
    syndemic.stability.fd_jacobian(
        lambda y: submodels.hiv_submodel_rhs(y, SUPER),
        np.array([S0, 0.0, 0.0]))
    assert [len(c) for c in calls] == [1, 13, 13, 13]


def _random_hiv_rates():
    # ten draws of the sub-model's rates around the defaults
    rng = np.random.default_rng(909)
    for _ in range(10):
        yield Parameters(
            beta1=1.0, beta2=0.1,
            Lambda=float(rng.uniform(100.0, 1000.0)),
            mu=float(rng.uniform(0.005, 0.05)),
            rho1=float(rng.uniform(0.05, 0.5)),
            alpha1=float(rng.uniform(0.05, 1.0)),
            dA=float(rng.uniform(0.05, 1.0)),
            eta=float(rng.uniform(1.0, 2.0)))


def test_threshold_analysis_random_draws_agree_with_differences():
    for p in _random_hiv_rates():
        rep = bifurcation_analysis(p)
        assert rep.a < 0.0 < rep.b
        a_fd, b_fd = coefficients_fd(p, rep)
        assert abs(rep.a - a_fd) <= 1e-6 * abs(rep.a)
        assert abs(rep.b - b_fd) <= 1e-6 * abs(rep.b)


def _same_bits(rep, other):
    return all(np.asarray(getattr(rep, f.name)).tobytes()
               == np.asarray(getattr(other, f.name)).tobytes()
               for f in dataclasses.fields(rep))


def test_sets_differing_only_in_tb_rates_share_one_report():
    # the report reads the six sub-model rates only; every TB rate (and
    # beta1, beta2, alpha2, dTA) leaves it the same, bit for bit
    other = dataclasses.replace(SUPER, beta1=13.0, beta2=0.06, k1=0.7,
                                k2=2.0, tau1=0.5, tau2=3.0, tau3=1.5,
                                tau4=0.25, rho2=0.4, rho3=0.2, alpha2=0.5,
                                psi=1.5, delta=1.2, beta1p=0.5, beta2p=1.4,
                                dT=0.2, dTA=0.6)
    rep = bifurcation_analysis(SUPER)
    assert _same_bits(bifurcation_analysis(other), rep)
    assert (rep.a, rep.b) == (COEFF_A, COEFF_B)


@pytest.mark.parametrize("rate", ["Lambda", "mu", "rho1", "alpha1", "dA",
                                  "eta"])
def test_each_submodel_rate_moves_the_report(rate):
    base = bifurcation_analysis(SUPER)
    moved = dataclasses.replace(SUPER, **{rate: 1.1 * getattr(SUPER, rate)})
    rep = bifurcation_analysis(moved)
    assert (rep.beta_star, rep.a) != (base.beta_star, base.a)


def test_threshold_analysis_requires_progression():
    # raises on every call, not only the first
    for _ in range(2):
        with pytest.raises(DomainError):
            bifurcation_analysis(dataclasses.replace(SUPER, rho1=0.0))


@pytest.mark.parametrize("rates,message", [
    # numer overflows, and every part of the report with it but v, which
    # the infinite beta* sends to -0
    ({"mu": 1e300, "dA": 1e300},
     "beta_star, w, a, zero_eig_residual not finite"),
    # rho1*mu underflows to 0, a divisor of w
    ({"rho1": 1e-300, "mu": 1e-100}, "rho1 and rho1*mu must be positive")])
def test_threshold_analysis_names_what_is_not_finite(rates, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        bifurcation_analysis(dataclasses.replace(SUPER, **rates))


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
