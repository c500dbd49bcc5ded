"""Reproduction numbers and next-generation matrix cross-checks."""
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import syndemic.model
import syndemic.stability
from flow_list import flow_rhs, infection_gains
from syndemic.model import (DomainError, INFECTED_INDICES, Parameters,
                            full_jacobian, validate_parameters)
from syndemic.reproduction import (_perron_root, bifurcation_threshold,
                                   ngm_decomposition, r0, r1_closed,
                                   r2_closed)
from syndemic.stability import (bifurcation_analysis, dfe_trace_det,
                                eigenvalues, fd_jacobian, stability_report)

S0 = 714.0 / (1.0 / 70.0)

# Closed-form values, frozen to 7 decimals: (value at the recruitment
# equilibrium scale, value at the 50000 census scale).
R1_TABLE = {
    2.7: (0.6265762, 0.6263256),
    4.3: (0.9978806, 0.9974815),
    6.0: (1.3923916, 1.3918346),
    10.0: (2.3206526, 2.3197244),
    13.0: (3.0168484, 3.0156417),
    15.0: (3.4809789, 3.4795865),
    50.0: (11.6032631, 11.5986218),
}
R2_TABLE = {
    0.03: (0.5509995, 0.5507791),
    0.051: (0.9366991, 0.9363245),
    0.055: (1.0101657, 1.0097617),
    0.06: (1.1019990, 1.1015582),
    0.07: (1.2856655, 1.2851512),
    0.09: (1.6529985, 1.6523373),
    0.099: (1.8182983, 1.8175710),
    0.1: (1.8366650, 1.8359303),
}

PAIRED_SETS = [(6.0, 0.1), (2.7, 0.03), (13.0, 0.06), (4.3, 0.1), (50.0, 0.1)]


@pytest.mark.parametrize("beta1", sorted(R1_TABLE))
def test_tb_number_both_conventions(beta1):
    p = Parameters(beta1=beta1, beta2=0.1)
    at_dfe, at_census = R1_TABLE[beta1]
    assert r1_closed(p) == pytest.approx(at_dfe, abs=1e-6)
    assert r1_closed(p, n_ref=50000.0) == pytest.approx(at_census, abs=1e-6)


@pytest.mark.parametrize("beta2", sorted(R2_TABLE))
def test_hiv_number_both_conventions(beta2):
    p = Parameters(beta1=6.0, beta2=beta2)
    at_dfe, at_census = R2_TABLE[beta2]
    assert r2_closed(p) == pytest.approx(at_dfe, abs=1e-6)
    assert r2_closed(p, n_ref=50000.0) == pytest.approx(at_census, abs=1e-6)


def test_linear_in_transmission_rates():
    p = Parameters(beta1=6.0, beta2=0.1)
    double = dataclasses.replace(p, beta1=12.0, beta2=0.2)
    assert r1_closed(double) == pytest.approx(2 * r1_closed(p), rel=1e-12)
    assert r2_closed(double) == pytest.approx(2 * r2_closed(p), rel=1e-12)


def test_bundle_takes_max():
    numbers = r0(Parameters(beta1=6.0, beta2=0.1))
    assert numbers.r0 == max(numbers.r1, numbers.r2)
    assert numbers.n_ref == pytest.approx(S0)


@pytest.mark.parametrize("params,n_ref,named", [
    (Parameters(beta1=6.0, beta2=1e307), None, "R2 = inf"),
    (Parameters(beta1=1e308, beta2=0.1, k1=10.0), None, "R1 = inf"),
    # a pinned reference below Lambda/mu overflows the prefactor, and
    # inf * k1 = inf * 0 is nan
    (Parameters(beta1=1e308, beta2=0.1, k1=0.0), 1.0, "R1 = nan"),
])
def test_non_finite_reproduction_number_is_a_domain_error(params, n_ref,
                                                          named):
    # the closed forms overflow in Python floats, silently
    assert not math.isfinite(r1_closed(params, n_ref)
                             * r2_closed(params, n_ref))
    with pytest.raises(DomainError, match="overflow") as exc:
        r0(params, n_ref)
    assert named in str(exc.value)


def test_prefactor_rejects_bad_reference():
    p = Parameters(beta1=6.0, beta2=0.1)
    for n_ref in (0.0, -10.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            r1_closed(p, n_ref=n_ref)
        with pytest.raises(DomainError):
            r2_closed(p, n_ref=n_ref)


@pytest.mark.parametrize("beta1,beta2", PAIRED_SETS)
def test_ngm_matches_closed_forms_on_reference_sets(beta1, beta2):
    p = Parameters(beta1=beta1, beta2=beta2)
    decomp = ngm_decomposition(p)
    expected = r0(p).r0
    assert decomp.rho == pytest.approx(expected, rel=1e-12)


def test_ngm_matches_closed_forms_on_transmission_grid():
    # The (beta1, beta2) grid of the threshold-analysis benchmark workload.
    for beta1 in np.geomspace(0.5, 50.0, 20):
        for beta2 in np.geomspace(0.005, 0.5, 20):
            p = Parameters(beta1=float(beta1), beta2=float(beta2))
            assert ngm_decomposition(p).rho == pytest.approx(r0(p).r0,
                                                             rel=1e-12)


def _random_parameters(rng):
    draw = {name: float(rng.uniform(0.01, 3.0)) for name in
            ("k1", "k2", "tau1", "tau2", "tau3", "tau4", "rho1", "rho2",
             "rho3", "alpha1", "alpha2", "dT", "dA", "dTA")}
    return Parameters(
        beta1=float(rng.uniform(0.01, 3.0)),
        beta2=float(rng.uniform(0.01, 3.0)),
        Lambda=float(rng.uniform(100.0, 1000.0)),
        mu=float(rng.uniform(0.01, 0.1)),
        beta1p=float(rng.uniform(0.0, 1.0)),
        beta2p=float(rng.uniform(1.0, 3.0)),
        psi=float(rng.uniform(1.0, 3.0)),
        delta=float(rng.uniform(1.0, 3.0)),
        eta=float(rng.uniform(1.0, 3.0)),
        **draw)


def _random_draws():
    rng = np.random.default_rng(31415)
    return [_random_parameters(rng) for _ in range(20)]


def _threshold_grid():
    # the (beta1, beta2) grid of the threshold-analysis benchmark workload
    return [Parameters(beta1=float(b1), beta2=float(b2))
            for b1 in np.geomspace(0.5, 50.0, 20)
            for b2 in np.geomspace(0.005, 0.5, 20)]


def test_ngm_matches_closed_forms_on_random_draws():
    for p in _random_draws():
        assert validate_parameters(p) == []
        decomp = ngm_decomposition(p)
        assert decomp.rho == pytest.approx(r0(p).r0, rel=1e-12)


def test_small_ngm_is_diag_r1_r2():
    # K_small = W V^-1 U: the two diseases decouple at the disease-free
    # state, so its off-diagonal entries vanish exactly and its diagonal
    # holds R1 and R2, each on its own (criterion 3 checks their maximum)
    for p in _threshold_grid() + _random_draws():
        k = ngm_decomposition(p).K_small
        assert k.shape == (2, 2)
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0
        assert k[0, 0] == pytest.approx(r1_closed(p), rel=1e-12)
        assert k[1, 1] == pytest.approx(r2_closed(p), rel=1e-12)


def test_closed_form_radius_matches_the_eigenvalue_route():
    # rho, the closed-form Perron root of K_small, against the route it
    # replaced: the largest modulus among eigenvalues(K_small)
    for p in _threshold_grid() + _random_draws():
        decomp = ngm_decomposition(p)
        expected = max(abs(v) for v in eigenvalues(decomp.K_small))
        assert decomp.rho == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_perron_root_of_random_nonnegative_matrices():
    # the model's K_small is diagonal, so only these matrices exercise the
    # b*c term of the closed form
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        k = rng.uniform(1e-3, 1.0, size=(2, 2)) * 10.0 ** rng.uniform(-3, 3)
        expected = float(np.max(np.abs(np.linalg.eigvals(k))))
        assert _perron_root(k) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_non_finite_next_generation_matrix_is_a_domain_error():
    # N = Lambda / mu overflows to inf, so K_small is not finite
    with np.errstate(all="ignore"), pytest.raises(DomainError,
                                                  match="must be finite"):
        ngm_decomposition(Parameters(beta1=6.0, beta2=0.1,
                                     Lambda=1e300, mu=1e-10))


def test_warm_threshold_item_linear_algebra_calls(count_calls, monkeypatch):
    # one item of the threshold analysis, after a first run of it: the 2x2
    # NGM (one solve, its Perron root in closed form), the 10x10 spectrum
    # (one eig, the item's one Jacobian), no SVD, since every residual is
    # small, and none for the trace and determinant or the bifurcation
    # report, which are closed forms
    p = Parameters(beta1=6.0, beta2=0.1)
    dfe = np.zeros(10)
    dfe[0] = S0

    def item():
        return (r0(p), ngm_decomposition(p), stability_report(dfe, p),
                dfe_trace_det(p), bifurcation_analysis(p))

    item()
    calls = {name: [] for name in ("eig", "svd", "inv", "solve", "det")}
    for name, log in calls.items():
        original = getattr(np.linalg, name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    jacobians = count_calls(syndemic.model, "full_jacobian")
    item()
    assert {name: len(log) for name, log in calls.items()} == {
        "eig": 1, "svd": 0, "inv": 0, "solve": 1, "det": 0}
    assert len(jacobians) == 1


def _dfe(p):
    dfe = np.zeros(10)
    dfe[0] = p.Lambda / p.mu
    return dfe


def _exact_det(matrix):
    # Gaussian elimination in rationals on the float entries: no rounding
    a = [[Fraction(x) for x in row] for row in matrix.tolist()]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next(i for i in range(k, len(a)) if a[i][k] != 0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            if factor:
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


def test_dfe_determinant_matches_lapack_on_random_rates():
    # the block product against LAPACK's det of the 10 x 10 Jacobian: 1e-12
    # relative, plus the 1e-15/|R - 1| roundoff floor of the TB or HIV
    # factor, d1 d2 (1 - R1) or numer (1 - R2), for a draw near a threshold
    rng = np.random.default_rng(2026)
    for _ in range(1000):
        p = _random_parameters(rng)
        _, det = dfe_trace_det(p)
        lapack = float(np.linalg.det(full_jacobian(_dfe(p), p)))
        numbers = r0(p)
        near = min(abs(numbers.r1 - 1.0), abs(numbers.r2 - 1.0))
        assert abs(det - lapack) <= (1e-12 + 1e-15 / near) * abs(lapack)


@pytest.mark.parametrize("excess", [1e-4, 1e-7, 1e-10])
@pytest.mark.parametrize("disease", ["tb", "hiv"])
def test_dfe_determinant_near_threshold(disease, excess):
    # R - 1 = excess for one disease, the other far from its threshold:
    # within the 1e-15/(R - 1) roundoff floor of R - 1 of the exact
    # determinant of the same float Jacobian
    p = Parameters(beta1=2.7, beta2=0.1)
    if disease == "tb":
        beta1 = (1.0 + excess) * p.beta1 / r1_closed(p)
        p = dataclasses.replace(p, beta1=beta1)
        r = r1_closed(p)
    else:
        beta2 = (1.0 + excess) * bifurcation_threshold(p)
        p = dataclasses.replace(p, beta2=beta2)
        r = r2_closed(p)
    assert r - 1.0 == pytest.approx(excess, rel=1e-5)
    exact = _exact_det(full_jacobian(_dfe(p), p))
    _, det = dfe_trace_det(p)
    assert abs(Fraction(det) - exact) <= Fraction(1e-15 / excess) * abs(exact)


@pytest.mark.parametrize("rates", [
    {"Lambda": 1e300, "mu": 1e-10},          # Lambda/mu overflows
    {"Lambda": 1e-320, "mu": 1e10},          # and underflows to 0
    {"mu": 0.0}, {"mu": math.nan}, {"Lambda": -714.0}])
@pytest.mark.parametrize("beta1,beta2", [(6.0, 0.1), (0.0, 0.0)])
def test_dfe_trace_det_needs_a_disease_free_population(rates, beta1, beta2):
    p = dataclasses.replace(Parameters(beta1=beta1, beta2=beta2), **rates)
    with pytest.raises(DomainError, match="finite and positive"):
        dfe_trace_det(p)


def test_second_pass_over_threshold_grid_builds_no_flow_matrices(count_calls):
    # the 400 rate pairs of the benchmark's threshold grid, each item run on
    # one Parameters object: the first pass builds one set of flow matrices
    # per object, and every later pass finds them kept on it
    dfe = np.zeros(10)
    dfe[0] = S0
    grid = [Parameters(beta1=float(beta1), beta2=float(beta2))
            for beta1 in np.geomspace(0.5, 50.0, 20)
            for beta2 in np.geomspace(0.005, 0.5, 20)]

    def item(p):
        return (r0(p), ngm_decomposition(p), stability_report(dfe, p),
                dfe_trace_det(p), bifurcation_analysis(p))

    builds = count_calls(syndemic.model, "_build_flow_matrices")
    for expected in (len(grid), 0):
        del builds[:]
        for p in grid:
            item(p)
        assert len(builds) == expected


# Independent route: F and V from the test-side flow list (flow_list.py),
# differentiated numerically on the infected block at the disease-free
# state: F from the new-infection inflows, V = F - J from the whole
# right-hand side J.

def _infected_block_derivative(fun, params):
    idx = list(INFECTED_INDICES)
    dfe = np.zeros(10)
    dfe[0] = params.Lambda / params.mu

    def embed(z):
        y = dfe.copy()
        y[idx] = z
        return y

    return fd_jacobian(lambda z: fun(embed(z), params)[idx], dfe[idx])


def _flow_list_f_and_v(params):
    f_mat = _infected_block_derivative(infection_gains, params)
    return f_mat, f_mat - _infected_block_derivative(flow_rhs, params)


CROSS_CHECK_SETS = ([Parameters(beta1=b1, beta2=b2) for b1, b2 in PAIRED_SETS]
                    + _random_draws())


def test_decomposition_sign_structure():
    # new infections only enter, losses only leave, and so K_small = W V^-1 U
    # is nonnegative
    for p in CROSS_CHECK_SETS:
        f_mat, v_mat = _flow_list_f_and_v(p)
        band = 1e-6 * np.max(np.abs(f_mat))
        assert np.min(f_mat) >= -band
        assert np.max(v_mat - np.diag(np.diag(v_mat))) <= band
        assert np.min(np.diag(v_mat)) > 0.0
        assert np.min(ngm_decomposition(p).K_small) >= 0.0


def test_new_infection_matrix_matches_flow_list_differences():
    # F has rank 2, so F V^-1 has two nonzero eigenvalues: diag(K_small),
    # the larger of them rho
    for p in CROSS_CHECK_SETS:
        f_mat, v_mat = _flow_list_f_and_v(p)
        decomp = ngm_decomposition(p)
        spectrum = np.linalg.eigvals(f_mat @ np.linalg.inv(v_mat))
        spectrum = spectrum[np.argsort(-np.abs(spectrum))]
        band = 1e-6 * decomp.rho
        assert np.max(np.abs(spectrum[2:])) <= band
        assert np.max(np.abs(np.sort(spectrum[:2].real)
                             - np.sort(np.diag(decomp.K_small)))) <= band
        assert np.max(np.abs(spectrum[:2].imag)) <= band
        assert abs(abs(spectrum[0]) - decomp.rho) <= band


def test_decomposition_reproduces_infected_jacobian_block():
    # F - V of the flow list is the infected block of the model's Jacobian
    idx = np.ix_(INFECTED_INDICES, INFECTED_INDICES)
    for p in CROSS_CHECK_SETS:
        f_mat, v_mat = _flow_list_f_and_v(p)
        dfe = np.zeros(10)
        dfe[0] = p.Lambda / p.mu
        jac = full_jacobian(dfe, p)[idx]
        assert (np.max(np.abs((f_mat - v_mat) - jac))
                <= 1e-6 * np.max(np.abs(f_mat)))


def test_decomposition_needs_no_differences_or_rhs_calls(count_calls):
    fd_calls = count_calls(syndemic.stability, "fd_jacobian")
    rhs_calls = count_calls(syndemic.model, "full_rhs")
    ngm_decomposition(Parameters(beta1=6.0, beta2=0.1))
    assert (len(fd_calls), len(rhs_calls)) == (0, 0)
    # the counters do see calls made through the package
    syndemic.stability.fd_jacobian(
        lambda y: syndemic.model.full_rhs(y, Parameters(beta1=6.0, beta2=0.1)),
        np.full(10, 1000.0))
    assert len(fd_calls) == 1 and len(rhs_calls) == 41
