"""Right-hand side, infection pressures, and domain checks."""
import dataclasses
import itertools
import math
import re
import sys
import threading

import numpy as np
import pytest

from flow_list import flow_rhs
from h2 import force_of_infection
from submodels import hiv_submodel_rhs, tb_submodel_rhs
from syndemic.model import (COMPARTMENTS, DomainError, INFECTED_INDICES,
                            N_COMPARTMENTS, PARAMETER_FIELDS, Parameters,
                            flow_matrices, full_jacobian, full_rhs,
                            total_population, validate_parameters)
from syndemic.scenarios import INITIAL_FRACTIONS, INITIAL_POPULATION
from syndemic.stability import fd_jacobian

BASE = Parameters(beta1=6.0, beta2=0.1)
NO_TRANSMISSION = dataclasses.replace(BASE, beta1=0.0, beta2=0.0)
START = INITIAL_FRACTIONS * INITIAL_POPULATION

# Hand-checked derivative at the standard start, time-varying denominator.
FROZEN_RHS_AT_START = np.array([
    -16605.771428571432, 2100.0, 3755.47462857143, 10000.0,
    -527.9714285714285, -122.14285714285714, -13885.714285714284,
    3182.9825142857144, 11000.0, 287.85714285714283,
])


def test_compartment_layout():
    assert N_COMPARTMENTS == 10
    assert COMPARTMENTS[0] == "susceptible"
    assert COMPARTMENTS[7] == "active_tb_hiv"
    assert len(set(COMPARTMENTS)) == 10


def test_forces_at_standard_start():
    lam = force_of_infection(START, BASE)
    assert lam.lambdaT == pytest.approx(0.54, abs=1e-14)
    assert lam.lambdaH == pytest.approx(0.02304, abs=1e-14)


def test_rhs_frozen_literal():
    rhs = full_rhs(START, BASE)
    assert np.max(np.abs(rhs - FROZEN_RHS_AT_START)) < 1e-9


def _drawn_parameters(rng) -> Parameters:
    rates = {name: float(rng.uniform(0.01, 3.0)) for name in PARAMETER_FIELDS}
    rates.update(Lambda=float(rng.uniform(100.0, 1000.0)),
                 mu=float(rng.uniform(0.01, 0.1)),
                 beta1p=float(rng.uniform(0.0, 1.0)),
                 **{name: float(rng.uniform(1.0, 3.0))
                    for name in ("beta2p", "psi", "delta", "eta")})
    return Parameters(**rates)


def test_rhs_matches_independent_flow_list():
    # The flow list of flow_list.py is written apart from the model's flow
    # matrices. FROZEN_RHS_AT_START cannot see the R_T and R_TH columns
    # (both are 0 at START), so every compartment here is positive, and the
    # rates are drawn too; then the baseline and no transmission, which
    # full_rhs evaluates on A alone.
    rng = np.random.default_rng(2718)
    drawn = (_drawn_parameters(rng) for _ in range(1000))
    for p in itertools.chain(drawn, [BASE, NO_TRANSMISSION]):
        y = rng.uniform(0.01, 1.0, N_COMPARTMENTS) * rng.uniform(1e2, 1e5)
        for n_ref in (None, float(rng.uniform(1e3, 1e5))):
            expected = flow_rhs(y, p, n_ref)
            assert (np.max(np.abs(full_rhs(y, p, n_ref) - expected))
                    <= 1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("rhs,width", [(full_rhs, 10), (hiv_submodel_rhs, 3),
                                       (tb_submodel_rhs, 4)])
def test_rhs_domain_checks(rhs, width):
    # a total that is zero, negative or not finite, and a state of the
    # wrong length
    with pytest.raises(DomainError, match="finite and positive"):
        rhs(np.zeros(width), BASE)
    y = np.zeros(width)
    y[0] = -1.0
    with pytest.raises(DomainError, match="finite and positive"):
        rhs(y, BASE)
    for bad in (math.inf, -math.inf, math.nan):
        y = np.full(width, 1000.0)
        y[1] = bad
        with pytest.raises(DomainError, match="finite and positive"):
            rhs(y, BASE)
    with pytest.raises(DomainError, match="shape"):
        rhs(np.ones(width + 1), BASE)


def test_rhs_into_a_given_array():
    # out receives the fresh result bit for bit and is returned, under both
    # conventions and with no transmission
    rng = np.random.default_rng(1618)
    buf = np.empty(N_COMPARTMENTS)
    parameter_sets = [BASE, NO_TRANSMISSION] + [
        Parameters(**{name: float(rng.uniform(0.01, 3.0))
                      for name in PARAMETER_FIELDS}) for _ in range(2)]
    for p in parameter_sets:
        states = (rng.uniform(0.01, 1.0, (200, N_COMPARTMENTS))
                  * rng.uniform(1e2, 1e5, (200, 1)))
        for n_ref in (None, float(rng.uniform(1e3, 1e5))):
            for y in states:
                assert full_rhs(y, p, n_ref, out=buf) is buf
                assert buf.tobytes() == full_rhs(y, p, n_ref).tobytes()


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_rhs_into_a_given_array_checks_the_denominator(bad):
    y = np.zeros(N_COMPARTMENTS) if bad == 0.0 else START.copy()
    y[1] += bad     # a total of bad
    with pytest.raises(DomainError):
        full_rhs(y, BASE, out=np.empty(N_COMPARTMENTS))
    with pytest.raises(DomainError):
        full_rhs(START, BASE, bad, out=np.empty(N_COMPARTMENTS))


def test_rhs_results_share_no_memory():
    # without out each call returns a fresh array, which a later call
    # leaves alone, under both conventions and with no transmission
    for p, n_ref in [(BASE, None), (BASE, 50000.0), (NO_TRANSMISSION, None)]:
        first = full_rhs(START, p, n_ref)
        kept = first.copy()
        second = full_rhs(2.0 * START, p, n_ref)
        buf = full_rhs(3.0 * START, p, n_ref, out=np.empty(N_COMPARTMENTS))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, buf)
        assert first.tobytes() == kept.tobytes()


def test_rhs_is_thread_safe():
    # four threads, switched every microsecond, each evaluate their own
    # parameters and states, into a given array and fresh, and must get
    # the bits that one thread alone gets
    rng = np.random.default_rng(4242)
    work = []
    for _ in range(4):
        p = _drawn_parameters(rng)
        states = (rng.uniform(0.01, 1.0, (100, N_COMPARTMENTS))
                  * rng.uniform(1e2, 1e5, (100, 1)))
        cases = [(y, p, n_ref) for y in states for n_ref in (None, 5e4)]
        work.append([(case, full_rhs(*case).tobytes()) for case in cases])
    mismatches = [None] * len(work)

    def run(i):
        buf = np.empty(N_COMPARTMENTS)
        bad = 0
        for _ in range(5):
            for case, expected in work[i]:
                bad += full_rhs(*case, out=buf).tobytes() != expected
                bad += full_rhs(*case).tobytes() != expected
        mismatches[i] = bad

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == [0] * len(work)


@pytest.mark.parametrize("n_ref", [0.0, math.nan, math.inf])
def test_pinned_denominator_must_be_finite_and_positive(n_ref):
    with pytest.raises(DomainError):
        full_rhs(START, BASE, n_ref)


def test_one_state_functions_reject_stacks():
    # every function of a state takes exactly one, and names any other shape
    out = np.empty(N_COMPARTMENTS)
    calls = [(force_of_infection, 10, {}), (full_jacobian, 10, {}),
             (full_rhs, 10, {}), (full_rhs, 10, {"out": out}),
             (hiv_submodel_rhs, 3, {}), (tb_submodel_rhs, 4, {})]
    for function, width, kwargs in calls:
        for shape in [(2, width), (1, width), (2, 5, width), ()]:
            message = f"state must have shape ({width},), got {shape}"
            with pytest.raises(DomainError, match=re.escape(message)):
                function(np.ones(shape), BASE, **kwargs)


def test_mass_balance_random_states():
    # births minus natural and disease deaths, to machine precision
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        y = rng.uniform(0.0, 10000.0, size=10)
        rhs = full_rhs(y, BASE)
        expected = (BASE.Lambda - BASE.mu * y.sum()
                    - BASE.dT * (y[2] + y[7]) - BASE.dA * y[5]
                    - BASE.dTA * y[9])
        assert abs(rhs.sum() - expected) < 1e-9 * max(1.0, y.sum())


def test_force_of_infection_scale_invariance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        y = rng.uniform(1.0, 5000.0, size=10)
        lam = force_of_infection(y, BASE)
        for c in (0.5, 3.0, 1e4):
            scaled = force_of_infection(c * y, BASE)
            assert scaled.lambdaT == pytest.approx(lam.lambdaT, rel=1e-12)
            assert scaled.lambdaH == pytest.approx(lam.lambdaH, rel=1e-12)


def test_pinned_denominator_changes_force():
    lam_free = force_of_infection(START, BASE)
    lam_pinned = force_of_infection(START, BASE, n_ref=25000.0)
    assert lam_pinned.lambdaT == pytest.approx(2 * lam_free.lambdaT, rel=1e-12)


def test_hiv_submodel_matches_restriction():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y3 = rng.uniform(1.0, 20000.0, size=3)
        full = np.zeros(10)
        full[[0, 4, 5]] = y3
        sub = hiv_submodel_rhs(y3, BASE)
        assert np.array_equal(sub, full_rhs(full, BASE)[[0, 4, 5]])


def test_tb_submodel_matches_restriction():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y4 = rng.uniform(1.0, 20000.0, size=4)
        full = np.zeros(10)
        full[[0, 1, 2, 3]] = y4
        sub = tb_submodel_rhs(y4, BASE)
        assert np.array_equal(sub, full_rhs(full, BASE)[[0, 1, 2, 3]])


def test_submodels_honor_pinned_denominator():
    y3 = np.array([40000.0, 5000.0, 1000.0])
    free = hiv_submodel_rhs(y3, BASE)
    pinned = hiv_submodel_rhs(y3, BASE, n_ref=92000.0)
    assert not np.allclose(free, pinned)


def test_disease_free_state_is_fixed_point():
    dfe = np.zeros(10)
    dfe[0] = BASE.Lambda / BASE.mu
    assert np.all(full_rhs(dfe, BASE) == 0.0)


def test_infected_indices_exclude_uninfected_classes():
    # everyone except susceptibles and the TB-recovered (who cleared both
    # the bacterium and, in this class, never carried the virus)
    assert set(INFECTED_INDICES) == set(range(10)) - {0, 3}


def test_total_population():
    assert total_population(START) == pytest.approx(50000.0, abs=1e-9)


def test_validate_parameters_accepts_baseline():
    assert validate_parameters(BASE) == []


@pytest.mark.parametrize("field,value,fragment", [
    ("mu", 0.0, "mu > 0"),
    ("Lambda", -1.0, "Lambda > 0"),
    ("tau1", -0.5, "tau1 >= 0"),
    ("beta1p", 1.2, "beta1p <= 1"),
    ("eta", 0.9, "eta >= 1"),
    ("psi", 0.5, "psi >= 1"),
])
def test_validate_parameters_flags_violations(field, value, fragment):
    bad = dataclasses.replace(BASE, **{field: value})
    problems = validate_parameters(bad)
    assert any(fragment in p for p in problems)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_validate_parameters_rejects_non_finite(value):
    for field in ("beta1", "mu", "eta"):
        problems = validate_parameters(dataclasses.replace(BASE, **{field: value}))
        assert problems == [f"{field} must be finite"]


def test_full_jacobian_matches_finite_differences():
    # Interior states only: at a compartment near zero the fixed 1e-6 probe
    # step makes the finite-difference estimate, not the closed form, lose
    # digits to roundoff.
    rng = np.random.default_rng(7)
    for _ in range(120):
        p = Parameters(beta1=float(rng.uniform(0.5, 50.0)),
                       beta2=float(rng.uniform(0.005, 0.5)))
        frac = rng.uniform(0.01, 1.0, N_COMPARTMENTS)
        y = frac / frac.sum() * float(rng.uniform(1e3, 1e5))
        for n_ref in (None, 50000.0):
            exact = full_jacobian(y, p, n_ref)
            fd = fd_jacobian(lambda x: full_rhs(x, p, n_ref), y)
            assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("indices,sub_rhs", [
    ([0, 4, 5], hiv_submodel_rhs),
    ([0, 1, 2, 3], tb_submodel_rhs),
])
def test_submodel_jacobians_are_slices_of_full_jacobian(indices, sub_rhs):
    rng = np.random.default_rng(11)
    for n_ref in (None, 50000.0):
        for _ in range(10):
            y_sub = rng.uniform(0.01, 1.0, len(indices)) * 10000.0
            y = np.zeros(N_COMPARTMENTS)
            y[indices] = y_sub
            exact = full_jacobian(y, BASE, n_ref)[np.ix_(indices, indices)]
            fd = fd_jacobian(lambda x: sub_rhs(x, BASE, n_ref), y_sub)
            assert np.max(np.abs(exact - fd)) <= 1e-6 * np.max(np.abs(exact))


def test_full_jacobian_without_transmission_is_the_linear_flow():
    quiet = dataclasses.replace(BASE, beta1=0.0, beta2=0.0)
    j = full_jacobian(np.zeros(10), quiet)
    # the right-hand side is affine here, so column k is f(e_k) - f(0)
    f0 = full_rhs(np.zeros(10), quiet)
    for k, e_k in enumerate(np.eye(N_COMPARTMENTS)):
        assert np.allclose(j[:, k], full_rhs(e_k, quiet) - f0, rtol=0, atol=1e-12)


def test_flow_matrices_are_kept_on_each_parameters_object():
    p = Parameters(beta1=6.0, beta2=0.1)
    first = flow_matrices(p)
    assert flow_matrices(p) is first             # built once, kept on p
    twin = dataclasses.replace(p)
    second = flow_matrices(twin)
    assert twin is not p and second is not first  # an equal twin builds its own
    for mine, theirs in zip(first, second):
        assert mine.tobytes() == theirs.tobytes()
        assert not mine.flags.writeable and not theirs.flags.writeable
    # the kept matrices are not a field: equality, hashing and repr read the
    # rates alone
    assert (twin, hash(twin), repr(twin)) == (p, hash(p), repr(p))
    assert repr(p) == repr(Parameters(beta1=6.0, beta2=0.1))
    moved = flow_matrices(dataclasses.replace(p, beta1=7.0))
    assert moved is not first
    assert moved.weights[0].tobytes() != first.weights[0].tobytes()
    assert flow_matrices(p) is first


def test_wrong_state_length_rejected():
    with pytest.raises(DomainError):
        full_rhs(np.ones(9), BASE)
    with pytest.raises(DomainError):
        force_of_infection(np.ones(11), BASE)


def test_zero_population_rejected_when_transmitting():
    with pytest.raises(DomainError):
        full_rhs(np.zeros(10), BASE)
    with pytest.raises(DomainError):
        full_rhs(START, BASE, n_ref=-5.0)


def test_zero_population_allowed_without_transmission():
    quiet = dataclasses.replace(BASE, beta1=0.0, beta2=0.0)
    rhs = full_rhs(np.zeros(10), quiet)
    assert rhs[0] == pytest.approx(quiet.Lambda)
    assert np.all(rhs[1:] == 0.0)
