"""Adaptive integrator: accuracy, invariants, and failure modes."""
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from syndemic.dynamics import (IntegrationError, integrate,
                               steady_state_by_integration)
from syndemic.model import DomainError, Parameters, full_rhs
from syndemic.scenarios import (_TREATMENT_FAMILIES, ENDEMIC_REFERENCE_STATE,
                                INITIAL_FRACTIONS, INITIAL_POPULATION)

BASE = Parameters(beta1=6.0, beta2=0.1)
START = INITIAL_FRACTIONS * INITIAL_POPULATION


def test_exponential_decay():
    traj = integrate(lambda t, y, out: np.negative(y, out=out),
                     np.array([1.0]), 0.0, 5.0, rel_tol=1e-12)
    assert traj.final[0] == pytest.approx(math.exp(-5.0), abs=1e-9)


def test_logistic_growth_closed_form():
    traj = integrate(lambda t, y, out: np.multiply(y, 1.0 - y, out=out),
                     np.array([0.1]), 0.0, 5.0, rel_tol=1e-12)
    expected = 0.1 * math.exp(5.0) / (1.0 + 0.1 * (math.exp(5.0) - 1.0))
    assert traj.final[0] == pytest.approx(expected, abs=1e-9)


def test_disease_free_state_is_stationary():
    dfe = np.zeros(10)
    dfe[0] = BASE.Lambda / BASE.mu
    traj = integrate(lambda t, y, out: full_rhs(y, BASE, out=out),
                     dfe, 0.0, 50.0)
    assert np.max(np.abs(traj.states - dfe)) == 0.0


def test_tighter_tolerance_takes_more_steps():
    rhs = lambda t, y, out: full_rhs(y, BASE, out=out)
    loose = integrate(rhs, START, 0.0, 20.0, rel_tol=1e-5)
    tight = integrate(rhs, START, 0.0, 20.0, rel_tol=1e-10)
    assert tight.stats["accepted"] > loose.stats["accepted"]
    assert np.allclose(loose.final, tight.final, rtol=1e-4)


def test_report_times_are_landed_exactly():
    grid = np.linspace(0.0, 20.0, 241)
    traj = integrate(lambda t, y, out: full_rhs(y, BASE, out=out),
                     START, 0.0, 20.0, report_times=grid)
    assert np.array_equal(traj.times, grid)
    assert traj.states.shape == (241, 10)
    # the work of every step, stored or not
    assert traj.stats == {"accepted": 373, "rejected": 0, "rhs_evals": 2239,
                          "clamped": 0}


def test_report_grid_is_sorted_without_repeats():
    traj = integrate(lambda t, y, out: np.negative(y, out=out),
                     np.array([1.0]), 0.0, 1.0, report_times=[0.5, 0.25, 0.5])
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert traj.states.shape == (4, 1)
    assert traj.states[:, 0] == pytest.approx(np.exp(-traj.times), rel=1e-7)


@pytest.mark.parametrize("n_ref", [None, 50000.0])
@pytest.mark.parametrize("arm", ["with-treatment", "without-treatment",
                                 "without-treatment-alt"])
def test_report_grid_states_match_library_integrator(arm, n_ref):
    base = Parameters(beta1=13.0, beta2=0.06)
    zeroed, extra = _TREATMENT_FAMILIES["tb"]
    p = {"with-treatment": base,
         "without-treatment": dataclasses.replace(base, **zeroed),
         "without-treatment-alt": dataclasses.replace(base, **zeroed, **extra),
         }[arm]
    rhs = lambda t, y, out=None: full_rhs(y, p, n_ref, out=out)
    grid = np.linspace(0.0, 20.0, 241)
    ref = solve_ivp(rhs, (0.0, 20.0), START, method="DOP853", rtol=1e-12,
                    atol=1e-9, t_eval=grid)
    assert ref.success

    def worst(rel_tol):
        mine = integrate(rhs, START, 0.0, 20.0, rel_tol, report_times=grid)
        assert np.array_equal(mine.times, ref.t)
        dev = np.abs(mine.states - ref.y.T) / np.maximum(np.abs(ref.y.T), 1.0)
        return np.max(dev)

    default = worst(1e-8)
    assert default < 1e-6
    # rel_tol scales the absolute floor too, so tightening it tenfold moves
    # every arm closer; the treated arm's deviation at least halves
    # (measured 5.2x pinned and 2.75x self-consistent)
    assert worst(1e-9) < default / (2.0 if arm == "with-treatment" else 1.0)


def test_report_times_outside_span_rejected():
    with pytest.raises(DomainError):
        integrate(lambda t, y, out: np.negative(y, out=out),
                  np.array([1.0]), 0.0, 1.0, report_times=[2.0])


def test_invalid_setup_rejected():
    y0 = np.array([1.0])
    with pytest.raises(DomainError):
        integrate(lambda t, y, out: np.negative(y, out=out), y0, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda t, y, out: np.negative(y, out=out),
                  np.array([-1.0]), 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(lambda t, y, out: np.negative(y, out=out),
                  y0, 0.0, 1.0, rel_tol=0.0)


@pytest.mark.parametrize("setup", [
    {"t0": math.nan}, {"t0": -math.inf}, {"t1": math.inf}, {"t1": math.nan},
    {"report_times": [0.5, math.nan]}, {"report_times": [math.inf]},
    {"rel_tol": math.nan}, {"rel_tol": math.inf},
])
def test_non_finite_times_and_tolerances_rejected(setup):
    kwargs = {"t0": 0.0, "t1": 1.0, **setup}
    with pytest.raises(DomainError):
        integrate(lambda t, y, out: np.negative(y, out=out),
                  np.array([1.0]), **kwargs)


def test_finite_time_blowup_raises():
    # y' = y^2 from y(0)=1 has a singularity at t = 1
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda t, y, out: np.multiply(y, y, out=out),
                  np.array([1.0]), 0.0, 2.0)
    assert 0.9 < exc.value.time <= 2.0
    assert np.all(np.isfinite(exc.value.state))


class _Spun(Exception):
    """Raised by a right-hand side called far past what its test needs."""


def _sentinel(rhs, calls, limit=10_000):
    # rhs counting its calls into the list calls, which raises _Spun past
    # limit, so that a step loop that spins fails fast instead of hanging
    def counted(t, y, out):
        calls.append(t)
        if len(calls) > limit:
            raise _Spun(f"rhs called more than {limit} times")
        rhs(t, y, out)
    return counted


def test_nan_derivative_underflows_the_step():
    # a NaN error norm halves the step, as a deep dip does, until it
    # underflows; as a step factor it would make h NaN, which never does
    def rhs(t, y, out):
        if t > 0.5:
            out.fill(math.nan)
        else:
            np.negative(y, out=out)

    calls = []
    with pytest.raises(IntegrationError, match="step size underflow") as exc:
        integrate(_sentinel(rhs, calls), np.array([1.0]), 0.0, 1.0)
    assert exc.value.time == pytest.approx(0.5)
    assert len(calls) <= 1000                            # 643 measured


def test_overflowing_transmission_underflows_the_step():
    # beta1 = 1e300 overflows the TB pressure at the first trial stage
    params = Parameters(beta1=1e300, beta2=0.06)
    calls = []
    rhs = _sentinel(lambda t, y, out: full_rhs(y, params, 50000.0, out),
                    calls)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="step size underflow") as exc:
        integrate(rhs, START, 0.0, 20.0)
    assert exc.value.time == 0.0
    assert len(calls) <= 1000                            # 211 measured


def test_agrees_with_library_integrator():
    rhs = lambda t, y, out=None: full_rhs(y, BASE, n_ref=50000.0, out=out)
    mine = integrate(rhs, START, 0.0, 100.0, rel_tol=1e-10)
    ref = solve_ivp(rhs, (0.0, 100.0), START, method="RK45",
                    rtol=1e-10, atol=1e-8)
    assert ref.success
    rel = np.abs(mine.final - ref.y[:, -1]) / np.maximum(ref.y[:, -1], 1.0)
    assert np.max(rel) < 1e-6


def test_long_run_settles_on_reference_state():
    rhs = lambda t, y, out: full_rhs(y, BASE, n_ref=50000.0, out=out)
    traj = integrate(rhs, START, 0.0, 700.0)
    reference = np.array(ENDEMIC_REFERENCE_STATE)
    rel = np.abs(traj.final - reference) / reference
    assert np.max(rel) < 0.01


def test_steady_state_by_integration_converges():
    # slowest mode folds every ~68 years, so the residual needs well over a
    # thousand years to drop below the settle threshold
    state, converged = steady_state_by_integration(
        BASE, START, horizon=1500.0, n_ref=50000.0)
    assert converged
    reference = np.array(ENDEMIC_REFERENCE_STATE)
    assert np.max(np.abs(state - reference) / reference) < 0.01


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
def test_steady_state_by_integration_rejects_bad_horizon(horizon, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated before checking the horizon")

    monkeypatch.setattr("syndemic.dynamics.integrate", no_integration)
    with pytest.raises(DomainError, match="horizon"):
        steady_state_by_integration(BASE, START, horizon=horizon)


def test_invariant_monitor_clean_run():
    # a clean 50-year run from the standard census stays nonnegative, and its
    # total never rises above max(N(0), Lambda/mu)
    traj = integrate(lambda t, y, out: full_rhs(y, BASE, out=out),
                     START, 0.0, 50.0)
    tol = 1e-6 * max(1.0, START.sum())
    bound = max(START.sum(), BASE.Lambda / BASE.mu)
    assert np.min(traj.states) >= -tol
    assert traj.states.sum(axis=1).max() <= bound + tol


def test_random_starts_stay_in_domain():
    # the same invariants from random starts
    rng = np.random.default_rng(2024)
    bound_ref = BASE.Lambda / BASE.mu
    for _ in range(15):
        y0 = rng.uniform(0.0, 9000.0, size=10)
        traj = integrate(lambda t, y, out: full_rhs(y, BASE, out=out),
                         y0, 0.0, 50.0)
        bound = max(y0.sum(), bound_ref)
        assert np.min(traj.states) >= 0.0
        assert traj.states.sum(axis=1).max() <= bound + 1e-6 * max(1.0, y0.sum())


def test_pinned_integration_work_counters():
    # deterministic work of a 20-year pinned run, pinned within a band so
    # that a change in work shows; wall time is not gated
    traj = integrate(lambda t, y, out: full_rhs(y, BASE, 50000.0, out=out),
                     START, 0.0, 20.0)
    assert 96 <= traj.stats["accepted"] <= 106               # 101 measured
    assert 577 <= traj.stats["rhs_evals"] <= 637             # 607 measured


def test_out_of_domain_stage_rejects_the_step():
    def rhs(t, y, out):
        if y[0] <= 0.0:
            raise DomainError("outside the domain")
        np.multiply(y, -5.0, out=out)

    traj = integrate(rhs, np.array([1.0]), 0.0, 20.0, rel_tol=1e-12)
    assert traj.stats["rejected"] > 0
    assert 0.0 < traj.final[0] < 1e-40


def test_stage_with_a_nonpositive_total_rejects_the_step():
    # at mu = 200/year the population falls 50000 -> Lambda/mu = 3.57 within
    # weeks, and a few trial stages overshoot to a nonpositive total, which
    # full_rhs rejects as a DomainError while writing into the stage buffer
    p = Parameters(beta1=6.0, beta2=0.1, mu=200.0)
    raised = []

    def rhs(t, y, out):
        try:
            full_rhs(y, p, out=out)
        except DomainError:
            raised.append(t)
            raise

    traj = integrate(rhs, START, 0.0, 20.0)
    assert raised
    assert traj.stats["rejected"] >= len(raised)
    assert np.all(traj.states >= 0.0) and np.all(np.isfinite(traj.states))
    assert traj.final.sum() == pytest.approx(p.Lambda / p.mu, rel=1e-3)


def test_step_statistics_recorded():
    traj = integrate(lambda t, y, out: full_rhs(y, BASE, out=out),
                     START, 0.0, 20.0)
    assert traj.stats["accepted"] > 0
    assert traj.stats["rhs_evals"] > 6 * traj.stats["accepted"]
