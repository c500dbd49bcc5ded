"""Equilibria by pseudo-transient continuation on the compartments, written
apart from syndemic.equilibria so that the tests have an independent route
to the roots that the package finds on the two infection pressures.

Each step is backward Euler on x' = f(x) with one Jacobian,
(I/dt - J) dx = f(x), so the iterate follows the flow towards the attractor
its seed lies in (Kelley & Keyes 1998), with f and J from ``full_rhs`` and
``full_jacobian``, sliced to a sub-model's compartments.
"""
import math

import numpy as np

from syndemic.model import (_HIV_SUB_INDICES, _TB_SUB_INDICES, DomainError,
                            full_jacobian, full_rhs)
from syndemic.stability import TOL_EIG, ConvergenceError

# The tolerances are relative to N(seed).
_DT0 = 1.0               # years, the first pseudo-time step
_DT_GROWTH = 1.3         # least growth of the pseudo-time step per accepted one
_NEWTON_TOL = 1e-10      # ||f|| at which the steps become full Newton steps
_STEP_TOL = 1e-13        # max |dx| of the Newton step that ends the solve
_DIP_TOL = 1e-8          # deepest dip below 0 that is clamped, not rejected
_MAX_ITERATIONS = 500    # accepted plus rejected steps

# the sub-model seeds, fractions of Lambda/mu
HIV_SEED = (0.95, 0.04, 0.01)
TB_SEED = (0.90, 0.07, 0.02, 0.01)


def _ptc(fun_jac, seed):
    """Root of f reached from seed by pseudo-transient continuation, and the
    solve's stats; fun_jac(x) returns (f(x), J(x)).

    After an accepted step dt grows by ||f_old|| / ||f_new||, at least by
    _DT_GROWTH; a trial that leaves the domain or dips below -_DIP_TOL N is
    rejected and retried at dt / 4, and smaller dips are clamped to 0. Once
    ||f|| <= _NEWTON_TOL N the steps are full Newton steps (1/dt = 0),
    until one is at most _STEP_TOL N: a residual test alone stops far from
    the root where J is nearly singular. The J of each accepted trial is
    the next step's. That last step's trial is the root, with components
    below 1e-12 zeroed before it is evaluated. stats counts the accepted
    and rejected steps and the Jacobians built, and records whether every
    eigenvalue of J(root) lies below -TOL_EIG in real part.
    """
    x = np.asarray(seed, dtype=float).copy()
    n = max(1.0, float(np.abs(x).sum()))
    f, j = fun_jac(x)
    fnorm = math.sqrt(f @ f)
    eye, dt, newton = np.eye(x.size), _DT0, fnorm <= _NEWTON_TOL * n
    stats = {"steps": 0, "rejected": 0, "jacobian_builds": 1,
             "locally_stable": False}
    for _ in range(_MAX_ITERATIONS):
        try:
            dx = np.linalg.solve((0.0 if newton else 1.0 / dt) * eye - j, f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular jacobian in pseudo-transient step",
                                   last_iterate=x) from exc
        x_try = x + dx
        final = newton and np.abs(dx).max() <= _STEP_TOL * n
        try:
            if not x_try.min() >= -_DIP_TOL * n:
                raise DomainError("trial step leaves the nonnegative orthant")
            # clamp small dips; the root also drops roundoff-sized components
            x_try = (np.where(x_try < 1e-12, 0.0, x_try) if final
                     else np.maximum(x_try, 0.0))
            f_try, j_try = fun_jac(x_try)
            stats["jacobian_builds"] += 1
            fnorm_try = math.sqrt(f_try @ f_try)
            if not math.isfinite(fnorm_try):
                raise DomainError("non-finite right-hand side")
        except DomainError:
            stats["rejected"] += 1
            dt, newton = dt / 4.0, False
            continue
        stats["steps"] += 1
        if final:
            stats["locally_stable"] = bool(
                np.linalg.eigvals(j_try).real.max() < -TOL_EIG)
            return x_try, stats
        if fnorm_try > 0.0:
            dt *= max(fnorm / fnorm_try, _DT_GROWTH)
        x, f, fnorm, j = x_try, f_try, fnorm_try, j_try
        newton = fnorm <= _NEWTON_TOL * n
    raise ConvergenceError("pseudo-transient iteration cap reached",
                           last_iterate=x)


def model_fun_jac(params, n_ref=None, indices=None):
    """(f, J) of the model, restricted to indices (all ten by default) with
    the other compartments held at 0."""
    indices = np.arange(10) if indices is None else np.asarray(indices)

    def fun_jac(x):
        y = np.zeros(10)
        y[indices] = x
        return (full_rhs(y, params, n_ref)[indices],
                full_jacobian(y, params, n_ref)[np.ix_(indices, indices)])
    return fun_jac


def ptc_syndemic(params, seed, n_ref=None):
    """(10-state, stats) of the full model's root reached from seed."""
    return _ptc(model_fun_jac(params, n_ref), seed)


def _ptc_submodel(params, n_ref, indices, fractions):
    x, stats = _ptc(model_fun_jac(params, n_ref, indices),
                    np.asarray(fractions) * params.Lambda / params.mu)
    state = np.zeros(10)
    state[indices] = x
    return state, stats


def ptc_hiv_free(params, n_ref=None):
    """(10-state, stats) of the TB-only sub-model's root from TB_SEED."""
    return _ptc_submodel(params, n_ref, _TB_SUB_INDICES, TB_SEED)


def ptc_tb_free(params, n_ref=None):
    """(10-state, stats) of the HIV-only sub-model's root from HIV_SEED."""
    return _ptc_submodel(params, n_ref, _HIV_SUB_INDICES, HIV_SEED)
