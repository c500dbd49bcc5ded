"""Adaptive time integration, and relaxation to a steady state by it.

The integrator is an embedded Dormand-Prince 4(5) pair with PI step-size
control and first-same-as-last reuse. It is deliberately dependency-free;
the test suite cross-checks it against an independent reference integrator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .model import DomainError, Parameters, full_rhs

# Dormand-Prince 4(5) tableau. The fifth-order weights are row 7 of A
# (first-same-as-last), the fourth-order solution is used for the error
# estimate only.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_H_MIN = 1e-12
_MAX_STEPS = 2_000_000
_SETTLE_TOL = 1e-9      # steady_state_by_integration, checked every _CHUNK years
_CHUNK = 50.0


class IntegrationError(RuntimeError):
    """Integration failed; carries the last good time and state."""

    def __init__(self, message: str, time: float, state: np.ndarray):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass
class Trajectory:
    """Times, the states at those times, and solver statistics.

    ``integrate`` fills it with the report grid when one is asked for (t0,
    each report time and t1), else with every accepted step.
    """

    times: np.ndarray
    states: np.ndarray
    stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def integrate(rhs: Callable[[float, np.ndarray, np.ndarray], object],
              state0,
              t0: float,
              t1: float,
              rel_tol: float = 1e-8,
              abs_tol: Optional[float] = None,
              report_times: Optional[Sequence[float]] = None) -> Trajectory:
    """Integrate y' = f(t, y) from t0 to t1 adaptively.

    ``rhs(t, y, out)`` writes f(t, y) into ``out``, a float array of y's
    shape (a row of the integrator's stage buffer); what it returns is not
    read. It must not keep ``y`` or ``out``, which the integrator reuses,
    and it may raise DomainError at a state outside the model's domain.
    The model's rhs is ``lambda t, y, out: full_rhs(y, params, n_ref,
    out=out)``.

    The step size is capped so that t1 and every report time are landed on
    exactly, so a report grid caps the steps too. With report_times the
    returned trajectory holds the states at t0, at each report time and at
    t1, sorted and without repeats; without them it holds every accepted
    step. Its stats count every step either way.

    The fifth-order solution is the last stage's state, and that stage's
    derivative starts the next step (first-same-as-last). One minimum over
    the new state decides both dips: a component in (-abs_tol, 0) is
    clamped to zero, after which the next step evaluates rhs afresh; a dip
    at or below -abs_tol rejects the step outright (a drop that large is
    solver failure, not roundoff), and so does a trial stage at which rhs
    raises DomainError. Raises DomainError unless the times are finite and
    the tolerances finite and positive, and IntegrationError with the last
    good time and state if the step size underflows.
    """
    y = np.asarray(state0, dtype=float).copy()
    rep = np.asarray([] if report_times is None else report_times, dtype=float)
    if not (math.isfinite(t0) and math.isfinite(t1) and np.isfinite(rep).all()):
        raise DomainError("times must be finite")
    if not t1 > t0:
        raise DomainError("t1 must exceed t0")
    if np.any(y < 0):
        raise DomainError("initial state must be nonnegative")
    if not (0 < rel_tol < math.inf and (abs_tol is None or 0 < abs_tol < math.inf)):
        raise DomainError("tolerances must be finite and positive")
    if abs_tol is None:
        abs_tol = 1e-8 * max(1.0, float(np.abs(y).sum()))
    if np.any(rep < t0) or np.any(rep > t1):
        raise DomainError("report times must lie within [t0, t1]")
    checkpoints = sorted(set(rep.tolist()) | {float(t1)})

    t = float(t0)
    # one stage buffer for every step; row 0 holds f(t, y), from the last
    # stage of the step before (FSAL) unless that step clamped
    k = np.empty((7, y.size))
    k0, k6 = k[0], k[6]
    rhs(t, y, k0)
    if not np.all(np.isfinite(k0)):
        raise DomainError("rhs not finite at the initial state")
    n_evals = 1
    # each stage's node, its row of A, the rows before it, and its own row
    stages = [(float(_C[i]), _A[i], k[:i], k[i]) for i in range(1, 7)]
    # each trial stage's state, the last one the fifth-order solution; it
    # trades places with y when a step is accepted
    y_new = np.empty_like(y)
    dy = np.empty_like(y)       # a stage's increment, then the scaled error
    scale = np.empty_like(y)
    # h and the tolerances as 0-d arrays, which a ufunc takes without the
    # conversion it makes of a Python float at every call
    h_now = np.empty(())
    rel, atol = np.array(rel_tol, dtype=float), np.array(abs_tol, dtype=float)

    times = [t]
    states = [y.copy()]
    h = (t1 - t0) / 1000.0
    err_prev = 1.0
    accepted = rejected = 0
    next_cp = 0
    fsal_valid = True
    # a step ending this close short of a checkpoint is stretched onto it,
    # and checkpoints this close together count as one
    merge = 1e-14 * (t1 - t0)

    for _ in range(_MAX_STEPS):
        if t >= t1:
            break
        while next_cp < len(checkpoints) and checkpoints[next_cp] <= t + merge:
            next_cp += 1
        target = checkpoints[next_cp] if next_cp < len(checkpoints) else t1
        h = max(h, _H_MIN)
        lands = h >= target - t - merge
        if lands:
            h = target - t

        if not fsal_valid:
            rhs(t, y, k0)
            n_evals += 1
            fsal_valid = True

        h_now[()] = h
        try:
            for c, a, k_prev, k_i in stages:
                np.dot(a, k_prev, out=dy)
                dy *= h_now
                np.add(y, dy, out=y_new)            # y + h * (a . k)
                n_evals += 1
                rhs(t + c * h, y_new, k_i)
        except DomainError:
            # a trial stage left the model's domain (e.g. a nonpositive
            # population): reject the step and halve it, as for a deep dip
            halve, step_accepted = True, False
        else:
            # y_new is the last stage's state, the fifth-order solution;
            # scale = abs_tol + rel_tol * max(y, |y_new|) (y >= 0) and
            # dy = h * (E . k) / scale, the error in units of the tolerance
            np.abs(y_new, out=scale)
            np.maximum(y, scale, out=scale)
            scale *= rel
            scale += atol
            np.dot(_E, k, out=dy)
            dy *= h_now
            dy /= scale
            np.multiply(dy, dy, out=dy)
            err = math.sqrt(np.add.reduce(dy) / dy.size)
            y_min = np.minimum.reduce(y_new)
            halve = bool(y_min <= -abs_tol)
            step_accepted = err <= 1.0 and not halve
        if step_accepted:
            t = target if lands else t + h
            if y_min < 0.0:
                np.maximum(y_new, 0.0, out=y_new)   # clamp the shallow dip
                fsal_valid = False
            else:
                k0[...] = k6
            y, y_new = y_new, y
            if lands or report_times is None:
                times.append(t)
                states.append(y.copy())
            accepted += 1
            fac = _SAFETY * err ** -0.14 * err_prev ** 0.08 if err > 0 else _FAC_MAX
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            fac = 0.5 if halve else _SAFETY * err ** -0.2
        h *= min(max(fac, _FAC_MIN), _FAC_MAX)
        if h < _H_MIN and not step_accepted:
            raise IntegrationError("step size underflow", t, y)
    else:
        raise IntegrationError("step budget exhausted", t, y)

    return Trajectory(times=np.asarray(times), states=np.asarray(states),
                      stats={"accepted": accepted, "rejected": rejected,
                             "rhs_evals": n_evals})


def steady_state_by_integration(params: Parameters,
                                state0,
                                horizon: float = 500.0,
                                *,
                                n_ref: Optional[float] = None):
    """Integrate the full model until the scaled derivative norm settles, or
    give up at the horizon.

    Returns (state, converged). The settle criterion is
    ||rhs(y)||_2 / sum(y) < 1e-9, checked every 50 years. The horizon must
    be finite and positive.
    """
    if not 0.0 < horizon < math.inf:
        raise DomainError("horizon must be finite and positive")

    def rhs(t, y, out):
        full_rhs(y, params, n_ref, out=out)

    y = np.asarray(state0, dtype=float).copy()
    # keep integration noise well below the settle target, else the
    # derivative norm floors out above it and never settles
    abs_tol = 0.01 * _SETTLE_TOL * max(1.0, float(np.abs(y).sum()))

    def settled(y):
        n = float(y.sum())
        if n <= 0:
            return False
        norm = float(np.linalg.norm(full_rhs(y, params, n_ref)))
        return norm / n < _SETTLE_TOL

    if settled(y):
        return y, True
    t = 0.0
    while t < horizon:
        step = min(_CHUNK, horizon - t)
        y = integrate(rhs, y, t, t + step, abs_tol=abs_tol).final
        t += step
        if settled(y):
            return y, True
    return y, False
