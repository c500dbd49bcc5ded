"""Adaptive time integration and trajectory invariant monitoring.

The integrator is an embedded Dormand-Prince 4(5) pair with PI step-size
control and first-same-as-last reuse. It is deliberately dependency-free;
the test suite cross-checks it against an independent reference integrator.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

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


class IntegrationError(RuntimeError):
    """Integration failed; carries the last good time and state."""

    def __init__(self, message: str, time: float, state: np.ndarray):
        super().__init__(message)
        self.time = time
        self.state = state


@dataclass
class Trajectory:
    """Accepted integration steps: times, states, and solver statistics."""

    times: np.ndarray
    states: np.ndarray
    params: Optional[Parameters] = None
    stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def at(self, t: float) -> np.ndarray:
        """State stored at time t (exact step match, no interpolation)."""
        span = max(abs(self.times[-1] - self.times[0]), 1.0)
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * span:
            raise KeyError(f"no stored step at t = {t}")
        return self.states[i]


@dataclass
class InvariantViolation:
    time: float
    kind: str                     # "negativity" or "bound-exceeded"
    component: Optional[int]
    magnitude: float


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              state0,
              t0: float,
              t1: float,
              rel_tol: float = 1e-8,
              abs_tol: Optional[float] = None,
              report_times: Optional[Sequence[float]] = None,
              params: Optional[Parameters] = None,
              max_steps: int = 2_000_000) -> Trajectory:
    """Integrate y' = rhs(t, y) from t0 to t1 adaptively.

    Every accepted step is stored. When report_times are given the step size
    is capped so each one is landed on exactly. A component that dips into
    (-abs_tol, 0) after a step is clamped to zero; a dip at or below -abs_tol
    rejects the step outright (a drop that large is solver failure, not
    roundoff), and so does a trial stage at which rhs raises DomainError.
    Raises IntegrationError with the last good time and state if the step
    size underflows.
    """
    y = np.asarray(state0, dtype=float).copy()
    if not t1 > t0:
        raise DomainError("t1 must exceed t0")
    if np.any(y < 0):
        raise DomainError("initial state must be nonnegative")
    if rel_tol <= 0 or (abs_tol is not None and abs_tol <= 0):
        raise DomainError("tolerances must be positive")
    if abs_tol is None:
        abs_tol = 1e-8 * max(1.0, float(np.abs(y).sum()))

    checkpoints = [float(t1)]
    if report_times is not None:
        rep = np.asarray(report_times, dtype=float)
        if np.any(rep < t0) or np.any(rep > t1):
            raise DomainError("report times must lie within [t0, t1]")
        checkpoints = sorted(set(float(t) for t in rep) | {float(t1)})

    t = float(t0)
    f = np.asarray(rhs(t, y), dtype=float)
    if not np.all(np.isfinite(f)):
        raise DomainError("rhs not finite at the initial state")
    n_evals = 1

    times = [t]
    states = [y.copy()]
    h = (t1 - t0) / 1000.0
    err_prev = 1.0
    accepted = rejected = 0
    next_cp = 0
    fsal_valid = True

    for _ in range(max_steps):
        if t >= t1:
            break
        while next_cp < len(checkpoints) and checkpoints[next_cp] <= t + 1e-14 * (t1 - t0):
            next_cp += 1
        target = checkpoints[next_cp] if next_cp < len(checkpoints) else t1
        h = min(max(h, _H_MIN), t1 - t0, target - t)

        if not fsal_valid:
            f = np.asarray(rhs(t, y), dtype=float)
            n_evals += 1
            fsal_valid = True

        k = [f]
        try:
            for i in range(1, 7):
                yi = y + h * sum(_A[i][j] * k[j] for j in range(i))
                n_evals += 1
                k.append(np.asarray(rhs(t + _C[i] * h, yi), dtype=float))
        except DomainError:
            # a trial stage left the model's domain (e.g. a nonpositive
            # population): reject the step and halve it, as for a deep dip
            halve, step_accepted = True, False
        else:
            y_new = y + h * sum(_B5[j] * k[j] for j in range(7))
            err_vec = h * sum(_E[j] * k[j] for j in range(7))
            scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
            halve = bool(np.any(y_new <= -abs_tol))
            step_accepted = err <= 1.0 and not halve
        if step_accepted:
            t += h
            clamped = (y_new < 0.0)
            if clamped.any():
                y_new = y_new.copy()
                y_new[clamped] = 0.0
            y = y_new
            f = k[6]               # FSAL
            fsal_valid = not clamped.any()
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
                      params=params,
                      stats={"accepted": accepted, "rejected": rejected,
                             "rhs_evals": n_evals})


def invariant_monitor(traj: Trajectory, params: Parameters,
                      tol: Optional[float] = None) -> List[InvariantViolation]:
    """Scan a trajectory for feasibility violations.

    Flags any component below -tol and any total population above
    max(N(0), Lambda/mu) + tol. The bound uses the larger of the two because
    the total only decays toward Lambda/mu when it starts above it.
    """
    n0 = float(traj.states[0].sum())
    if tol is None:
        tol = 1e-6 * max(1.0, n0)
    bound = max(n0, params.Lambda / params.mu)
    out: List[InvariantViolation] = []
    for t, y in zip(traj.times, traj.states):
        for i in np.where(y < -tol)[0]:
            out.append(InvariantViolation(float(t), "negativity", int(i),
                                          float(abs(y[i]))))
        n = float(y.sum())
        if n > bound + tol:
            out.append(InvariantViolation(float(t), "bound-exceeded", None,
                                          float(n - bound)))
    return out


def steady_state_by_integration(params: Parameters,
                                state0,
                                horizon: float = 500.0,
                                settle_tol: float = 1e-9,
                                *,
                                n_ref: Optional[float] = None,
                                rhs: Optional[Callable] = None,
                                chunk: float = 50.0,
                                rel_tol: float = 1e-8,
                                abs_tol: Optional[float] = None):
    """Integrate until the scaled derivative norm settles, or give up.

    Returns (state, converged). The settle criterion is
    ||rhs(y)||_2 / sum(y) < settle_tol, checked every ``chunk`` years. By
    default the full model right-hand side is used; pass ``rhs`` to seed
    sub-model solves.
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    if rhs is None:
        def rhs(t, y, _p=params, _n=n_ref):
            return full_rhs(y, _p, _n)
    y = np.asarray(state0, dtype=float).copy()
    if abs_tol is None:
        # keep integration noise well below the settle target, else the
        # derivative norm floors out above it and never settles
        abs_tol = 0.01 * settle_tol * max(1.0, float(np.abs(y).sum()))

    def settled(y):
        n = float(y.sum())
        if n <= 0:
            return False
        return float(np.linalg.norm(rhs(0.0, y))) / n < settle_tol

    if settled(y):
        return y, True
    t = 0.0
    while t < horizon:
        step = min(chunk, horizon - t)
        traj = integrate(rhs, y, t, t + step, rel_tol=rel_tol, abs_tol=abs_tol)
        y = traj.final
        t += step
        if settled(y):
            return y, True
    return y, False
