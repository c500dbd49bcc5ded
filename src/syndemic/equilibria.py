"""Equilibria of the full model and its two single-disease submodels.

The disease-free state is closed form, and so is the TB-free state under a
caller-supplied reference population. The numeric solves (TB-free, HIV-free
and fully endemic) share one path: pseudo-transient continuation on the
closed-form Jacobian, backward-Euler steps along the flow whose size grows
until they are Newton steps. Every solver takes an optional n_ref
pinning the incidence denominator; the benchmark tables were generated under
pinned denominators, while None gives the self-consistent convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .model import (_HIV_SUB_INDICES, _TB_SUB_INDICES, _linearise,
                    DomainError, HIV_INFECTED_INDICES, Parameters,
                    TB_INFECTED_INDICES, full_rhs, total_population)
from .reproduction import ReproductionNumbers, r0, r1_closed, r2_closed
from .stability import TOL_EIG, ConvergenceError

# An infected group is present above this total, in persons: far above what a
# residual of ||f|| <= 1e-10 N can leave in an absent group, far below one.
_PRESENT_EPS = 1e-2
# Pseudo-transient continuation; the tolerances are relative to N(seed).
_DT0 = 1.0               # years, the first pseudo-time step
_DT_GROWTH = 1.3         # least growth of the pseudo-time step per accepted one
_NEWTON_TOL = 1e-10      # ||f|| at which the steps become full Newton steps
_STEP_TOL = 1e-13        # max |dx| of the Newton step that ends the solve
_DIP_TOL = 1e-8          # deepest dip below 0 that is clamped, not rejected
_MAX_ITERATIONS = 500    # accepted plus rejected steps
_KINDS = {(False, False): "disease-free", (False, True): "tb-free",
          (True, False): "hiv-free", (True, True): "syndemic"}   # (TB, HIV)


@dataclass
class EquilibriumReport:
    kind: str                     # disease-free | hiv-free | tb-free | syndemic
    state: np.ndarray             # full 10-state, persons
    residual: float               # ||rhs|| / N, 1/year
    repro: ReproductionNumbers
    exists: bool
    # numeric solves only: steps, rejected, jacobian_builds, locally_stable
    stats: dict = field(default_factory=dict)


def residual(state, params: Parameters,
             n_ref: Optional[float] = None) -> float:
    """Scaled stationarity defect ||full_rhs(state)||_2 / N."""
    y = np.asarray(state, dtype=float)
    n = total_population(y)
    if n <= 0:
        raise DomainError("population must be positive")
    return float(np.linalg.norm(full_rhs(y, params, n_ref))) / n


def _ptc(fun_jac: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
         seed) -> Tuple[np.ndarray, dict]:
    """Root of f reached from seed by pseudo-transient continuation, and the
    solve's stats; fun_jac(x) returns (f(x), J(x)) from one evaluation.

    Each step is backward Euler on x' = f(x) with one Jacobian,
    (I/dt - J) dx = f(x), so the iterate follows the flow towards the
    attractor the seed lies in. After an accepted step dt grows by
    ||f_old|| / ||f_new||, at least by _DT_GROWTH; a trial that leaves the
    domain or dips below -_DIP_TOL N is rejected and retried at dt / 4, and
    smaller dips are clamped to 0. Once ||f|| <= _NEWTON_TOL N the steps
    are full Newton steps (1/dt = 0), until one is at most _STEP_TOL N: a
    residual test alone stops far from the root where J is nearly singular.
    The J of each accepted trial is the next step's. That last step's trial
    is the root, with components below 1e-12 zeroed before it is evaluated.
    The root is returned whether or not it passes the local-stability test
    (every eigenvalue of J(root) below -TOL_EIG in real part); stats records
    the outcome and counts every Jacobian built.
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


def disease_free(params: Parameters) -> EquilibriumReport:
    """The no-disease fixed point: everyone susceptible at Lambda/mu."""
    state = _embed(params.Lambda / params.mu, [0])
    return EquilibriumReport(kind="disease-free", state=state,
                             residual=residual(state, params),
                             repro=r0(params), exists=True)


class TbFreeClosedForm(NamedTuple):
    s: float
    i_h: float
    a: float
    exists: bool


def tb_free_closed(params: Parameters, nH: float) -> TbFreeClosedForm:
    """Closed-form HIV/AIDS equilibrium with the denominator pinned at nH.

    Requires the HIV reproduction number (at nH) above 1; otherwise the
    infected components are 0 and the existence flag is false.
    """
    if nH <= 0:
        raise DomainError("nH must be positive")
    p = params
    r2 = r2_closed(p, nH)
    if r2 <= 1.0:
        return TbFreeClosedForm(s=p.Lambda / p.mu, i_h=0.0, a=0.0, exists=False)
    d4 = p.alpha1 + p.mu + p.dA
    i_h = (r2 - 1.0) * p.mu * nH * d4 / (p.beta2 * (d4 + p.eta * p.rho1))
    return TbFreeClosedForm(s=p.Lambda / (p.mu * r2), i_h=i_h,
                            a=p.rho1 / d4 * i_h, exists=True)


def _embed(values: np.ndarray, indices) -> np.ndarray:
    state = np.zeros(10)
    state[np.asarray(indices)] = values
    return state


def _submodel_equilibrium(params: Parameters, n_ref: Optional[float],
                          indices, threshold, seed_fractions
                          ) -> EquilibriumReport:
    # The sub-model is the full model restricted to the compartments in
    # indices with all others zero, as model's sub-model right-hand sides
    # define it: its f and J are slices of the full ones at the padded state.
    s0 = params.Lambda / params.mu
    state, stats = _embed(s0, [0]), {}
    if threshold(params, n_ref) > 1.0:
        cols = np.ix_(indices, indices)

        def fun_jac(y):
            f, j = _linearise(_embed(y, indices), params, n_ref)
            return f[indices], j[cols]

        sol, stats = _ptc(fun_jac, np.asarray(seed_fractions) * s0)
        state = _embed(sol, indices)
    kind = _classify_kind(state)
    return EquilibriumReport(kind=kind, state=state,
                             residual=residual(state, params, n_ref),
                             repro=r0(params, n_ref),
                             exists=kind != "disease-free", stats=stats)


def tb_free_numeric(params: Parameters,
                    n_ref: Optional[float] = None) -> EquilibriumReport:
    """HIV/AIDS-only equilibrium of the (S, I_H, A) submodel, embedded into
    a full 10-state with zeros elsewhere. Subthreshold transmission (R2 <= 1)
    returns the disease-free state without iterating.
    """
    return _submodel_equilibrium(params, n_ref, _HIV_SUB_INDICES, r2_closed,
                                 (0.95, 0.04, 0.01))


def hiv_free(params: Parameters,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """TB-only equilibrium of the 4-compartment submodel; as tb_free_numeric,
    gated on the TB reproduction number."""
    return _submodel_equilibrium(params, n_ref, _TB_SUB_INDICES, r1_closed,
                                 (0.90, 0.07, 0.02, 0.01))


def _classify_kind(state: np.ndarray) -> str:
    tb, hiv = (float(state[list(group)].sum()) > _PRESENT_EPS
               for group in (TB_INFECTED_INDICES, HIV_INFECTED_INDICES))
    return _KINDS[tb, hiv]


def syndemic(params: Parameters, seed,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """Full 10-compartment equilibrium by pseudo-transient continuation from
    the seed.

    A root where an infected group totals at most _PRESENT_EPS persons is
    reported with the boundary kind, not as syndemic, and exists is true
    only for a syndemic root.
    """
    if np.shape(seed) != (10,):
        raise DomainError("seed must have 10 components")
    sol, stats = _ptc(lambda y: _linearise(y, params, n_ref), seed)
    kind = _classify_kind(sol)
    return EquilibriumReport(kind=kind, state=sol,
                             residual=residual(sol, params, n_ref),
                             repro=r0(params, n_ref), exists=kind == "syndemic",
                             stats=stats)
