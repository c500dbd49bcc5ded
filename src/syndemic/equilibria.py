"""Equilibria of the full model and its two single-disease submodels.

The disease-free state is closed form, and so is the TB-free state under a
caller-supplied reference population. The numeric solves (TB-free, HIV-free
and fully endemic) share one path: short relaxations, each polished by damped
Newton on the closed-form Jacobian. Every solver takes an optional n_ref
pinning the incidence denominator; the benchmark tables were generated under
pinned denominators, while None gives the self-consistent convention.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .dynamics import integrate
from .model import (DomainError, HIV_INFECTED_INDICES, Parameters,
                    TB_INFECTED_INDICES, full_jacobian, full_rhs,
                    total_population)
from .reproduction import ReproductionNumbers, r0, r1_closed, r2_closed
from .stability import DEFAULT_TOL_EIG, ConvergenceError

# An infected group is present above this total, in persons: far above what a
# Newton stop at ||f|| <= 1e-10 N leaves in an absent group, far below one.
_PRESENT_EPS = 1e-2
_RELAX_CHUNKS = (10.0, 20.0, 40.0, 80.0, 160.0, 190.0)   # years, 500 in all
_KINDS = {(False, False): "disease-free", (False, True): "tb-free",
          (True, False): "hiv-free", (True, True): "syndemic"}   # (TB, HIV)


@dataclass
class EquilibriumReport:
    kind: str                     # disease-free | hiv-free | tb-free | syndemic
    state: np.ndarray             # full 10-state, persons
    residual: float               # ||rhs|| / N, 1/year
    repro: ReproductionNumbers
    exists: bool
    converged: bool
    n_ref: Optional[float] = None
    # numeric solves only: years_relaxed, newton_iterations, jacobian_builds,
    # gate_rejected (a root was refused as not locally stable)
    stats: dict = field(default_factory=dict)


def residual(state, params: Parameters,
             n_ref: Optional[float] = None) -> float:
    """Scaled stationarity defect ||full_rhs(state)||_2 / N."""
    y = np.asarray(state, dtype=float)
    n = total_population(y)
    if n <= 0:
        raise DomainError("population must be positive")
    return float(np.linalg.norm(full_rhs(y, params, n_ref))) / n


def _damped_newton(fun: Callable[[np.ndarray], np.ndarray],
                   jac: Callable[[np.ndarray], np.ndarray],
                   x0, tol: float, max_iter: int = 200,
                   max_halvings: int = 20) -> np.ndarray:
    """Newton iteration with step halving on residual increase, until
    ||fun(x)||_2 <= tol; a trial point outside the domain is a failed halving.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = np.asarray(fun(x), dtype=float)
    fnorm = float(np.linalg.norm(f))
    for _ in range(max_iter):
        if fnorm <= tol:
            return x
        try:
            dx = np.linalg.solve(jac(x), -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular jacobian in newton iteration",
                                   last_iterate=x) from exc
        step = 1.0
        for _ in range(max_halvings + 1):
            x_try = x + step * dx
            step *= 0.5
            try:
                f_try = np.asarray(fun(x_try), dtype=float)
            except DomainError:
                continue
            fnorm_try = float(np.linalg.norm(f_try))
            if fnorm_try < fnorm:
                x, f, fnorm = x_try, f_try, fnorm_try
                break
        else:
            raise ConvergenceError("newton step rejected after 20 halvings",
                                   last_iterate=x)
    if fnorm <= tol:
        return x
    raise ConvergenceError("newton iteration cap reached", last_iterate=x)


def _relax_then_newton(fun: Callable[[np.ndarray], np.ndarray],
                       jac: Callable[[np.ndarray], np.ndarray],
                       seed) -> Tuple[np.ndarray, dict]:
    """Root of fun reached from seed, and the solve's stats.

    The seed is integrated in doubling chunks (_RELAX_CHUNKS); after each,
    Newton polishes it to ||fun|| <= 1e-10 N. A root from a short relaxation
    can be an unstable equilibrium (most often the disease-free one), so it
    is accepted only when feasible with every eigenvalue of jac(root) below
    -DEFAULT_TOL_EIG in real part. After the last chunk any feasible root is.
    """
    y = np.asarray(seed, dtype=float).copy()
    abs_tol = 1e-8 * max(1.0, float(np.abs(y).sum()))   # as for a 1e-6 settle
    stats = {"years_relaxed": 0.0, "newton_iterations": 0,
             "jacobian_builds": 0, "gate_rejected": False}

    def newton_jac(x):
        stats["newton_iterations"] += 1
        stats["jacobian_builds"] += 1
        return jac(x)

    def relax(y, span):
        stats["years_relaxed"] += span
        return integrate(lambda t, x: fun(x), y, 0.0, span,
                         abs_tol=abs_tol).final

    def polish(y):
        root = _damped_newton(fun, newton_jac, y, 1e-10 * max(1.0, y.sum()))
        if np.any(root < -1e-6):
            raise ConvergenceError("newton converged to an infeasible state",
                                   last_iterate=root)
        return np.where(np.abs(root) < 1e-12, 0.0, np.maximum(root, 0.0))

    for span in _RELAX_CHUNKS[:-1]:
        y = relax(y, span)
        try:
            root = polish(y)
        except ConvergenceError:
            continue
        stats["jacobian_builds"] += 1
        if np.linalg.eigvals(jac(root)).real.max() < -DEFAULT_TOL_EIG:
            return root, stats
        stats["gate_rejected"] = True
    return polish(relax(y, _RELAX_CHUNKS[-1])), stats


def disease_free(params: Parameters) -> EquilibriumReport:
    """The no-disease fixed point: everyone susceptible at Lambda/mu."""
    state = _embed(params.Lambda / params.mu, [0])
    return EquilibriumReport(kind="disease-free", state=state,
                             residual=residual(state, params),
                             repro=r0(params), exists=True, converged=True)


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
    # The model restricted to the compartments in indices, all others zero;
    # its Jacobian is the matching slice of the full one.
    s0 = params.Lambda / params.mu
    state, stats = _embed(s0, [0]), {}
    if threshold(params, n_ref) > 1.0:
        cols = np.ix_(indices, indices)
        sol, stats = _relax_then_newton(
            lambda y: full_rhs(_embed(y, indices), params, n_ref)[indices],
            lambda y: full_jacobian(_embed(y, indices), params, n_ref)[cols],
            np.asarray(seed_fractions) * s0)
        state = _embed(sol, indices)
    kind = _classify_kind(state)
    return EquilibriumReport(kind=kind, state=state,
                             residual=residual(state, params, n_ref),
                             repro=r0(params, n_ref),
                             exists=kind != "disease-free", converged=True,
                             n_ref=n_ref, stats=stats)


def tb_free_numeric(params: Parameters,
                    n_ref: Optional[float] = None) -> EquilibriumReport:
    """HIV/AIDS-only equilibrium of the (S, I_H, A) submodel, embedded into
    a full 10-state with zeros elsewhere. Subthreshold transmission (R2 <= 1)
    returns the disease-free state without iterating.
    """
    return _submodel_equilibrium(params, n_ref, [0, 4, 5], r2_closed,
                                 (0.95, 0.04, 0.01))


def hiv_free(params: Parameters,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """TB-only equilibrium of the 4-compartment submodel; as tb_free_numeric,
    gated on the TB reproduction number."""
    return _submodel_equilibrium(params, n_ref, [0, 1, 2, 3], r1_closed,
                                 (0.90, 0.07, 0.02, 0.01))


def _classify_kind(state: np.ndarray) -> str:
    tb, hiv = (float(state[list(group)].sum()) > _PRESENT_EPS
               for group in (TB_INFECTED_INDICES, HIV_INFECTED_INDICES))
    return _KINDS[tb, hiv]


def syndemic(params: Parameters, seed,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """Full 10-compartment equilibrium by relax-then-Newton from the seed.

    A root where an infected group totals at most _PRESENT_EPS persons is
    reported with the boundary kind, not as syndemic.
    """
    if np.shape(seed) != (10,):
        raise DomainError("seed must have 10 components")
    sol, stats = _relax_then_newton(lambda y: full_rhs(y, params, n_ref),
                                    lambda y: full_jacobian(y, params, n_ref),
                                    seed)
    return EquilibriumReport(kind=_classify_kind(sol), state=sol,
                             residual=residual(sol, params, n_ref),
                             repro=r0(params, n_ref), exists=True,
                             converged=True, n_ref=n_ref, stats=stats)
