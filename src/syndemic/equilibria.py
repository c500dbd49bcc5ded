"""Equilibria of the full model and its two single-disease submodels.

The disease-free state is closed form, and so is the TB-free state under a
caller-supplied reference population. The numeric solves (TB-free, HIV-free
and fully endemic) share one path on the two infection pressures lambda,
the force-of-infection reduction (Diekmann, Heesterbeek & Britton 2013). At
fixed lambda the model is linear, f = b + M(lambda) y (``flow_matrices``),
and M(lambda) = A + lambdaT CT + lambdaH CH is an M-matrix, so y(lambda) =
-M(lambda)^-1 b >= 0 for every lambda >= 0, as van den Driessche & Watmough
(2002) use for V. An equilibrium is a root of g(lambda) = W y(lambda) / N -
lambda, found by Newton's method with the exact dy/dlambda_k = -M^-1 C_k y.
Each step makes one LAPACK call, the inverse M^-1: the row block
(W; 1) M^-1 gives W y, N and their derivatives, and the 1 x 1 or 2 x 2
Newton system is solved in floats. The sub-models are the axes
lambdaH = 0 (HIV-free) and lambdaT = 0 (TB-free). An optional n_ref pins
the incidence denominator, as the benchmark tables were generated; None
gives the self-consistent convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .model import (_HIV_SUB_INDICES, _TB_SUB_INDICES, DomainError,
                    HIV_INFECTED_INDICES, Parameters, TB_INFECTED_INDICES,
                    flow_matrices, full_jacobian, full_rhs, total_population)
from .reproduction import ReproductionNumbers, r0, r1_closed, r2_closed
from .stability import TOL_EIG, ConvergenceError, _hiv_threshold_terms

# An infected group is present above this total, in persons, far below one.
_PRESENT_EPS = 1e-2
# Newton steps, as fractions of the pressure bound: one of at most _STEP_TOL
# ends the solve, and a pressure that close to 0 is 0; below _STALL_TOL, a
# step no smaller than the one before it has reached roundoff and ends it.
_STEP_TOL = 1e-13
_STALL_TOL = 1e-7
_MAX_ITERATIONS = 100
_KINDS = {(False, False): "disease-free", (False, True): "tb-free",
          (True, False): "hiv-free", (True, True): "syndemic"}   # (TB, HIV)
# The compartments people reach from the susceptibles when the listed
# pressures are positive and the others 0; y(lambda) is 0 elsewhere.
_SUPPORT = {(0, 1): np.arange(10), (0,): _TB_SUB_INDICES,
            (1,): _HIV_SUB_INDICES, (): np.array([0])}


@dataclass
class EquilibriumReport:
    kind: str                     # disease-free | hiv-free | tb-free | syndemic
    state: np.ndarray             # full 10-state, persons
    residual: float               # ||rhs|| / N, 1/year
    repro: ReproductionNumbers
    exists: bool
    # numeric solves only: iterations (Newton steps), locally_stable
    stats: dict = field(default_factory=dict)


def residual(state, params: Parameters,
             n_ref: Optional[float] = None) -> float:
    """Scaled stationarity defect ||full_rhs(state)||_2 / N."""
    y = np.asarray(state, dtype=float)
    n = total_population(y)
    if n <= 0:
        raise DomainError("population must be positive")
    return float(np.linalg.norm(full_rhs(y, params, n_ref))) / n


def _pressure_bound(params: Parameters, n_ref: Optional[float]) -> np.ndarray:
    # Neither pressure can exceed its largest weight, times (Lambda/mu) / n_ref
    # when pinned: at an equilibrium N <= Lambda/mu.
    weights = flow_matrices(params).weights
    scale = 1.0 if n_ref is None else params.Lambda / params.mu / n_ref
    return weights.max(axis=1) * scale


def _newton(params: Parameters, n_ref: Optional[float], start,
            free: Tuple[int, ...], bound: np.ndarray
            ) -> Tuple[np.ndarray, tuple, int]:
    """Root of g over the pressures in free, the others held at 0, by
    Newton's method from start: (lambda, (M, -b, idx), steps), where M(lambda)
    and -b are restricted to the compartments idx that the pressures reach,
    so that y(lambda) is the solution of M y = -b there and 0 elsewhere.
    Each step inverts M once."""
    b, maps, weights, _ = flow_matrices(params)
    idx, ks = _SUPPORT[free], list(free)
    sub = maps[:, idx[:, None], idx]
    n_idx, nk = len(idx), len(ks)
    pairs, neg_c, rhs = sub[1:].reshape(2, -1), -sub[1:][ks], -b[idx]
    rows = np.vstack([weights[ks][:, idx], np.ones(n_idx)])   # (W; 1)
    lam = [float(start[k]) if k in ks else 0.0 for k in (0, 1)]
    scale = [float(bound[k]) for k in ks]
    done, last = not free, math.inf
    for steps in range(_MAX_ITERATIONS + 1):
        m = sub[0] + (np.array(lam) @ pairs).reshape(n_idx, n_idx)
        if done:
            return np.array(lam), (m, rhs, idx), steps
        try:
            minv = np.linalg.inv(m)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular matrix in the pressure Newton "
                                   "step", last_iterate=np.array(lam)) from exc
        r = rows @ minv
        # R = (W; 1) M^-1: (W y, N) = R (-b), and column k of their
        # derivatives is -R C_k y
        wy = (r @ rhs).tolist()
        dwy = (r @ (neg_c @ (minv @ rhs)).T).tolist()
        n = wy[nk] if n_ref is None else n_ref
        q = [wy[i] / n for i in range(nk)]
        # g'(lambda) = dq/dlambda - I, with N's own derivative when
        # self-consistent
        dn = dwy[nk] if n_ref is None else [0.0] * nk
        jac = [[(dwy[i][k] - q[i] * dn[k]) / n - (i == k) for k in range(nk)]
               for i in range(nk)]
        step = _newton_step(jac, [q[i] - lam[k] for i, k in enumerate(ks)])
        if not all(map(math.isfinite, step)):
            raise ConvergenceError("non-finite pressure Newton step",
                                   last_iterate=np.array(lam))
        size = 0.0
        for k, s, bk in zip(ks, step, scale):
            lam[k] += s
            size = max(size, abs(s) / bk)
        done = size <= _STEP_TOL or _STALL_TOL >= last <= size
        last = size
    raise ConvergenceError("pressure Newton iteration cap reached",
                           last_iterate=np.array(lam))


def _newton_step(jac, g):
    """The step solving jac @ step = -g, for a 1 x 1 or 2 x 2 jac of
    floats: by division, or by Cramer's rule; a singular jac gives a
    non-finite step."""
    if len(g) == 1:
        (a,), = jac
        return [-g[0] / a if a else math.inf]
    (a, b), (c, d) = jac
    det = a * d - b * c
    if not det:
        return [math.inf, math.inf]
    return [(b * g[1] - d * g[0]) / det, (c * g[0] - a * g[1]) / det]


def _check_nonnegative(lam, free, bound) -> None:
    if any(lam[k] < -_STEP_TOL * bound[k] for k in free):
        raise ConvergenceError("pressure Newton reached a root with a "
                               "negative pressure", last_iterate=lam)


def _solve(params: Parameters, n_ref: Optional[float],
           free: Tuple[int, ...]) -> Tuple[np.ndarray, dict]:
    # Newton from the pressure bound, above every root: from the census
    # seed's pressures it can leave the orthant and settle on an unstable
    # boundary root. It only approaches a root on a face of the orthant, so
    # a pressure within _STEP_TOL of the bound of 0 is set to 0 and the
    # solve finishes on the other axis, where that group is exactly 0. A
    # root with a pressure below that band is no equilibrium: an error.
    # The state y(lambda) is solved once, at the root of the last pass.
    idx, bound = _SUPPORT[free], _pressure_bound(params, n_ref)
    free = tuple(k for k in free if bound[k] > 0.0)   # no weight: always 0
    lam, root, steps = _newton(params, n_ref, bound, free, bound)
    _check_nonnegative(lam, free, bound)
    face = tuple(k for k in free if lam[k] > _STEP_TOL * bound[k])
    if face != free:
        lam, root, more = _newton(params, n_ref, lam, face, bound)
        _check_nonnegative(lam, face, bound)
        steps += more
    m, rhs, support = root
    try:
        state = _embed(np.linalg.solve(m, rhs), support)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular matrix in the pressure Newton step",
                               last_iterate=lam) from exc
    j = full_jacobian(state, params, n_ref)[np.ix_(idx, idx)]
    return state, {"iterations": steps, "locally_stable": bool(
        np.linalg.eigvals(j).real.max() < -TOL_EIG)}


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
    _, d4 = _hiv_threshold_terms(p)
    i_h = (r2 - 1.0) * p.mu * nH * d4 / (p.beta2 * (d4 + p.eta * p.rho1))
    return TbFreeClosedForm(s=p.Lambda / (p.mu * r2), i_h=i_h,
                            a=p.rho1 / d4 * i_h, exists=True)


def _embed(values: np.ndarray, indices) -> np.ndarray:
    state = np.zeros(10)
    state[np.asarray(indices)] = values
    return state


def _submodel_equilibrium(params: Parameters, n_ref: Optional[float],
                          free: Tuple[int, ...], threshold
                          ) -> EquilibriumReport:
    state, stats = _embed(params.Lambda / params.mu, [0]), {}
    if threshold(params, n_ref) > 1.0:
        state, stats = _solve(params, n_ref, free)
    kind = _classify_kind(state)
    return EquilibriumReport(kind=kind, state=state,
                             residual=residual(state, params, n_ref),
                             repro=r0(params, n_ref),
                             exists=kind != "disease-free", stats=stats)


def tb_free_numeric(params: Parameters,
                    n_ref: Optional[float] = None) -> EquilibriumReport:
    """HIV/AIDS-only equilibrium of the (S, I_H, A) submodel, embedded into
    a full 10-state with zeros elsewhere: the root of the pressure map on
    its lambdaT = 0 axis. Subthreshold transmission (R2 <= 1) returns the
    disease-free state without iterating.
    """
    return _submodel_equilibrium(params, n_ref, (1,), r2_closed)


def hiv_free(params: Parameters,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """TB-only equilibrium of the 4-compartment submodel, on the
    lambdaH = 0 axis; as tb_free_numeric, gated on the TB reproduction
    number."""
    return _submodel_equilibrium(params, n_ref, (0,), r1_closed)


def _classify_kind(state: np.ndarray) -> str:
    tb, hiv = (float(state[list(group)].sum()) > _PRESENT_EPS
               for group in (TB_INFECTED_INDICES, HIV_INFECTED_INDICES))
    return _KINDS[tb, hiv]


def syndemic(params: Parameters, seed,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """Full 10-compartment equilibrium: the root of the pressure map that
    Newton's method reaches from the pressure bound. The seed, a census,
    must have ten components and a finite, positive total; the root does
    not depend on it.

    A root where an infected group totals at most _PRESENT_EPS persons is
    reported with the boundary kind, not as syndemic, and exists is true
    only for a syndemic root.
    """
    if np.shape(seed) != (10,):
        raise DomainError("seed must have 10 components")
    if not 0.0 < total_population(seed) < math.inf:
        raise DomainError("seed population must be finite and positive")
    state, stats = _solve(params, n_ref, (0, 1))
    kind = _classify_kind(state)
    return EquilibriumReport(kind=kind, state=state,
                             residual=residual(state, params, n_ref),
                             repro=r0(params, n_ref), exists=kind == "syndemic",
                             stats=stats)
