"""Equilibria of the full model and its two single-disease submodels.

All are roots of one map on the two infection pressures lambda, the
force-of-infection reduction (Diekmann, Heesterbeek & Britton 2013). At
fixed lambda the model is linear, f = b + M(lambda) y (``flow_matrices``),
and M(lambda) = A + lambdaT CT + lambdaH CH is an M-matrix, so y(lambda) =
-M(lambda)^-1 b >= 0 for every lambda >= 0, as van den Driessche & Watmough
(2002) use for V. An equilibrium is a root of g(lambda) = W y(lambda) / N -
lambda. On the axes lambdaT = 0 (TB-free) and lambdaH = 0 (HIV-free) the
root is a closed form in that submodel's reproduction number. The fully
endemic root is found by Newton's method with the exact dy/dlambda_k =
-M^-1 C_k y, one LAPACK call per step: the row block (W; 1) M^-1 gives W y,
N and their derivatives, and the 2 x 2 Newton system is solved in floats.
A root that it approaches on a face of the orthant finishes with that
axis's closed form. An optional n_ref pins the incidence denominator, as
the benchmark tables were generated; None gives the self-consistent one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .model import (_HIV_SUB_INDICES, _TB_SUB_INDICES, DomainError,
                    HIV_INFECTED_INDICES, Parameters, TB_INFECTED_INDICES,
                    disease_free_population, flow_matrices, full_rhs,
                    removal_rates, total_population)
from .reproduction import ReproductionNumbers, r0
from .stability import ConvergenceError

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


@dataclass
class EquilibriumReport:
    kind: str                     # disease-free | hiv-free | tb-free | syndemic
    state: np.ndarray             # full 10-state, persons
    residual: float               # ||rhs|| / N, 1/year
    repro: ReproductionNumbers
    exists: bool
    # iterations: Newton steps, 0 on an axis; {} for disease_free
    stats: dict = field(default_factory=dict)


def residual(state, params: Parameters,
             n_ref: Optional[float] = None) -> float:
    """Scaled stationarity defect ||full_rhs(state)||_2 / N."""
    y = np.asarray(state, dtype=float)
    n = total_population(y)
    if n <= 0:
        raise DomainError("population must be positive")
    return float(np.linalg.norm(full_rhs(y, params, n_ref))) / n


def _newton(params: Parameters, n_ref: Optional[float], bound: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray, int]:
    """Root of g over both pressures, by Newton's method from the pressure
    bound: (lambda, M(lambda), steps), so that y(lambda) is the solution of
    M y = -b. Each step inverts M once."""
    b, maps, weights, _ = flow_matrices(params)
    pairs, neg_c, rhs = maps[1:].reshape(2, -1), -maps[1:], -b
    rows = np.vstack([weights, np.ones(10)])     # (W; 1)
    lam, scale, done, last = bound.tolist(), bound.tolist(), False, math.inf
    for steps in range(_MAX_ITERATIONS + 1):
        m = maps[0] + (np.array(lam) @ pairs).reshape(10, 10)
        if done:
            return np.array(lam), m, steps
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
        n = wy[2] if n_ref is None else n_ref
        q = [wy[0] / n, wy[1] / n]
        # g'(lambda) = dq/dlambda - I, with N's own derivative when
        # self-consistent
        dn = dwy[2] if n_ref is None else [0.0, 0.0]
        jac = [[(dwy[i][k] - q[i] * dn[k]) / n - (i == k) for k in (0, 1)]
               for i in (0, 1)]
        step = _newton_step(jac, [q[0] - lam[0], q[1] - lam[1]])
        if not all(map(math.isfinite, step)):
            raise ConvergenceError("non-finite pressure Newton step",
                                   last_iterate=np.array(lam))
        lam = [x + s for x, s in zip(lam, step)]
        size = max(abs(s) / bk for s, bk in zip(step, scale))
        done = size <= _STEP_TOL or _STALL_TOL >= last <= size
        last = size
    raise ConvergenceError("pressure Newton iteration cap reached",
                           last_iterate=np.array(lam))


def _newton_step(jac, g):
    """The step solving jac @ step = -g, for a 2 x 2 jac of floats, by
    Cramer's rule; a singular jac gives a non-finite step."""
    (a, b), (c, d) = jac
    det = a * d - b * c
    return ([(b * g[1] - d * g[0]) / det, (c * g[0] - a * g[1]) / det]
            if det else [math.inf, math.inf])


def _embed(values, indices) -> np.ndarray:
    state = np.zeros(10)
    state[np.asarray(indices)] = values
    return state


def _tb_axis(p: Parameters, n_ref: Optional[float], r1: float) -> np.ndarray:
    """The HIV-free state (lambdaH = 0), for R1 > 1. At a TB pressure lambda
    the balances give S, L_T = lambda S (q lambda + mu)/D(lambda) with
    q = beta1p and D = q h lambda + d1 mu, I_T and R_T; lambda = beta1 I_T/N
    (N = (Lambda - dT I_T)/mu self-consistent) is then a lambda^2 + b lambda
    + c = 0 with c = d1 mu^2 (1 - R1) < 0 <= a. Its one positive root, taken
    without cancellation, is -c/b when q = 0; hypot squares nothing."""
    mu, q, k1 = p.mu, p.beta1p, p.k1
    d1, d2 = removal_rates(p)[:2]
    h = mu + k1 * (p.dT + mu) / d2           # d1 - tau1 - tau2 k1/d2
    if n_ref is None:
        a, b0 = q * (mu + k1 * mu / d2), p.tau1 + mu + k1 * (p.tau2 + mu) / d2
    else:
        a, b0 = q * h, d1
    b = mu * (q * h + b0 - q * d1 * r1)
    c = d1 * mu * mu * (1.0 - r1)
    disc = math.hypot(b, 2.0 * math.sqrt(a) * math.sqrt(-c))
    lam = -2.0 * c / (b + disc) if b > 0.0 else (disc - b) / (2.0 * a)
    s = p.Lambda / (lam + mu)
    lt = lam * s * ((q * lam + mu) / (q * h * lam + d1 * mu))
    it = k1 * lt / d2
    rt = (p.tau1 * lt + p.tau2 * it) / (q * lam + mu)
    return _embed([s, lt, it, rt], _TB_SUB_INDICES)


def _hiv_axis(p: Parameters, n_ref: Optional[float], r2: float) -> np.ndarray:
    """The TB-free state (lambdaT = 0), for R2 > 1: S = Lambda/(lambda + mu),
    I_H = lambda S/c (c = numer/d4) and A = (rho1/d4) I_H, at lambda =
    mu (R2 - 1) pinned or c (R2 - 1)/(1 + rho1/d4) self-consistent."""
    rates = removal_rates(p)
    d4 = rates.d4
    c = rates.numer / d4
    lam = (c * (r2 - 1.0) / (1.0 + p.rho1 / d4) if n_ref is None
           else p.mu * (r2 - 1.0))
    s = p.Lambda / (lam + p.mu)
    i_h = lam * s / c
    return _embed([s, i_h, p.rho1 / d4 * i_h], _HIV_SUB_INDICES)


# by pressure k, the only positive one: its closed form
_AXES = (_tb_axis, _hiv_axis)


def _axis_state(params: Parameters, n_ref: Optional[float], k: int,
                r: float) -> np.ndarray:
    """The state where only pressure k (0: TB, 1: HIV) can be positive: the
    closed form when its reproduction number r exceeds 1, else disease-free."""
    if r > 1.0:
        return _AXES[k](params, n_ref, r)
    return _embed(disease_free_population(params), [0])


def _solve(params: Parameters, n_ref: Optional[float],
           repro: ReproductionNumbers) -> Tuple[np.ndarray, int]:
    # Newton from the pressure bound, above every root: from the census
    # seed's pressures it can leave the orthant and settle on an unstable
    # boundary root. It only approaches a root on a face of the orthant, so
    # a pressure within _STEP_TOL of the bound of 0 is 0, and the state is
    # that axis's closed form, where the other group is exactly 0. A root
    # with a pressure below that band is no equilibrium: an error. A
    # pressure with no weight is always 0, and then no Newton step is made.
    # Neither pressure can exceed its largest weight, times (Lambda/mu) / n_ref
    # when pinned: at an equilibrium N <= Lambda/mu.
    scale = 1.0 if n_ref is None else disease_free_population(params) / n_ref
    bound = flow_matrices(params).weights.max(axis=1) * scale
    lam, steps = bound, 0
    if bound.all():
        lam, m, steps = _newton(params, n_ref, bound)
        if (lam < -_STEP_TOL * bound).any():
            raise ConvergenceError("pressure Newton reached a root with a "
                                   "negative pressure", last_iterate=lam)
    face = lam > _STEP_TOL * bound
    if face.all():
        try:
            state = np.linalg.solve(m, -flow_matrices(params).b)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular matrix in the pressure Newton "
                                   "step", last_iterate=lam) from exc
    elif face.any():
        k = int(face.argmax())
        state = _axis_state(params, n_ref, k, repro[k])
    else:
        state = _embed(disease_free_population(params), [0])
    return state, steps


def disease_free(params: Parameters) -> EquilibriumReport:
    """The no-disease fixed point: everyone susceptible at Lambda/mu."""
    state = _embed(disease_free_population(params), [0])
    return EquilibriumReport(kind="disease-free", state=state,
                             residual=residual(state, params),
                             repro=r0(params), exists=True)


def _submodel_equilibrium(params: Parameters, n_ref: Optional[float],
                          k: int) -> EquilibriumReport:
    repro = r0(params, n_ref)
    state = _axis_state(params, n_ref, k, repro[k])
    return _report(state, 0, params, n_ref, repro, ("hiv-free", "tb-free"))


def _report(state, steps: int, params: Parameters, n_ref: Optional[float],
            repro: ReproductionNumbers, existing) -> EquilibriumReport:
    # kind names the infected groups present; exists holds for existing kinds
    tb, hiv = (float(state[list(group)].sum()) > _PRESENT_EPS
               for group in (TB_INFECTED_INDICES, HIV_INFECTED_INDICES))
    kind = _KINDS[tb, hiv]
    return EquilibriumReport(kind=kind, state=state,
                             residual=residual(state, params, n_ref),
                             repro=repro, exists=kind in existing,
                             stats={"iterations": steps})


def tb_free_numeric(params: Parameters,
                    n_ref: Optional[float] = None) -> EquilibriumReport:
    """HIV/AIDS-only equilibrium of the (S, I_H, A) submodel, embedded into
    a full 10-state with zeros elsewhere: the closed-form root of the
    pressure map on its lambdaT = 0 axis. Subthreshold transmission
    (R2 <= 1) returns the disease-free state."""
    return _submodel_equilibrium(params, n_ref, 1)


def hiv_free(params: Parameters,
             n_ref: Optional[float] = None) -> EquilibriumReport:
    """TB-only equilibrium of the 4-compartment submodel, on the
    lambdaH = 0 axis; as tb_free_numeric, gated on the TB reproduction
    number."""
    return _submodel_equilibrium(params, n_ref, 0)


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
    repro = r0(params, n_ref)
    return _report(*_solve(params, n_ref, repro), params, n_ref, repro,
                   ("syndemic",))
