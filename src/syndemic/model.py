"""Compartments, parameters, and right-hand sides of the coupled TB-HIV model.

The state is a 10-vector of population counts in a fixed order (see
COMPARTMENTS): susceptibles, three single-TB classes (latent, active,
recovered), two single-HIV classes (pre-AIDS and AIDS), and four coinfected
classes (latent TB with HIV, active TB with HIV, TB-recovered with HIV, and
AIDS with active TB). Two per-capita infection pressures couple everything:
a TB pressure driven by the active-TB classes and an HIV pressure driven by
the HIV-positive classes, AIDS classes weighted up by a modifier.

The model is written once, as the flow list _FLOWS. flow_matrices turns it
into the matrices that the right-hand side, its Jacobian, the infection
pressures and the next-generation matrices all read. All right-hand sides
are pure functions that take one state or a stack of states and return
fresh arrays; full_rhs can write one state's derivative into a given
array instead.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np

COMPARTMENTS = (
    "susceptible",
    "latent_tb",
    "active_tb",
    "recovered_tb",
    "hiv_only",
    "aids",
    "latent_tb_hiv",
    "active_tb_hiv",
    "recovered_tb_hiv",
    "aids_tb",
)

N_COMPARTMENTS = len(COMPARTMENTS)

# index groups used by equilibrium classification and the sweep reports
INFECTED_INDICES = (1, 2, 4, 5, 6, 7, 8, 9)
TB_INFECTED_INDICES = (1, 2, 6, 7, 9)
HIV_INFECTED_INDICES = (4, 5, 6, 7, 8, 9)


class DomainError(ValueError):
    """An input lies outside the model's domain (bad state or parameters)."""


@dataclass(frozen=True)
class Parameters:
    """Rate constants of the transmission model (all per year unless noted).

    The two effective contact rates beta1 (TB) and beta2 (HIV) have no
    defaults and must be supplied; every other field carries the baseline
    calibration value.
    """

    beta1: float                 # TB effective contact rate
    beta2: float                 # HIV effective contact rate
    Lambda: float = 714.0        # recruitment, people/year
    mu: float = 1.0 / 70.0       # natural mortality
    beta1p: float = 0.9          # reinfection modifier after TB recovery, <= 1
    beta2p: float = 1.1          # TB reinfection modifier when HIV+, >= 1
    k1: float = 1.0              # latent -> active TB progression
    k2: float = 1.3              # latent -> active TB progression when HIV+
    tau1: float = 1.0            # treatment of latent TB
    tau2: float = 2.0            # treatment of active TB
    tau3: float = 2.0            # treatment of active TB when HIV+
    tau4: float = 1.0            # treatment of latent TB when HIV+
    rho1: float = 0.1            # HIV -> AIDS progression
    rho2: float = 0.25           # coinfected -> AIDS-with-TB progression
    rho3: float = 0.125          # TB-recovered HIV+ -> AIDS-with-TB progression
    alpha1: float = 0.33         # AIDS treatment
    alpha2: float = 0.33         # AIDS-with-TB treatment
    psi: float = 1.07            # TB susceptibility modifier when HIV+, >= 1
    delta: float = 1.03          # HIV susceptibility modifier with active TB, >= 1
    eta: float = 1.02            # AIDS relative infectiousness, >= 1
    dT: float = 0.125            # TB-induced death rate
    dA: float = 0.3              # AIDS-induced death rate
    dTA: float = 0.33            # coinfection-induced death rate


PARAMETER_FIELDS = tuple(f.name for f in fields(Parameters))


class ForceOfInfection(NamedTuple):
    """Per-capita infection pressures, 1/year."""

    lambdaT: float
    lambdaH: float


def total_population(state: Sequence[float]) -> float:
    """Sum of all ten compartments."""
    return float(np.asarray(state, dtype=float).sum())


def _as_state(state, length: int = N_COMPARTMENTS,
              stack: bool = False) -> np.ndarray:
    # One state (length,), or with stack=True also a stack (B, length).
    y = np.asarray(state, dtype=float)
    if y.shape != (length,) and not (stack and y.ndim == 2
                                     and y.shape[1] == length):
        shapes = f"({length},) or (B, {length})" if stack else f"({length},)"
        raise DomainError(f"state must have shape {shapes}, got {y.shape}")
    return y


def _denominator(y: np.ndarray, n_ref: Optional[float]):
    # n_ref pins the mixing denominator to a fixed reference population;
    # by default the instantaneous total is used, per row of a stack as a
    # (B, 1) column, and every row's must be finite and positive. Callers
    # check it before any product with y, so a non-finite state is a
    # DomainError rather than a numpy invalid-value warning.
    if n_ref is None and y.ndim == 2:
        n = y.sum(axis=1, keepdims=True)
        if not ((n > 0.0) & (n < math.inf)).all():
            raise DomainError("population denominator must be finite and positive")
        return n
    n = float(n_ref) if n_ref is not None else float(y.sum())
    if not 0.0 < n < math.inf:
        raise DomainError("population denominator must be finite and positive")
    return n


S, LT, IT, RT, IH, A, LTH, ITH, RTH, AT = range(N_COMPARTMENTS)

# Every flow of the model, each written once: (map, source, target, rate). A
# flow leaves its source at the per-capita rate and enters its target, or
# leaves the population when the target is None. Map 0 holds the linear
# flows A; maps 1 and 2 hold CT and CH, whose flows run at the pressure
# lambdaT or lambdaH times the rate. A rate is a Parameters field or 1.
_FLOWS = (
    (1, S, LT, 1.0), (2, S, IH, 1.0), (0, S, None, "mu"),
    (0, LT, IT, "k1"), (0, LT, RT, "tau1"), (0, LT, None, "mu"),
    (0, IT, RT, "tau2"), (0, IT, None, "dT"), (0, IT, None, "mu"),
    (2, IT, ITH, "delta"),
    (1, RT, LT, "beta1p"), (2, RT, IH, 1.0), (0, RT, None, "mu"),
    (0, IH, A, "rho1"), (1, IH, ITH, "psi"), (0, IH, None, "mu"),
    (0, A, IH, "alpha1"), (0, A, None, "mu"), (0, A, None, "dA"),
    (0, LTH, ITH, "k2"), (0, LTH, RTH, "tau4"), (0, LTH, None, "mu"),
    (0, ITH, RTH, "tau3"), (0, ITH, AT, "rho2"), (0, ITH, None, "mu"),
    (0, ITH, None, "dT"),
    (1, RTH, LTH, "beta2p"), (0, RTH, AT, "rho3"), (0, RTH, None, "mu"),
    (0, AT, ITH, "alpha2"), (0, AT, None, "mu"), (0, AT, None, "dTA"),
)


def _incidence() -> np.ndarray:
    # row i: flow i at rate 1, as the flattened (3, 10, 10) maps
    m = np.zeros((len(_FLOWS), 3, N_COMPARTMENTS, N_COMPARTMENTS))
    for i, (k, source, target, _) in enumerate(_FLOWS):
        m[i, k, source, source] = -1.0
        if target is not None:
            m[i, k, target, source] = 1.0
    return m.reshape(len(_FLOWS), -1)


_INCIDENCE = _incidence()
_RATES = tuple(rate for _, _, _, rate in _FLOWS)   # a field name or 1.0
# the rows of FlowMatrices.stacked before its two pressure weights
_PRESSURE_ROWS = 3 * N_COMPARTMENTS


class FlowMatrices(NamedTuple):
    """The model as matrices; see ``flow_matrices``."""

    b: np.ndarray          # (10,) recruitment
    maps: np.ndarray       # (3, 10, 10) A, CT, CH: a view of stacked
    weights: np.ndarray    # (2, 10) pressure weights: a view of stacked
    stacked: np.ndarray    # (32, 10): the rows of A, CT, CH, then weights


@functools.lru_cache(maxsize=64)
def _cached_flow_matrices(params: Parameters) -> FlowMatrices:
    p = params
    rates = np.fromiter(map(vars(p).get, _RATES, _RATES), float, len(_RATES))
    b1, b2, b2a = p.beta1, p.beta2, p.beta2 * p.eta
    flat = np.empty((_PRESSURE_ROWS + 2) * N_COMPARTMENTS)
    cut = _PRESSURE_ROWS * N_COMPARTMENTS
    np.dot(rates, _INCIDENCE, out=flat[:cut])       # the maps, row by row
    flat[cut:] = [0.0, 0.0, b1, 0.0, 0.0, 0.0, 0.0, b1, 0.0, b1,
                  0.0, 0.0, 0.0, 0.0, b2, b2a, b2, b2, b2, b2a]
    b = np.zeros(N_COMPARTMENTS)
    b[S] = p.Lambda
    for array in (b, flat):
        array.setflags(write=False)
    stacked = flat.reshape(_PRESSURE_ROWS + 2, N_COMPARTMENTS)
    return FlowMatrices(
        b, stacked[:_PRESSURE_ROWS].reshape(3, N_COMPARTMENTS, N_COMPARTMENTS),
        stacked[_PRESSURE_ROWS:], stacked)


# The last Parameters looked up and its matrices, rebound as one tuple so
# that a concurrent reader sees a consistent pair.
_last_bound = (None, None)


def flow_matrices(params: Parameters) -> FlowMatrices:
    """The model as matrices (b, maps, weights, stacked), with
    f(y) = b + A y + lambdaT CT y + lambdaH CH y, maps = (A, CT, CH) built
    from _FLOWS, and (lambdaT, lambdaH) = weights @ y / N: lambdaT weighs the
    active-TB classes by beta1, lambdaH every HIV-positive class by beta2,
    the AIDS classes by eta times that. stacked holds the rows of maps and
    then of weights as one (32, 10) matrix, so that one product gives
    A y, CT y, CH y and W y; maps and weights are views of it. Cached per
    Parameters and read-only, so callers copy before handing an array out.

    The same Parameters object as the last call returns its matrices without
    hashing the 23 fields; any other goes through a bounded lru_cache, whose
    ``cache_info`` and ``cache_clear`` this function carries.
    """
    global _last_bound
    last_params, matrices = _last_bound
    if params is last_params:
        return matrices
    matrices = _cached_flow_matrices(params)
    _last_bound = (params, matrices)
    return matrices


def _flow_matrices_cache_clear() -> None:
    global _last_bound
    _last_bound = (None, None)
    _cached_flow_matrices.cache_clear()


flow_matrices.cache_info = _cached_flow_matrices.cache_info
flow_matrices.cache_clear = _flow_matrices_cache_clear


def force_of_infection(state, params: Parameters,
                       n_ref: Optional[float] = None) -> ForceOfInfection:
    """Evaluate the TB and HIV infection pressures at the given state: the
    weights of ``flow_matrices`` applied to it, divided by the instantaneous
    total population, or by ``n_ref`` when given."""
    y = _as_state(state)
    weights = flow_matrices(params).weights
    n = _denominator(y, n_ref)
    lam = weights @ y / n
    return ForceOfInfection(float(lam[0]), float(lam[1]))


def full_rhs(state, params: Parameters, n_ref: Optional[float] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Time derivative of the full 10-compartment system, people/year.

    The components sum to Lambda - mu*N - dT*(I_T + I_TH) - dA*A - dTA*A_T
    identically (births minus natural and disease-induced deaths), which the
    test suite checks to machine precision.

    ``state`` is one state (10,) or a stack (B, 10) of states. A stack is
    evaluated on the same flow matrices into a (B, 10) stack whose rows are
    the one-state results bit for bit. One state may be given ``out``, a
    float (10,) array that receives the derivative and is returned, with
    the same bits as a fresh result; a stack may not.
    """
    y = _as_state(state, stack=True)
    b, maps, weights, stacked = flow_matrices(params)
    if y.ndim == 2:
        if out is not None:
            raise ValueError("out is for one state only, not a stack")
        # The one-state products below, batched over the rows as matrix-vector
        # products, so every row is the one-state result bit for bit.
        col = y[:, None, :, None]
        if params.beta1 == 0.0 and params.beta2 == 0.0:
            return b + (maps[0] @ col[:, 0])[..., 0]
        n = _denominator(y, n_ref)
        lam = (weights @ col[:, 0])[..., 0] / n
        z = (maps @ col)[..., 0]
        return b + z[:, 0] + (lam[:, None, :] @ z[:, 1:])[:, 0]
    if params.beta1 == 0.0 and params.beta2 == 0.0:
        return np.add(b, maps[0] @ y, out=out)
    n = _denominator(y, n_ref)
    # one matrix-vector product gives A y, CT y, CH y and W y, with the sums
    # of the separate products bit for bit
    z = np.dot(stacked, y)
    out = np.add(b, z[:N_COMPARTMENTS], out=out)
    out += np.dot(z[_PRESSURE_ROWS:] / n,
                  z[N_COMPARTMENTS:_PRESSURE_ROWS].reshape(2, N_COMPARTMENTS))
    return out


def full_jacobian(state, params: Parameters,
                  n_ref: Optional[float] = None) -> np.ndarray:
    """Exact 10x10 Jacobian of ``full_rhs`` at the given state.

    With f(y) = b + A y + lambdaT CT y + lambdaH CH y (``flow_matrices``),
    J = A + lambdaT CT + lambdaH CH + (CT y) dlambdaT^T + (CH y) dlambdaH^T.
    The gradient of lambda = beta (w . y) / N is beta w / N, less lambda / N
    in every entry when N is the instantaneous total rather than the pinned
    ``n_ref``. The sub-model Jacobians are its slices over their index sets.
    """
    y = _as_state(state)
    _, maps, weights, _ = flow_matrices(params)
    if params.beta1 == 0.0 and params.beta2 == 0.0:
        return maps[0].copy()
    n = _denominator(y, n_ref)
    lam = weights @ y / n
    z = maps @ y
    grad = weights / n
    if n_ref is None:
        grad = grad - lam[:, None] / n
    return maps[0] + lam[0] * maps[1] + lam[1] * maps[2] + z[1:].T @ grad


# Sub-models are the full system restricted to a zero-padded state, so the
# restriction property holds bit-for-bit by construction.

_HIV_SUB_INDICES = np.array([0, 4, 5])
_TB_SUB_INDICES = np.array([0, 1, 2, 3])


def _restricted_rhs(y_sub, indices, params: Parameters,
                    n_ref: Optional[float]) -> np.ndarray:
    # y_sub is one sub-state (k,) or a stack (B, k), padded to (..., 10)
    y_sub = _as_state(y_sub, len(indices), stack=True)
    _denominator(y_sub, n_ref)  # zero population rejected even with beta = 0
    y = np.zeros(y_sub.shape[:-1] + (N_COMPARTMENTS,))
    y[..., indices] = y_sub
    return full_rhs(y, params, n_ref)[..., indices]


def hiv_submodel_rhs(state3, params: Parameters,
                     n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 3-compartment HIV-only system (S, pre-AIDS, AIDS).

    Equivalent to the full system with every TB compartment held at zero;
    the denominator is then S + I_H + A. Takes one state (3,) or a stack
    (B, 3), like ``full_rhs``.
    """
    return _restricted_rhs(state3, _HIV_SUB_INDICES, params, n_ref)


def tb_submodel_rhs(state4, params: Parameters,
                    n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 4-compartment TB-only system (S, latent, active,
    recovered), the full system with every HIV compartment at zero. Takes
    one state (4,) or a stack (B, 4), like ``full_rhs``."""
    return _restricted_rhs(state4, _TB_SUB_INDICES, params, n_ref)


def validate_parameters(params: Parameters) -> list[str]:
    """Return every violated parameter constraint; empty list when valid."""
    bad = [f"{name} must be finite" for name in PARAMETER_FIELDS
           if not np.isfinite(getattr(params, name))]
    if bad:
        return bad
    if not params.Lambda > 0:
        bad.append("Lambda > 0 required")
    if not params.mu > 0:
        bad.append("mu > 0 required")
    for name in PARAMETER_FIELDS:
        if getattr(params, name) < 0:
            bad.append(f"{name} >= 0 required")
    if params.beta1p > 1:
        bad.append("beta1p <= 1 required")
    for name in ("beta2p", "psi", "delta", "eta"):
        if getattr(params, name) < 1:
            bad.append(f"{name} >= 1 required")
    return bad
