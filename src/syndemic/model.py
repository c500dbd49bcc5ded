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
pressures and the next-generation matrices all read, built once per
Parameters object and kept on it. removal_rates gives the total outflow
rate of each infected class, which the closed forms of the threshold
analysis and the single-disease equilibria read, and
disease_free_population the checked Lambda/mu. Every function of a state
takes exactly one state, and raises DomainError naming the shape of
anything else. The right-hand sides are pure functions that return fresh
arrays; full_rhs can write the derivative into a given array instead, and
keeps its intermediate products in work arrays built once per thread.
"""
from __future__ import annotations

import functools
import math
import threading
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
    calibration value. The object keeps its ``flow_matrices`` once built.
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

    @functools.cached_property
    def _flow_matrices(self) -> FlowMatrices:
        # written into the instance __dict__, past the frozen __setattr__;
        # not a field, so equality, hashing and dataclasses.replace ignore it
        return _build_flow_matrices(self)


PARAMETER_FIELDS = tuple(f.name for f in fields(Parameters))


class RemovalRates(NamedTuple):
    """Total outflow rate of each infected class when both pressures are 0,
    in the infected ordering (1/year), and the HIV sub-model's numer."""

    d1: float        # latent TB: k1 + tau1 + mu
    d2: float        # active TB: tau2 + dT + mu
    d3: float        # HIV: rho1 + mu
    d4: float        # AIDS: alpha1 + mu + dA
    d5: float        # latent TB with HIV: k2 + tau4 + mu
    d6: float        # active TB with HIV: tau3 + rho2 + mu + dT
    d7: float        # TB-recovered with HIV: rho3 + mu
    d8: float        # AIDS with TB: alpha2 + mu + dTA
    numer: float     # d3*d4 - alpha1*rho1, written without that cancellation


def removal_rates(params: Parameters) -> RemovalRates:
    """The removal rates d1..d8 and numer, each summed in one fixed order,
    so that every closed form that reads them gets the same bits."""
    p = params
    return RemovalRates(p.k1 + p.tau1 + p.mu,
                        p.tau2 + p.dT + p.mu,
                        p.rho1 + p.mu,
                        p.alpha1 + p.mu + p.dA,
                        p.k2 + p.tau4 + p.mu,
                        p.tau3 + p.rho2 + p.mu + p.dT,
                        p.rho3 + p.mu,
                        p.alpha2 + p.mu + p.dTA,
                        p.mu * p.alpha1 + (p.mu + p.rho1) * (p.mu + p.dA))


def total_population(state: Sequence[float]) -> float:
    """Sum of all ten compartments."""
    return float(np.asarray(state, dtype=float).sum())


def _as_state(state, length: int = N_COMPARTMENTS) -> np.ndarray:
    y = np.asarray(state, dtype=float)
    if y.shape != (length,):
        raise DomainError(f"state must have shape ({length},), got {y.shape}")
    return y


def _denominator(y: np.ndarray, n_ref: Optional[float]) -> float:
    # n_ref pins the mixing denominator to a fixed reference population;
    # by default the instantaneous total is used. It must be finite and
    # positive. Callers check it before any product with y, so a non-finite
    # state is a DomainError rather than a numpy invalid-value warning.
    n = float(n_ref) if n_ref is not None else float(np.add.reduce(y))
    if not 0.0 < n < math.inf:
        raise DomainError("population denominator must be finite and positive")
    return n


def disease_free_population(params: Parameters) -> float:
    """The disease-free population Lambda/mu, in Python floats. DomainError
    unless mu is positive and the quotient finite and positive."""
    n = params.Lambda / params.mu if params.mu > 0.0 else math.nan
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


def _build_flow_matrices(params: Parameters) -> FlowMatrices:
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


def flow_matrices(params: Parameters) -> FlowMatrices:
    """The model as matrices (b, maps, weights, stacked), with
    f(y) = b + A y + lambdaT CT y + lambdaH CH y, maps = (A, CT, CH) built
    from _FLOWS, and (lambdaT, lambdaH) = weights @ y / N: lambdaT weighs the
    active-TB classes by beta1, lambdaH every HIV-positive class by beta2,
    the AIDS classes by eta times that. stacked holds the rows of maps and
    then of weights as one (32, 10) matrix, so that one product gives
    A y, CT y, CH y and W y; maps and weights are views of it. Built on the
    first call for a Parameters object and kept on it, read-only, so callers
    copy before handing an array out.
    """
    return params._flow_matrices


class _WorkArrays(threading.local):
    # full_rhs's work arrays, built once in each thread that reads them: the
    # (32,) product z = stacked @ y, its views A y, W y and the (2, 10)
    # pressure maps (CT y; CH y), the denominator as a 0-d array (a ufunc
    # converts a Python float at every call), the 2 pressures and the 10
    # gains. Per thread, so that concurrent calls never write each other's
    # products
    def __init__(self):
        z = np.empty(_PRESSURE_ROWS + 2)
        self.arrays = (z, z[:N_COMPARTMENTS], z[_PRESSURE_ROWS:],
                       z[N_COMPARTMENTS:_PRESSURE_ROWS].reshape(
                           2, N_COMPARTMENTS),
                       np.empty(()), np.empty(2), np.empty(N_COMPARTMENTS))


_work = _WorkArrays()
# full_rhs calls numpy through these names, and passes out positionally
_asarray, _dot, _add, _divide = np.asarray, np.dot, np.add, np.divide
_add_reduce = np.add.reduce


def full_rhs(state, params: Parameters, n_ref: Optional[float] = None,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Time derivative of the full 10-compartment system, people/year.

    The components sum to Lambda - mu*N - dT*(I_T + I_TH) - dA*A - dTA*A_T
    identically (births minus natural and disease-induced deaths), which the
    test suite checks to machine precision.

    ``out``, when given, is a float (10,) array that receives the
    derivative and is returned, with the same bits as a fresh result; with
    transmission the call then allocates no array. Without it the result
    is a fresh array.
    """
    # _as_state and _denominator written out, the model's hottest call
    y = _asarray(state, float)
    if y.shape != (N_COMPARTMENTS,):
        raise DomainError(
            f"state must have shape ({N_COMPARTMENTS},), got {y.shape}")
    b, maps, _, stacked = flow_matrices(params)
    if params.beta1 == 0.0 and params.beta2 == 0.0:
        return _add(b, maps[0] @ y, out)
    z, ay, wy, pressure_maps, n_now, lam, gain = _work.arrays
    if n_ref is None:
        n = float(_add_reduce(y, out=n_now))
    else:
        n = n_now[()] = float(n_ref)
    if not 0.0 < n < math.inf:
        raise DomainError("population denominator must be finite and positive")
    # one matrix-vector product gives A y, CT y, CH y and W y, with the sums
    # of the separate products bit for bit
    _dot(stacked, y, z)
    out = _add(b, ay, out)
    _divide(wy, n_now, lam)
    return _add(out, _dot(lam, pressure_maps, gain), out)


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


# The compartments of the single-disease sub-models, where the other
# disease is absent: (S, I_H, A) and (S, L_T, I_T, R_T).
_HIV_SUB_INDICES = np.array([0, 4, 5])
_TB_SUB_INDICES = np.array([0, 1, 2, 3])


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
