"""Compartments, parameters, and right-hand sides of the coupled TB-HIV model.

The state is a 10-vector of population counts in a fixed order (see
COMPARTMENTS): susceptibles, three single-TB classes (latent, active,
recovered), two single-HIV classes (pre-AIDS and AIDS), and four coinfected
classes (latent TB with HIV, active TB with HIV, TB-recovered with HIV, and
AIDS with active TB). Two per-capita infection pressures couple everything:
a TB pressure driven by the active-TB classes and an HIV pressure driven by
the HIV-positive classes, AIDS classes weighted up by a modifier.

All right-hand sides are pure functions returning fresh arrays.
"""
from __future__ import annotations

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


def _as_state(state, length: int = N_COMPARTMENTS) -> np.ndarray:
    y = np.asarray(state, dtype=float)
    if y.shape != (length,):
        raise DomainError(f"state must have shape ({length},), got {y.shape}")
    return y


def _denominator(y: np.ndarray, n_ref: Optional[float]) -> float:
    # n_ref pins the mixing denominator to a fixed reference population;
    # by default the instantaneous total is used.
    n = float(n_ref) if n_ref is not None else float(y.sum())
    if n <= 0.0:
        raise DomainError("population denominator must be positive")
    return n


def force_of_infection(state, params: Parameters,
                       n_ref: Optional[float] = None) -> ForceOfInfection:
    """Evaluate the TB and HIV infection pressures at the given state.

    lambdaT weighs the active-TB classes; lambdaH weighs every HIV-positive
    class, with the AIDS classes scaled by eta. Both are divided by the
    instantaneous total population, or by ``n_ref`` when given.
    """
    y = _as_state(state)
    n = _denominator(y, n_ref)
    s, lt, it, rt, ih, a, lth, ith, rth, at = y
    lam_t = params.beta1 * (it + ith + at) / n
    lam_h = params.beta2 * (ih + ith + lth + rth + params.eta * (a + at)) / n
    return ForceOfInfection(lam_t, lam_h)


def full_rhs(state, params: Parameters,
             n_ref: Optional[float] = None) -> np.ndarray:
    """Time derivative of the full 10-compartment system, people/year.

    The components sum to Lambda - mu*N - dT*(I_T + I_TH) - dA*A - dTA*A_T
    identically (births minus natural and disease-induced deaths), which the
    test suite checks to machine precision.
    """
    y = _as_state(state)
    p = params
    if p.beta1 == 0.0 and p.beta2 == 0.0:
        lam_t = lam_h = 0.0
    else:
        lam_t, lam_h = force_of_infection(y, p, n_ref)
    s, lt, it, rt, ih, a, lth, ith, rth, at = y
    return np.array([
        p.Lambda - (lam_t + lam_h + p.mu) * s,
        lam_t * s + p.beta1p * lam_t * rt - (p.k1 + p.tau1 + p.mu) * lt,
        p.k1 * lt - (p.tau2 + p.dT + p.mu + p.delta * lam_h) * it,
        p.tau1 * lt + p.tau2 * it - (p.beta1p * lam_t + lam_h + p.mu) * rt,
        lam_h * s + lam_h * rt - (p.rho1 + p.psi * lam_t + p.mu) * ih + p.alpha1 * a,
        p.rho1 * ih - (p.alpha1 + p.mu + p.dA) * a,
        p.beta2p * lam_t * rth - (p.k2 + p.tau4 + p.mu) * lth,
        p.delta * lam_h * it + p.psi * lam_t * ih + p.alpha2 * at + p.k2 * lth
        - (p.tau3 + p.rho2 + p.mu + p.dT) * ith,
        p.tau3 * ith + p.tau4 * lth - (p.beta2p * lam_t + p.rho3 + p.mu) * rth,
        p.rho2 * ith + p.rho3 * rth - (p.alpha2 + p.mu + p.dTA) * at,
    ])


def full_jacobian(state, params: Parameters,
                  n_ref: Optional[float] = None) -> np.ndarray:
    """Exact 10x10 Jacobian of ``full_rhs`` at the given state.

    full_rhs is f(y) = A y + Lambda e_S + lambdaT CT y + lambdaH CH y, with A
    (lin) the linear flows and CT, CH (ct, ch) the coefficients of the two
    infection pressures, so J = A + lambdaT CT + lambdaH CH +
    (CT y) dlambdaT^T + (CH y) dlambdaH^T. The gradient of lambda = beta (w . y) / N is
    beta w / N, less lambda / N in every entry when N is the instantaneous
    total rather than the pinned ``n_ref``. The sub-model Jacobians are its
    slices over their index sets.
    """
    y = _as_state(state)
    p = params
    lin = np.diag([
        -p.mu, -(p.k1 + p.tau1 + p.mu), -(p.tau2 + p.dT + p.mu), -p.mu,
        -(p.rho1 + p.mu), -(p.alpha1 + p.mu + p.dA), -(p.k2 + p.tau4 + p.mu),
        -(p.tau3 + p.rho2 + p.mu + p.dT), -(p.rho3 + p.mu),
        -(p.alpha2 + p.mu + p.dTA),
    ])
    lin[2, 1] = p.k1
    lin[3, 1], lin[3, 2] = p.tau1, p.tau2
    lin[4, 5] = p.alpha1
    lin[5, 4] = p.rho1
    lin[7, 6], lin[7, 9] = p.k2, p.alpha2
    lin[8, 6], lin[8, 7] = p.tau4, p.tau3
    lin[9, 7], lin[9, 8] = p.rho2, p.rho3
    if p.beta1 == 0.0 and p.beta2 == 0.0:
        return lin
    n = _denominator(y, n_ref)
    ct = np.zeros((10, 10))           # d(rhs) / d(lambdaT), as a map of y
    ct[0, 0], ct[1, 0], ct[1, 3], ct[3, 3] = -1.0, 1.0, p.beta1p, -p.beta1p
    ct[4, 4], ct[7, 4] = -p.psi, p.psi
    ct[6, 8], ct[8, 8] = p.beta2p, -p.beta2p
    ch = np.zeros((10, 10))           # d(rhs) / d(lambdaH), as a map of y
    ch[0, 0], ch[4, 0] = -1.0, 1.0
    ch[2, 2], ch[7, 2] = -p.delta, p.delta
    ch[3, 3], ch[4, 3] = -1.0, 1.0
    w_t = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0, 1], dtype=float)
    w_h = np.array([0, 0, 0, 0, 1, p.eta, 1, 1, 1, p.eta])
    lam_t = p.beta1 * float(w_t @ y) / n
    lam_h = p.beta2 * float(w_h @ y) / n
    grad_t = p.beta1 * w_t / n
    grad_h = p.beta2 * w_h / n
    if n_ref is None:
        grad_t = grad_t - lam_t / n
        grad_h = grad_h - lam_h / n
    return (lin + lam_t * ct + lam_h * ch
            + np.outer(ct @ y, grad_t) + np.outer(ch @ y, grad_h))


# Sub-models are the full system restricted to a zero-padded state, so the
# restriction property holds bit-for-bit by construction.

_HIV_SUB_INDICES = np.array([0, 4, 5])
_TB_SUB_INDICES = np.array([0, 1, 2, 3])


def hiv_submodel_rhs(state3, params: Parameters,
                     n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 3-compartment HIV-only system (S, pre-AIDS, AIDS).

    Equivalent to the full system with every TB compartment held at zero;
    the denominator is then S + I_H + A.
    """
    y3 = _as_state(state3, 3)
    _denominator(y3, n_ref)  # zero population rejected even with beta2 = 0
    y = np.zeros(N_COMPARTMENTS)
    y[_HIV_SUB_INDICES] = y3
    return full_rhs(y, params, n_ref)[_HIV_SUB_INDICES]


def tb_submodel_rhs(state4, params: Parameters,
                    n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 4-compartment TB-only system (S, latent, active,
    recovered), the full system with every HIV compartment at zero."""
    y4 = _as_state(state4, 4)
    _denominator(y4, n_ref)
    y = np.zeros(N_COMPARTMENTS)
    y[_TB_SUB_INDICES] = y4
    return full_rhs(y, params, n_ref)[_TB_SUB_INDICES]


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
