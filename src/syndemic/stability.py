"""Linearization, spectra, equilibrium classification, and the transcritical
bifurcation analysis of the HIV-only submodel.

The linearization of the full model is the closed-form Jacobian of
model.full_jacobian. Central finite differences with one Richardson
extrapolation level remain as the independent route: the bifurcation
analysis requires its hand-coded 3x3 submodel linearization and
closed-form coefficients to agree with them.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import (DomainError, Parameters, force_of_infection,
                    full_jacobian, hiv_submodel_rhs)

DEFAULT_TOL_EIG = 1e-7


class ConvergenceError(RuntimeError):
    """An iterative or cross-checked computation failed to converge."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with one Richardson extrapolation level.

    Per-coordinate step h_i = max(1e-6, 1e-6*|x_i|); the h and h/2 estimates
    are combined as (4*J_half - J_full)/3, cancelling the leading O(h^2) term.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    n_out, n_in = f0.size, x.size

    def estimate(steps: np.ndarray) -> np.ndarray:
        jac = np.empty((n_out, n_in))
        for j in range(n_in):
            e = np.zeros(n_in)
            e[j] = steps[j]
            fp = np.asarray(fun(x + e), dtype=float)
            fm = np.asarray(fun(x - e), dtype=float)
            if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
                raise DomainError("non-finite value while probing the jacobian")
            jac[:, j] = (fp - fm) / (2.0 * steps[j])
        return jac

    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    return (4.0 * estimate(h / 2.0) - estimate(h)) / 3.0


def jacobian(state, params: Parameters,
             n_ref: Optional[float] = None) -> np.ndarray:
    """10x10 linearization of the full model at the given state."""
    return full_jacobian(state, params, n_ref)


def eigenvalues(m) -> List[complex]:
    """All eigenvalues of a small real matrix, sorted by descending real part.

    Backed by LAPACK's Hessenberg-plus-shifted-QR path; every returned value
    is verified by a minimum-singular-value residual check.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if a.shape[0] > 16:
        raise DomainError("matrix dimension capped at 16")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    vals = np.linalg.eigvals(a)
    scale = max(float(np.linalg.norm(a, 2)), 1.0)
    eye = np.eye(a.shape[0])
    for lam in vals:
        smin = float(np.linalg.svd(a - lam * eye, compute_uv=False)[-1])
        if smin > 1e-7 * scale:
            raise ConvergenceError("eigenvalue failed the residual check")
    order = np.lexsort((-vals.imag, -vals.real))
    return [complex(v) for v in vals[order]]


def classify(eigs, tol_eig: float = DEFAULT_TOL_EIG) -> str:
    """stable / unstable / marginal by the dominant real part."""
    dominant = max(e.real for e in eigs)
    if dominant < -tol_eig:
        return "stable"
    if dominant > tol_eig:
        return "unstable"
    return "marginal"


@dataclass
class StabilityReport:
    equilibrium: np.ndarray
    eigenvalues: List[complex]
    classification: str
    dominant_real: float
    method: str = "closed-form jacobian, QR eigenvalues"


def stability_report(state, params: Parameters,
                     n_ref: Optional[float] = None,
                     tol_eig: float = DEFAULT_TOL_EIG) -> StabilityReport:
    eigs = eigenvalues(jacobian(state, params, n_ref))
    return StabilityReport(equilibrium=np.asarray(state, dtype=float),
                           eigenvalues=eigs,
                           classification=classify(eigs, tol_eig),
                           dominant_real=max(e.real for e in eigs))


def _removal_rates(p: Parameters) -> Tuple[float, ...]:
    # Total outflow rate of each infected compartment, infected ordering.
    return (p.k1 + p.tau1 + p.mu,
            p.tau2 + p.dT + p.mu,
            p.rho1 + p.mu,
            p.alpha1 + p.mu + p.dA,
            p.k2 + p.tau4 + p.mu,
            p.tau3 + p.rho2 + p.mu + p.dT,
            p.rho3 + p.mu,
            p.alpha2 + p.mu + p.dTA)


def dfe_trace_det(params: Parameters) -> Tuple[float, float]:
    """Trace (closed form) and determinant (numeric) of the Jacobian at the
    disease-free state.

    The trace is -2*mu - sum of the eight removal rates + beta2; the final
    term is the HIV infection gain on the diagonal (d(lambdaH*S)/dI_H = beta2
    when S equals the whole population).
    """
    trace = -2.0 * params.mu - sum(_removal_rates(params)) + params.beta2
    dfe = np.zeros(10)
    dfe[0] = params.Lambda / params.mu
    det = float(np.linalg.det(jacobian(dfe, params)))
    return trace, det


@dataclass
class BifurcationReport:
    beta_star: float
    w: np.ndarray            # right null vector, third component 1
    v: np.ndarray            # left null vector, v.w = 1
    a: float
    b: float
    a_fd: float
    b_fd: float
    zero_eig_residual: float


def bifurcation_threshold(params: Parameters) -> float:
    """Transmission rate at which the HIV-only submodel's R2 crosses 1."""
    p = params
    numer = p.mu * p.alpha1 + (p.mu + p.rho1) * (p.mu + p.dA)
    denom = p.alpha1 + p.mu + p.dA + p.eta * p.rho1
    return numer / denom


def bifurcation_analysis(params: Parameters) -> BifurcationReport:
    """Center-manifold coefficients a and b of the HIV-only submodel at the
    threshold transmission rate.

    The right/left null vectors of the 3x3 linearization are taken in closed
    form (third component of w fixed to 1, v.w = 1, both third components
    positive). The coefficients are evaluated twice, from the closed-form
    second derivatives and from finite differences of the submodel right-hand
    side, and must agree to 1e-6 relative.
    """
    p = params
    if p.rho1 <= 0:
        raise DomainError("rho1 must be positive (null vectors divide by it)")
    bstar = bifurcation_threshold(p)
    d4 = p.alpha1 + p.mu + p.dA
    vden = d4 + p.rho1 + p.mu - bstar
    if vden <= 0:
        raise ConvergenceError("left null vector extraction failed")

    # Hand-coded linearization of (S, I_H, A) at the disease-free state.
    j3 = np.array([
        [-p.mu, -bstar, -bstar * p.eta],
        [0.0, bstar - p.rho1 - p.mu, bstar * p.eta + p.alpha1],
        [0.0, p.rho1, -d4],
    ])
    numer = p.mu * p.alpha1 + (p.mu + p.rho1) * (p.mu + p.dA)
    w = np.array([-numer / (p.rho1 * p.mu), d4 / p.rho1, 1.0])
    v2 = p.rho1 / vden
    v = np.array([0.0, v2, v2 * (p.rho1 + p.mu - bstar) / p.rho1])
    residual = max(float(np.abs(j3 @ w).max()), float(np.abs(v @ j3).max()))

    w2, w3 = w[1], w[2]
    a = -v2 * (2.0 * bstar * p.mu / p.Lambda) * (w2 + w3) * (w2 + p.eta * w3)
    b = v2 * (w2 + p.eta * w3)

    # Independent finite-difference route, at the same threshold rate. The
    # closed forms differentiate the self-consistent field (the mixing
    # denominator moves with the state), so the probes do too. The step is
    # scaled to the population and the quadratic truncation removed by
    # pairing two step sizes.
    pstar = dataclasses.replace(p, beta2=bstar)
    scale = p.Lambda / p.mu
    dfe3 = np.array([scale, 0.0, 0.0])

    def rhs3(y, pp=pstar):
        return hiv_submodel_rhs(y, pp)

    def second_diff(step):
        return (rhs3(dfe3 + step * w) - 2.0 * rhs3(dfe3)
                + rhs3(dfe3 - step * w)) / step ** 2

    h = 1e-3 * scale / float(np.max(np.abs(w)))
    second = (4.0 * second_diff(h / 2.0) - second_diff(h)) / 3.0
    a_fd = float(v @ second)
    kappa = 1e-5
    jp = fd_jacobian(lambda y: hiv_submodel_rhs(
        y, dataclasses.replace(p, beta2=bstar + kappa)), dfe3)
    jm = fd_jacobian(lambda y: hiv_submodel_rhs(
        y, dataclasses.replace(p, beta2=bstar - kappa)), dfe3)
    b_fd = float(v @ ((jp - jm) / (2.0 * kappa)) @ w)

    for closed, fd, name in ((a, a_fd, "a"), (b, b_fd, "b")):
        if abs(closed - fd) > 1e-6 * max(abs(closed), abs(fd)):
            raise ConvergenceError(
                f"bifurcation coefficient {name}: closed form and finite "
                f"differences disagree ({closed} vs {fd})")
    return BifurcationReport(beta_star=bstar, w=w, v=v, a=a, b=b,
                             a_fd=a_fd, b_fd=b_fd,
                             zero_eig_residual=residual)


@dataclass
class H2Evaluation:
    state: np.ndarray
    ghat: np.ndarray                  # 8-vector, infected ordering
    violating_indices: Tuple[int, ...]  # 0-based positions with ghat < 0


def h2_condition_check(state, params: Parameters,
                       tol: Optional[float] = None) -> H2Evaluation:
    """Evaluate the sign condition used in the global-stability argument.

    The 8 components follow the infected ordering (latent TB, active TB, HIV,
    AIDS, latent coinfection, active coinfection, recovered coinfection,
    AIDS+TB). Components 4 and 8 (1-based) are identically zero. A negative
    component anywhere means the condition fails at this state.
    """
    y = np.asarray(state, dtype=float)
    cap = params.Lambda / params.mu
    if tol is None:
        tol = 1e-6 * max(1.0, cap)
    if np.any(y < -tol) or y.sum() > cap + tol:
        raise DomainError("state outside the feasible region")
    s, _, i_t, r_t, i_h, _, _, _, r_th, _ = y
    lam = force_of_infection(y, params)
    ghat = np.array([
        lam.lambdaT * (cap - s - params.beta1p * r_t),
        -params.delta * lam.lambdaH * i_t,
        lam.lambdaH * (cap - s - r_t - params.psi * i_h),
        0.0,
        -params.beta2p * lam.lambdaT * r_th,
        -(params.delta * lam.lambdaH * i_t + params.psi * lam.lambdaT * i_h),
        params.beta2p * lam.lambdaT * r_th,
        0.0,
    ])
    violating = tuple(int(i) for i in np.where(ghat < 0.0)[0])
    return H2Evaluation(state=y, ghat=ghat, violating_indices=violating)
