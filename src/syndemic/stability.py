"""Linearization, spectra, equilibrium classification, and the transcritical
bifurcation analysis of the HIV-only submodel.

The linearization of the full model is the closed-form Jacobian of
model.full_jacobian, and the bifurcation analysis takes its null vectors and
centre-manifold coefficients in closed form too. Central finite differences
(fd_jacobian) are only the tests' independent route. Eigenvalues come from
one LAPACK eigen-decomposition and are checked by their eigenvectors'
residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import (DomainError, Parameters, force_of_infection,
                    full_jacobian)

TOL_EIG = 1e-7      # a real part within this of 0 is marginal


class ConvergenceError(RuntimeError):
    """An iterative or cross-checked computation failed to converge."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with one Richardson extrapolation level.

    Evaluates ``fun`` at x, which fixes the output size, and then at one
    probe point at a time, so any callable of one state will do. The step
    of coordinate j is h_j = max(1e-6, 1e-6*|x_j|), the floor in persons;
    the central differences with steps h/2 and h are combined as
    (4*D(h/2) - D(h))/3, which cancels their O(h^2) term.

    The package computes nothing with it: it stays here only because the
    benchmark's tracer looks it up by name, and moves to the tests with
    ROADMAP item 6, after item 1.
    """
    x = np.asarray(x, dtype=float)
    n_out = np.asarray(fun(x), dtype=float).size
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    steps = np.array([h / 2.0, h])
    shifts = steps[:, :, None] * np.eye(x.size)
    # x + e_j*s_j and x - e_j*s_j for each coordinate j in turn, first with
    # s = h/2 and then with s = h
    points = (x + np.stack([shifts, -shifts], axis=2)).reshape(-1, x.size)
    values = np.array([fun(point) for point in points], dtype=float)
    if not np.isfinite(values).all():
        raise DomainError("non-finite value while probing the jacobian")
    v = values.reshape(2, x.size, 2, n_out)
    diffs = ((v[:, :, 0] - v[:, :, 1])
             / (2.0 * steps[:, :, None])).transpose(0, 2, 1)
    return (4.0 * diffs[0] - diffs[1]) / 3.0


def eigenvalues(m) -> List[complex]:
    """All eigenvalues of a small real matrix, sorted by descending real part.

    Backed by LAPACK's Hessenberg-plus-shifted-QR path, which also returns
    an eigenvector v for each eigenvalue lambda. Every pair is verified by
    its residual ||A v - lambda v|| / ||v|| <= 1e-7 * max(||A||_2, 1). The
    residual bounds the smallest singular value of A - lambda I from above,
    so every value that passes is an exact eigenvalue of a matrix within
    that distance of A. Since max(||A||_2, 1) >= 1, ||A||_2 (one SVD) is
    computed only when some residual exceeds 1e-7; the verdict is the same.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DomainError("matrix must be square and non-empty")
    if a.shape[0] > 16:
        raise DomainError("matrix dimension capped at 16")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    vals, vecs = np.linalg.eig(a)
    # ||A v - lambda v|| / ||v|| / s from the column sums of squared moduli,
    # with s the largest |a_ij| and at least 1: divided by s before they are
    # squared, the residuals cannot overflow, and any that underflow lie far
    # inside the 1e-7 s bound of the norm test
    s = max(float(np.abs(a).max()), 1.0)
    r = (a @ vecs - vecs * vals) / s
    residual = np.sqrt((r.conj() * r).real.sum(axis=0)
                       / (vecs.conj() * vecs).real.sum(axis=0))
    if not (residual <= 1e-7 / s).all():
        # ||A||_2 >= s, which can only matter above this
        scale = max(float(np.linalg.svd(a, compute_uv=False)[0]), 1.0)
        if not (residual <= 1e-7 * (scale / s)).all():
            raise ConvergenceError("eigenvalue failed the residual check")
    order = np.lexsort((-vals.imag, -vals.real))
    return [complex(v) for v in vals[order].tolist()]


def classify(eigs) -> str:
    """stable / unstable / marginal by the dominant real part."""
    return _classification(max(e.real for e in eigs))


def _classification(dominant: float) -> str:
    if dominant < -TOL_EIG:
        return "stable"
    if dominant > TOL_EIG:
        return "unstable"
    return "marginal"


@dataclass
class StabilityReport:
    equilibrium: np.ndarray
    eigenvalues: List[complex]
    classification: str
    dominant_real: float


def stability_report(state, params: Parameters,
                     n_ref: Optional[float] = None) -> StabilityReport:
    eigs = eigenvalues(full_jacobian(state, params, n_ref))
    dominant = eigs[0].real   # sorted by descending real part
    return StabilityReport(equilibrium=np.asarray(state, dtype=float),
                           eigenvalues=eigs,
                           classification=_classification(dominant),
                           dominant_real=dominant)


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
    det = float(np.linalg.det(full_jacobian(dfe, params)))
    return trace, det


@dataclass
class BifurcationReport:
    # the HIV-only sub-model at the threshold rate, all in closed form
    beta_star: float
    w: np.ndarray            # right null vector, third component 1
    v: np.ndarray            # left null vector, v.w = 1
    a: float
    b: float
    zero_eig_residual: float


def _hiv_threshold_terms(p: Parameters) -> Tuple[float, float]:
    # (numer, d4): d4 the AIDS removal rate and numer = d3*d4 - alpha1*rho1
    # (d3 = rho1 + mu) written without that cancellation
    return (p.mu * p.alpha1 + (p.mu + p.rho1) * (p.mu + p.dA),
            p.alpha1 + p.mu + p.dA)


def bifurcation_threshold(params: Parameters) -> float:
    """Transmission rate at which the HIV-only submodel's R2 crosses 1."""
    numer, d4 = _hiv_threshold_terms(params)
    return numer / (d4 + params.eta * params.rho1)


def bifurcation_analysis(params: Parameters) -> BifurcationReport:
    """Center-manifold coefficients a and b of the HIV-only submodel at the
    threshold transmission rate (Castillo-Chavez & Song 2004, Theorem 4.1).

    The right/left null vectors of the 3x3 linearization at the
    disease-free state are taken in closed form (third component of w fixed
    to 1, v.w = 1, both third components positive), and so are a and b,
    from the sub-model's second derivatives on the self-consistent field.
    Only Lambda, mu, rho1, alpha1, dA and eta are read. Raises DomainError
    unless rho1 and rho1*mu are positive, or naming every part of the
    report that is not finite.
    """
    Lambda, mu, rho1, alpha1, eta = (params.Lambda, params.mu, params.rho1,
                                     params.alpha1, params.eta)
    if not (rho1 > 0 and rho1 * mu > 0):
        raise DomainError("rho1 and rho1*mu must be positive (the null "
                          "vectors divide by them)")
    numer, d4 = _hiv_threshold_terms(params)
    bstar = numer / (d4 + eta * rho1)
    w1, w2 = -numer / (rho1 * mu), d4 / rho1
    v2 = rho1 / (d4 + rho1 + mu - bstar)
    v3 = v2 * (rho1 + mu - bstar) / rho1
    a = -v2 * (2.0 * bstar * mu / Lambda) * (w2 + 1.0) * (w2 + eta)
    b = v2 * (w2 + eta)

    # J w and v J, which vanish, for the linearization of (S, I_H, A)
    #   J = [[-mu, -beta*, -beta* eta],
    #        [0, beta* - rho1 - mu, beta* eta + alpha1],
    #        [0, rho1, -d4]]
    # (the first entry of v J is 0 exactly)
    products = (-mu * w1 - bstar * w2 - bstar * eta,
                (bstar - rho1 - mu) * w2 + (bstar * eta + alpha1),
                rho1 * w2 - d4,
                v2 * (bstar - rho1 - mu) + v3 * rho1,
                v2 * (bstar * eta + alpha1) - v3 * d4)
    if not all(map(math.isfinite, (bstar, w1, w2, v2, v3, a, b, *products))):
        parts = (("beta_star", (bstar,)), ("w", (w1, w2)), ("v", (v2, v3)),
                 ("a", (a,)), ("b", (b,)), ("zero_eig_residual", products))
        raise DomainError("threshold analysis: " + ", ".join(
            name for name, values in parts
            if not all(map(math.isfinite, values))) + " not finite")
    return BifurcationReport(beta_star=bstar, w=np.array([w1, w2, 1.0]),
                             v=np.array([0.0, v2, v3]), a=a, b=b,
                             zero_eig_residual=max(map(abs, products)))


@dataclass
class H2Evaluation:
    state: np.ndarray
    ghat: np.ndarray                  # 8-vector, infected ordering
    violating_indices: Tuple[int, ...]  # 0-based positions with ghat < 0


def h2_condition_check(state, params: Parameters) -> H2Evaluation:
    """Evaluate the sign condition used in the global-stability argument.

    The 8 components follow the infected ordering (latent TB, active TB, HIV,
    AIDS, latent coinfection, active coinfection, recovered coinfection,
    AIDS+TB). Components 4 and 8 (1-based) are identically zero. A negative
    component anywhere means the condition fails at this state, which must
    lie in the feasible region within 1e-6 max(1, Lambda/mu) persons.
    """
    y = np.asarray(state, dtype=float)
    cap = params.Lambda / params.mu
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
