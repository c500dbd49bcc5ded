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

from .model import (DomainError, Parameters, disease_free_population,
                    full_jacobian, removal_rates)
from .reproduction import bifurcation_threshold

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


def _classification(dominant: float) -> str:
    if dominant < -TOL_EIG:
        return "stable"
    if dominant > TOL_EIG:
        return "unstable"
    return "marginal"


@dataclass
class StabilityReport:
    eigenvalues: List[complex]
    classification: str
    dominant_real: float


def stability_report(state, params: Parameters,
                     n_ref: Optional[float] = None) -> StabilityReport:
    eigs = eigenvalues(full_jacobian(state, params, n_ref))
    dominant = eigs[0].real   # sorted by descending real part
    return StabilityReport(eigenvalues=eigs,
                           classification=_classification(dominant),
                           dominant_real=dominant)


def dfe_trace_det(params: Parameters) -> Tuple[float, float]:
    """Trace and determinant of the Jacobian at the disease-free state, in
    closed form from ``removal_rates``; no Jacobian is built.

    There S = Lambda/mu is the whole population, so the infection gains
    enter with prefactor 1, and the Jacobian is block triangular (van den
    Driessche & Watmough 2002): S and R_T (-mu each), TB {L_T, I_T}, HIV
    {I_H, A}, L_TH (-d5) and the cycle {I_TH, R_TH, A_T}. The trace is
    -2*mu - (d1 + ... + d8) + beta2, the HIV gain on the diagonal being
    d(lambdaH*S)/dI_H = beta2. The determinant is the blocks' product,
    mu^2 (d1 d2 - beta1 k1) (numer - beta2 (d4 + eta rho1)) (-d5) (-m): the
    TB and HIV factors are d1 d2 (1 - R1) and numer (1 - R2), and the
    cycle's -m = alpha2 (tau3 rho3 + d7 rho2) - d6 d7 d8 < 0 is written, as
    numer is, as a sum of positive terms. DomainError unless Lambda/mu,
    which enters neither, is finite and positive.
    """
    p = params
    disease_free_population(p)
    rates = removal_rates(p)
    d1, d2, _, d4, d5, d6, d7, _, numer = rates
    trace = -2.0 * p.mu - sum(rates[:8]) + p.beta2
    m = (p.alpha2 * (p.mu * p.tau3 + (p.mu + p.dT) * d7)
         + d6 * d7 * (p.mu + p.dTA))
    det = (p.mu * p.mu * (d1 * d2 - p.beta1 * p.k1)
           * (numer - p.beta2 * (d4 + p.eta * p.rho1)) * d5 * m)
    return trace, det


@dataclass
class BifurcationReport:
    # the HIV-only sub-model at the threshold rate, all in closed form
    beta_star: float
    w: np.ndarray            # right null vector, third component 1
    v: np.ndarray            # left null vector, v.w = 1
    a: float
    b: float
    # the largest |J w| / (max|J| max|w|) and |v J| / (max|J| max|v|)
    zero_eig_residual: float


def bifurcation_analysis(params: Parameters) -> BifurcationReport:
    """Center-manifold coefficients a and b of the HIV-only submodel at the
    threshold transmission rate (Castillo-Chavez & Song 2004, Theorem 4.1).

    The right/left null vectors of the 3x3 linearization at the
    disease-free state are taken in closed form (third component of w fixed
    to 1, v.w = 1, both third components positive), and so are a and b,
    from the sub-model's second derivatives on the self-consistent field.
    Only Lambda, mu, rho1, alpha1, dA and eta enter it. Raises DomainError
    unless rho1 and rho1*mu are positive, or naming every part of the
    report that is not finite.
    """
    Lambda, mu, rho1, alpha1, eta = (params.Lambda, params.mu, params.rho1,
                                     params.alpha1, params.eta)
    if not (rho1 > 0 and rho1 * mu > 0):
        raise DomainError("rho1 and rho1*mu must be positive (the null "
                          "vectors divide by them)")
    rates = removal_rates(params)
    numer, d4 = rates.numer, rates.d4
    bstar = bifurcation_threshold(params)
    w1, w2 = -numer / (rho1 * mu), d4 / rho1
    v2 = rho1 / (d4 + rho1 + mu - bstar)
    # rho1 + mu - beta* = rho1 * gap, written without that cancellation
    gap = (alpha1 + eta * (mu + rho1)) / (d4 + eta * rho1)
    v3 = v2 * gap
    a = -v2 * (2.0 * bstar * mu / Lambda) * (w2 + 1.0) * (w2 + eta)
    b = v2 * (w2 + eta)

    # J w and v J, which vanish, for the linearization of (S, I_H, A)
    #   J = [[-mu, -beta*, -beta* eta],
    #        [0, beta* - rho1 - mu, beta* eta + alpha1],
    #        [0, rho1, -d4]]
    # (the first entry of v J is 0 exactly)
    jw = (-mu * w1 - bstar * w2 - bstar * eta,
          -rho1 * gap * w2 + (bstar * eta + alpha1),
          rho1 * w2 - d4)
    vj = (-v2 * rho1 * gap + v3 * rho1,
          v2 * (bstar * eta + alpha1) - v3 * d4)
    if not all(map(math.isfinite, (bstar, w1, w2, v2, v3, a, b, *jw, *vj))):
        parts = (("beta_star", (bstar,)), ("w", (w1, w2)), ("v", (v2, v3)),
                 ("a", (a,)), ("b", (b,)), ("zero_eig_residual", jw + vj))
        raise DomainError("threshold analysis: " + ", ".join(
            name for name, values in parts
            if not all(map(math.isfinite, values))) + " not finite")
    # each J w product relative to max|J| max|w|, each v J product to
    # max|J| max|v|, divided in turn so that nothing overflows; v is not 0
    # where w is finite, since v2 >= rho1 / (d4 + rho1 + mu)
    j_max = max(map(abs, (mu, bstar, bstar * eta, rho1 * gap,
                          bstar * eta + alpha1, rho1, d4)))
    residual = max(max(map(abs, jw)) / j_max / max(abs(w1), abs(w2), 1.0),
                   max(map(abs, vj)) / j_max / max(abs(v2), abs(v3)))
    return BifurcationReport(beta_star=bstar, w=np.array([w1, w2, 1.0]),
                             v=np.array([0.0, v2, v3]), a=a, b=b,
                             zero_eig_residual=residual)
