"""Linearization, spectra, equilibrium classification, and the transcritical
bifurcation analysis of the HIV-only submodel.

The linearization of the full model is the closed-form Jacobian of
model.full_jacobian. Central finite differences with one Richardson
extrapolation level are only the independent route of the bifurcation
analysis, which requires its hand-coded 3x3 linearization and closed-form
coefficients to agree with them, and of the tests. The bifurcation analysis
runs once per set of sub-model rates and evaluates its probes as three
stacked sub-model calls, one per parameter set; fd_jacobian probes any
callable one point at a time. Eigenvalues come from one LAPACK
eigen-decomposition and are checked by their eigenvectors' residuals.
"""
from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .model import (DomainError, Parameters, force_of_infection,
                    full_jacobian, hiv_submodel_rhs)

TOL_EIG = 1e-7      # a real part within this of 0 is marginal
_PROBE_FLOOR = 1e-6  # persons, the smallest jacobian probe step


class ConvergenceError(RuntimeError):
    """An iterative or cross-checked computation failed to converge."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def _richardson(estimates: np.ndarray) -> np.ndarray:
    # (4*E_half - E_full)/3 over the leading axis, (step/2, step): cancels
    # the O(step^2) term of a central-difference estimate.
    return (4.0 * estimates[0] - estimates[1]) / 3.0


def _jacobian_probes(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Probe points of the central-difference Jacobian at x, and its steps.

    Per-coordinate step h_i = max(1e-6, 1e-6*|x_i|), the floor in persons.
    The rows are x + e_j*s_j and x - e_j*s_j for each coordinate j in turn,
    first with s = h/2 and then with s = h; the steps are returned as (2, n).
    """
    h = np.maximum(_PROBE_FLOOR, 1e-6 * np.abs(x))
    steps = np.array([h / 2.0, h])
    shifts = steps[:, :, None] * np.eye(x.size)
    points = x + np.stack([shifts, -shifts], axis=2)
    return points.reshape(-1, x.size), steps


def _richardson_jacobian(values, steps: np.ndarray) -> np.ndarray:
    """The Jacobian from the function values at ``_jacobian_probes``'
    points, in their order: the h/2 and h central differences combined
    by ``_richardson``."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise DomainError("non-finite value while probing the jacobian")
    v = values.reshape(2, steps.shape[1], 2, -1)
    diffs = (v[:, :, 0] - v[:, :, 1]) / (2.0 * steps[:, :, None])
    return _richardson(diffs.transpose(0, 2, 1))


def fd_jacobian(fun: Callable[[np.ndarray], np.ndarray], x) -> np.ndarray:
    """Central-difference Jacobian with one Richardson extrapolation level.

    Evaluates ``fun`` at x, which fixes the output size, and then at one
    probe point at a time, so any callable of one state will do; the
    probes, steps and combination are those of ``_jacobian_probes`` and
    ``_richardson_jacobian``.
    """
    x = np.asarray(x, dtype=float)
    n_out = np.asarray(fun(x), dtype=float).size
    points, steps = _jacobian_probes(x)
    values = np.reshape([fun(point) for point in points], (len(points), n_out))
    return _richardson_jacobian(values, steps)


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
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    vals, vecs = np.linalg.eig(a)
    residual = (np.linalg.norm(a @ vecs - vecs * vals, axis=0)
                / np.linalg.norm(vecs, axis=0))
    if not np.all(residual <= 1e-7):
        # ||A||_2, which can only matter above this
        scale = max(float(np.linalg.svd(a, compute_uv=False)[0]), 1.0)
        if not np.all(residual <= 1e-7 * scale):
            raise ConvergenceError("eigenvalue failed the residual check")
    order = np.lexsort((-vals.imag, -vals.real))
    return [complex(v) for v in vals[order]]


def classify(eigs) -> str:
    """stable / unstable / marginal by the dominant real part."""
    dominant = max(e.real for e in eigs)
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
    return StabilityReport(equilibrium=np.asarray(state, dtype=float),
                           eigenvalues=eigs,
                           classification=classify(eigs),
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
    det = float(np.linalg.det(full_jacobian(dfe, params)))
    return trace, det


@dataclass(frozen=True)
class BifurcationReport:
    # shared by every caller with the same sub-model rates: frozen, and its
    # arrays read-only
    beta_star: float
    w: np.ndarray            # right null vector, third component 1
    v: np.ndarray            # left null vector, v.w = 1
    a: float
    b: float
    a_fd: float
    b_fd: float
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
    threshold transmission rate.

    The right/left null vectors of the 3x3 linearization are taken in closed
    form (third component of w fixed to 1, v.w = 1, both third components
    positive). The coefficients are evaluated twice, from the closed-form
    second derivatives and from finite differences of the submodel right-hand
    side, and must agree to 1e-6 relative.

    The sub-model reads only Lambda, mu, rho1, alpha1, dA and eta, so the
    analysis is keyed on those six rates alone: the report, finite-difference
    cross-check included, is computed once per set of them and shared,
    read-only, by every parameter set that agrees on them, whatever its
    transmission and TB rates.
    """
    p = params
    if p.rho1 <= 0:
        raise DomainError("rho1 must be positive (null vectors divide by it)")
    return _bifurcation_at(p.Lambda, p.mu, p.rho1, p.alpha1, p.dA, p.eta)


@functools.lru_cache(maxsize=64)
def _bifurcation_at(Lambda: float, mu: float, rho1: float, alpha1: float,
                    dA: float, eta: float) -> BifurcationReport:
    # The analysis at pstar: these rates, beta1 0, beta2 the threshold rate
    # and every other rate at its default, which the sub-model never reads.
    # A failing rate set raises on every call: lru_cache keeps no exception.
    pstar = Parameters(beta1=0.0, beta2=0.0, Lambda=Lambda, mu=mu, rho1=rho1,
                       alpha1=alpha1, dA=dA, eta=eta)
    pstar = dataclasses.replace(pstar, beta2=bifurcation_threshold(pstar))
    p, bstar = pstar, pstar.beta2
    numer, d4 = _hiv_threshold_terms(p)
    vden = d4 + p.rho1 + p.mu - bstar
    if vden <= 0:
        raise ConvergenceError("left null vector extraction failed")

    # Hand-coded linearization of (S, I_H, A) at the disease-free state.
    j3 = np.array([
        [-p.mu, -bstar, -bstar * p.eta],
        [0.0, bstar - p.rho1 - p.mu, bstar * p.eta + p.alpha1],
        [0.0, p.rho1, -d4],
    ])
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
    # pairing two step sizes. Each parameter set's probes are one stacked
    # call.
    scale = p.Lambda / p.mu
    dfe3 = np.array([scale, 0.0, 0.0])

    h = 1e-3 * scale / float(np.max(np.abs(w)))
    steps = np.array([h / 2.0, h])
    along_w = steps[:, None] * w
    # rows: the centre, then dfe3 + s*w and dfe3 - s*w for s = h/2, h
    f = hiv_submodel_rhs(np.vstack([dfe3, dfe3 + along_w, dfe3 - along_w]),
                         pstar)
    # h^2 may be 0 or subnormal, and the quotient then inf or nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        second = _richardson((f[1:3] - 2.0 * f[0] + f[3:5])
                             / (steps ** 2)[:, None])
    if not np.isfinite(second).all():
        raise DomainError(
            f"second-difference step h = {h!r} is too small: the difference "
            f"over h^2 is not finite (population scale Lambda/mu = {scale!r})")
    a_fd = float(v @ second)
    if not scale > _PROBE_FLOOR:
        raise DomainError(
            f"population scale Lambda/mu = {scale!r} is not above the "
            f"{_PROBE_FLOOR!r}-person floor of the jacobian probe steps")
    kappa = 1e-5
    points, jsteps = _jacobian_probes(dfe3)
    jp, jm = [_richardson_jacobian(hiv_submodel_rhs(points, pp), jsteps)
              for pp in (dataclasses.replace(pstar, beta2=bstar + kappa),
                         dataclasses.replace(pstar, beta2=bstar - kappa))]
    b_fd = float(v @ ((jp - jm) / (2.0 * kappa)) @ w)

    for closed, fd, name in ((a, a_fd, "a"), (b, b_fd, "b")):
        if abs(closed - fd) > 1e-6 * max(abs(closed), abs(fd)):
            raise ConvergenceError(
                f"bifurcation coefficient {name}: closed form and finite "
                f"differences disagree ({closed} vs {fd})")
    for array in (w, v):
        array.setflags(write=False)
    return BifurcationReport(beta_star=bstar, w=w, v=v, a=a, b=b,
                             a_fd=a_fd, b_fd=b_fd,
                             zero_eig_residual=residual)


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
