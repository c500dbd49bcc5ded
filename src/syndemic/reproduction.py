"""Reproduction numbers: the hand-written closed forms R1 and R2, and the
next-generation matrix (van den Driessche & Watmough 2002), built in closed
form from the flow matrices of the model module.

New infections enter the infected classes through two columns only, the TB
and HIV entry flows out of S, so at the disease-free state F = U W has rank
2: U (8 x 2) holds those entry columns and W (2 x 8) the pressure gradients.
V = -A_inf is the block of linear flows. The nonzero spectrum of
K = F V^-1 is then that of the 2 x 2 matrix K_small = W V^-1 U (Diekmann,
Heesterbeek & Roberts 2010, J. R. Soc. Interface 7:873). Its off-diagonal
entries vanish, since the two diseases decouple at the disease-free state,
so K_small is diag(R1, R2) and R0 = max(R1, R2). K_small is nonnegative, so
its spectral radius is its Perron root, taken in closed form: the NGM path
makes no eigen-decomposition.

The closed forms carry an explicit reference-population argument because the
published benchmark values mix two conventions: the table sweeps use the
disease-free population (prefactor exactly 1), while the stability examples
use the initial census of 50000 (prefactor 0.9996).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .model import DomainError, INFECTED_INDICES, Parameters, S, flow_matrices
from .stability import bifurcation_threshold


class ReproductionNumbers(NamedTuple):
    r1: float
    r2: float
    r0: float
    n_ref: float


def _prefactor(params: Parameters, n_ref: Optional[float]) -> float:
    s0 = params.Lambda / params.mu
    if n_ref is None:
        return 1.0
    if not 0 < n_ref < math.inf:
        raise DomainError("n_ref must be finite and positive")
    return s0 / n_ref


def r1_closed(params: Parameters, n_ref: Optional[float] = None) -> float:
    """TB reproduction number: new latent cases per active case, times the
    fraction progressing to active disease."""
    p = params
    d1 = p.k1 + p.tau1 + p.mu
    d2 = p.tau2 + p.dT + p.mu
    return _prefactor(p, n_ref) * p.beta1 * p.k1 / (d1 * d2)


def r2_closed(params: Parameters, n_ref: Optional[float] = None) -> float:
    """HIV reproduction number, AIDS stage weighted by its infectivity: beta2
    over the threshold rate at which it is 1."""
    p = params
    return _prefactor(p, n_ref) * p.beta2 / bifurcation_threshold(p)


def r0(params: Parameters, n_ref: Optional[float] = None) -> ReproductionNumbers:
    """Bundle r1, r2, and their max under one population convention.

    The closed forms compute in Python floats, which overflow to inf (or
    reach nan) without a warning, so a non-finite R1 or R2 raises
    DomainError naming the overflow.
    """
    r1 = r1_closed(params, n_ref)
    r2 = r2_closed(params, n_ref)
    overflowed = [f"{name} = {value!r}"
                  for name, value in (("R1", r1), ("R2", r2))
                  if not math.isfinite(value)]
    if overflowed:
        raise DomainError("reproduction number overflow: "
                          + ", ".join(overflowed))
    return ReproductionNumbers(r1=r1, r2=r2, r0=max(r1, r2),
                               n_ref=params.Lambda / params.mu if n_ref is None else float(n_ref))


_INFECTED = np.array(INFECTED_INDICES)
_INFECTED_BLOCK = np.ix_(_INFECTED, _INFECTED)


@dataclass
class NextGenDecomposition:
    infected_indices: Tuple[int, ...]
    F: np.ndarray            # 8x8 new-infection matrix, U W
    V: np.ndarray            # 8x8 transition matrix, -A_inf
    K_small: np.ndarray      # 2x2 W V^-1 U, diag(R1, R2)
    rho: float


def _perron_root(k: np.ndarray) -> float:
    """Spectral radius of a nonnegative 2 x 2 matrix [[a, b], [c, d]]: its
    Perron root (a + d)/2 + sqrt(((a - d)/2)^2 + b c), real since b c >= 0.
    Halving first and hypot keep the sum and the square from overflowing;
    hypot gives |a - d|/2 exactly when b c = 0."""
    (a, b), (c, d) = k.tolist()
    return a / 2.0 + d / 2.0 + math.hypot(a / 2.0 - d / 2.0, math.sqrt(b * c))


def ngm_decomposition(params: Parameters) -> NextGenDecomposition:
    """Next-generation matrices at the disease-free state, in closed form.

    There both pressures vanish, so new infections enter only through their
    gradients W = (beta1 w_T, beta2 w_H) / N (N = Lambda / mu) and the entry
    columns U = (CT y, CH y) of the flow matrices: on the infected block
    F = U W, and the transitions are the linear flows, V = -A. (The
    Jacobian block there is A + F.) K_small = W V^-1 U comes from one
    solve against U. It is nonnegative, since V is an M-matrix and U and
    W are nonnegative, so its spectral radius rho is its Perron root,
    (a + d)/2 + sqrt(((a - d)/2)^2 + b c), taken in closed form with no
    eigen-decomposition; it reproduces max(r1, r2) at the disease-free
    scale. The tests check that, the diagonal of K_small against r1 and r2
    separately, rho against the eigenvalues of K_small, and F and V
    against finite differences of a flow-list reading of the model.
    """
    p = params
    n = p.Lambda / p.mu
    _, maps, weights, _ = flow_matrices(p)
    u_mat = maps[1:, _INFECTED, S].T * n     # (CT y, CH y) at y = n e_S
    w_mat = (weights / n)[:, _INFECTED]
    v_mat = -maps[0][_INFECTED_BLOCK]
    try:
        k_small = w_mat @ np.linalg.solve(v_mat, u_mat)
    except np.linalg.LinAlgError as exc:
        raise DomainError("transition matrix is singular") from exc
    rho = _perron_root(k_small)
    if not math.isfinite(rho):
        raise DomainError("next-generation matrix entries must be finite")
    return NextGenDecomposition(infected_indices=INFECTED_INDICES,
                                F=u_mat @ w_mat, V=v_mat, K_small=k_small,
                                rho=rho)
