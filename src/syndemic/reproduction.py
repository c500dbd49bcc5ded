"""Reproduction numbers: the hand-written closed forms R1 and R2, and the
next-generation matrix (van den Driessche & Watmough 2002), built in closed
form from the flow matrices and the Jacobian of the model module.

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

from .model import (DomainError, INFECTED_INDICES, Parameters,
                    flow_matrices, full_jacobian)
from .stability import eigenvalues


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
    """HIV reproduction number, AIDS stage weighted by its infectivity."""
    p = params
    d3 = p.rho1 + p.mu
    d4 = p.alpha1 + p.mu + p.dA
    return (_prefactor(p, n_ref) * p.beta2 * (d4 + p.eta * p.rho1)
            / (d3 * d4 - p.alpha1 * p.rho1))


def r0(params: Parameters, n_ref: Optional[float] = None) -> ReproductionNumbers:
    """Bundle r1, r2, and their max under one population convention."""
    r1 = r1_closed(params, n_ref)
    r2 = r2_closed(params, n_ref)
    return ReproductionNumbers(r1=r1, r2=r2, r0=max(r1, r2),
                               n_ref=params.Lambda / params.mu if n_ref is None else float(n_ref))


@dataclass
class NextGenDecomposition:
    infected_indices: Tuple[int, ...]
    F: np.ndarray            # 8x8 new-infection matrix
    V: np.ndarray            # 8x8 transition matrix
    rho: float


def ngm_decomposition(params: Parameters) -> NextGenDecomposition:
    """Next-generation matrices at the disease-free state, in closed form.

    There both pressures vanish, so new infections enter only through their
    gradients beta w / N (N = Lambda / mu): on the infected block,
    F = (CT y) (beta1 w_T / N)^T + (CH y) (beta2 w_H / N)^T, from the same
    flow matrices as model.full_jacobian, and the transitions are the rest
    of that Jacobian block, V = F - J. rho reproduces max(r1, r2) at the
    disease-free scale; the tests check that, and F and V against finite
    differences of a flow-list reading of the model.
    """
    p = params
    idx = np.ix_(INFECTED_INDICES, INFECTED_INDICES)
    n = p.Lambda / p.mu
    dfe = np.zeros(10)
    dfe[0] = n
    _, maps, weights = flow_matrices(p)
    f_mat = ((maps[1:] @ dfe).T @ (weights / n))[idx]
    v_mat = f_mat - full_jacobian(dfe, p)[idx]
    try:
        k_mat = f_mat @ np.linalg.inv(v_mat)
    except np.linalg.LinAlgError as exc:
        raise DomainError("transition matrix is singular") from exc
    rho = max(abs(lam) for lam in eigenvalues(k_mat))     # spectral radius
    return NextGenDecomposition(infected_indices=INFECTED_INDICES,
                                F=f_mat, V=v_mat, rho=rho)
