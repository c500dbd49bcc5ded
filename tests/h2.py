"""The infection pressures at a state, and the sign condition (H2) of the
global-stability argument: routes that only the tests use, beside
tests/submodels.py. force_of_infection reads the pressure weights of
``flow_matrices`` and the denominator checks of syndemic.model.
"""
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from syndemic.model import (DomainError, Parameters, _as_state, _denominator,
                            flow_matrices)


class ForceOfInfection(NamedTuple):
    """Per-capita infection pressures, 1/year."""

    lambdaT: float
    lambdaH: float


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
