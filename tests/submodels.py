"""The single-disease sub-models as right-hand sides of their own, the
verdict of a whole spectrum, and a sub-model's verdict at a state: routes
that only the tests use.

Each sub-model is the full system restricted to a zero-padded state, so the
restriction property holds bit for bit by construction. ``full_rhs`` is
looked up on ``syndemic.model`` at each call, so a counter installed there
sees the calls made through these routes.
"""
from typing import Optional

import numpy as np

import syndemic.model as model
from syndemic.model import (_HIV_SUB_INDICES, _TB_SUB_INDICES,
                            N_COMPARTMENTS, Parameters, _as_state,
                            _denominator, full_jacobian)
from syndemic.stability import _classification, eigenvalues


def _restricted_rhs(y_sub, indices, params: Parameters,
                    n_ref: Optional[float]) -> np.ndarray:
    # one sub-state (k,), zero-padded to (10,)
    y_sub = _as_state(y_sub, len(indices))
    _denominator(y_sub, n_ref)  # zero population rejected even with beta = 0
    y = np.zeros(N_COMPARTMENTS)
    y[indices] = y_sub
    return model.full_rhs(y, params, n_ref)[indices]


def hiv_submodel_rhs(state3, params: Parameters,
                     n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 3-compartment HIV-only system (S, pre-AIDS, AIDS).

    Equivalent to the full system with every TB compartment held at zero;
    the denominator is then S + I_H + A.
    """
    return _restricted_rhs(state3, _HIV_SUB_INDICES, params, n_ref)


def tb_submodel_rhs(state4, params: Parameters,
                    n_ref: Optional[float] = None) -> np.ndarray:
    """Derivative of the 4-compartment TB-only system (S, latent, active,
    recovered), the full system with every HIV compartment at zero."""
    return _restricted_rhs(state4, _TB_SUB_INDICES, params, n_ref)


def classify(eigs) -> str:
    """stable / unstable / marginal by the dominant real part."""
    return _classification(max(e.real for e in eigs))


def submodel_classification(state, params: Parameters,
                            n_ref: Optional[float], indices) -> str:
    """The verdict of the sub-model on indices at a 10-state: the spectrum,
    by the checked ``eigenvalues``, of its block of the full Jacobian."""
    j = full_jacobian(state, params, n_ref)[np.ix_(indices, indices)]
    return classify(eigenvalues(j))
