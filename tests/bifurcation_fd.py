"""The centre-manifold coefficients a and b of the HIV-only sub-model by
finite differences, written apart from syndemic.stability so that the tests
have an independent route to the closed forms of ``bifurcation_analysis``.

Both are taken at the disease-free state (Lambda/mu, 0, 0) and the threshold
rate beta*, on the self-consistent field (the mixing denominator moves with
the state, as in the closed forms), and projected with the closed-form null
vectors w and v:

- a_fd = v . D2f[w, w], the second difference of ``hiv_submodel_rhs`` along
  w with steps h/2 and h, h = 1e-3 (Lambda/mu) / max|w|, whose O(h^2) term
  one Richardson level removes;
- b_fd = v . (dJ/dbeta2) w, the central difference of two ``fd_jacobian``
  calls at beta* +- 1e-5.

Beside them, ``left_null_vector_exact`` evaluates the closed form of v in
exact rational arithmetic on the same float rates.
"""
import math
from fractions import Fraction

import numpy as np

from submodels import hiv_submodel_rhs
from syndemic.model import Parameters
from syndemic.stability import fd_jacobian

KAPPA = 1e-5   # the beta2 step of b_fd


def coefficients_fd(params: Parameters, report) -> tuple[float, float]:
    """(a_fd, b_fd) for ``report = bifurcation_analysis(params)``."""
    p = params
    # the sub-model's rates at beta2 = beta*, every other rate at its
    # default: the sub-model never reads them
    def at(beta2):
        return Parameters(beta1=0.0, beta2=beta2, Lambda=p.Lambda, mu=p.mu,
                          rho1=p.rho1, alpha1=p.alpha1, dA=p.dA, eta=p.eta)

    bstar, w, v = report.beta_star, report.w, report.v
    scale = p.Lambda / p.mu
    dfe3 = np.array([scale, 0.0, 0.0])

    h = 1e-3 * scale / float(np.max(np.abs(w)))
    steps = np.array([h / 2.0, h])
    along_w = steps[:, None] * w
    centre = at(bstar)
    # rows: the centre, then dfe3 + s*w and dfe3 - s*w for s = h/2, h
    f = np.array([hiv_submodel_rhs(y, centre)
                  for y in (dfe3, *(dfe3 + along_w), *(dfe3 - along_w))])
    second = (f[1:3] - 2.0 * f[0] + f[3:5]) / (steps ** 2)[:, None]
    a_fd = float(v @ ((4.0 * second[0] - second[1]) / 3.0))

    jp, jm = [fd_jacobian(lambda y, q=at(beta2): hiv_submodel_rhs(y, q), dfe3)
              for beta2 in (bstar + KAPPA, bstar - KAPPA)]
    b_fd = float(v @ ((jp - jm) / (2.0 * KAPPA)) @ w)
    return a_fd, b_fd


def left_null_vector_exact(params: Parameters) -> tuple[float, float]:
    """(v2, v3) of ``bifurcation_analysis(params)`` evaluated in exact
    rational arithmetic on the same float rates, each rounded once:
    v2 = rho1 / (d4 + rho1 + mu - beta*), v3 = v2 (rho1 + mu - beta*) / rho1,
    with d4 = alpha1 + mu + dA and beta* the threshold rate."""
    mu, rho1, alpha1, d_a, eta = map(Fraction, (
        params.mu, params.rho1, params.alpha1, params.dA, params.eta))
    d4 = alpha1 + mu + d_a
    bstar = (mu * alpha1 + (mu + rho1) * (mu + d_a)) / (d4 + eta * rho1)
    v2 = rho1 / (d4 + rho1 + mu - bstar)
    return float(v2), float(v2 * (rho1 + mu - bstar) / rho1)


def assert_left_null_vector_exact(params: Parameters, report) -> None:
    """The report's v2 and v3 within 1 ulp of ``left_null_vector_exact``."""
    for got, exact in zip(report.v[1:], left_null_vector_exact(params)):
        assert abs(got - exact) <= math.ulp(exact), (got, exact)
