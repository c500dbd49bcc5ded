"""Exact people-scaling of the threshold path and the equilibrium solves.

The model is homogeneous in people: recruitment Lambda -> c Lambda scales
the disease-free population Lambda/mu and every state by c, and leaves every
per-capita quantity unchanged. For c = 2^k each product and quotient with c
is exact in floating point, so the threshold path must reproduce the
symmetry bit for bit. Each test states the range of k over which that was
checked to hold.
"""
import dataclasses
import math

import numpy as np
import pytest

from syndemic.equilibria import hiv_free, syndemic, tb_free_numeric
from syndemic.model import Parameters
from syndemic.scenarios import initial_state
from syndemic.reproduction import ngm_decomposition, r0
from syndemic.stability import (bifurcation_analysis, dfe_trace_det,
                                stability_report)

RATE_PAIRS = ([(6.0, 0.1), (2.7, 0.03), (13.0, 0.06), (4.3, 0.1),
               (50.0, 0.1)]
              + [(float(b1), float(b2))
                 for b1 in np.geomspace(0.5, 50.0, 4)
                 for b2 in np.geomspace(0.005, 0.5, 7)])


def _bits(value):
    return np.asarray(value).tobytes()


def _scaled(p: Parameters, k: int) -> Parameters:
    return dataclasses.replace(p, Lambda=math.ldexp(p.Lambda, k))


def _threshold_outputs(p: Parameters):
    # everything the threshold path reports that is a per-capita quantity
    dfe = np.zeros(10)
    dfe[0] = p.Lambda / p.mu
    numbers = r0(p)
    decomp = ngm_decomposition(p)
    return (_bits([numbers.r1, numbers.r2]), _bits(decomp.rho),
            _bits(decomp.K_small), _bits(stability_report(dfe, p).eigenvalues),
            _bits(dfe_trace_det(p)))


@pytest.mark.parametrize("beta1,beta2", RATE_PAIRS)
def test_threshold_outputs_invariant_under_people_scaling(beta1, beta2):
    # exact for Lambda -> 2^k Lambda, k in [-20, 40]: R1, R2, rho, K_small,
    # the disease-free spectrum, and the trace and determinant there
    p = Parameters(beta1=beta1, beta2=beta2)
    base = _threshold_outputs(p)
    for k in range(-20, 41):
        assert _threshold_outputs(_scaled(p, k)) == base, k


def test_bifurcation_report_under_people_scaling():
    # exact for Lambda -> 2^k Lambda, k in [-30, 60]: beta_star and b are
    # per-capita, and a, a curvature per person, goes as 2^-k
    p = Parameters(beta1=6.0, beta2=0.1)
    base = bifurcation_analysis(p)
    for k in range(-30, 61):
        rep = bifurcation_analysis(_scaled(p, k))
        assert _bits(rep.beta_star) == _bits(base.beta_star), k
        assert _bits(rep.b) == _bits(base.b), k
        assert _bits(rep.a) == _bits(math.ldexp(base.a, -k)), k


@pytest.mark.parametrize("beta1,beta2", [(6.0, 0.1), (13.0, 0.06),
                                         (2.7, 0.03), (5.5, 0.3), (1e4, 50.0)])
@pytest.mark.parametrize("n_ref", [None, 50000.0])
def test_equilibrium_solves_under_people_scaling(beta1, beta2, n_ref):
    # exact for Lambda, the seed and a pinned n_ref -> 2^k times themselves,
    # k in [-20, 40]: the pressures, so the Newton steps, are per-capita, and
    # y(lambda) is linear in Lambda. The kind is not: an infected group is
    # present above 0.01 persons, so it is checked for k >= 0 only
    p = Parameters(beta1=beta1, beta2=beta2)
    seed = initial_state()

    def solves(p, k):
        n = None if n_ref is None else math.ldexp(n_ref, k)
        return (syndemic(p, np.ldexp(seed, k), n_ref=n), hiv_free(p, n_ref=n),
                tb_free_numeric(p, n_ref=n))
    base = solves(p, 0)
    for k in range(-20, 41, 4):
        for got, want in zip(solves(_scaled(p, k), k), base):
            assert _bits(got.state) == _bits(np.ldexp(want.state, k)), k
            assert got.stats == want.stats, k
            assert got.kind == want.kind or k < 0, k
