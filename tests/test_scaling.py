"""Exact scaling of the threshold path, the equilibrium solves and
``integrate``.

The model is homogeneous in people: recruitment Lambda -> c Lambda scales
the disease-free population Lambda/mu and every state by c, and leaves every
per-capita quantity unchanged. It is homogeneous in time as well: every
per-year rate times c runs the same trajectory c times faster. For c = 2^k
each product and quotient with c is exact in floating point, so the code
must reproduce both symmetries bit for bit. Each test states the range of k
over which that was checked to hold.
"""
import dataclasses
import math

import numpy as np
import pytest

from syndemic.dynamics import integrate
from syndemic.equilibria import hiv_free, syndemic, tb_free_numeric
from syndemic.model import Parameters, full_rhs
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
    # exact for Lambda -> 2^k Lambda, k in [-1039, 1000]: beta_star, b and
    # the null vectors are per-capita, and a, a curvature per person, goes
    # as 2^-k. That is the whole range in which the closed form's scaled
    # numbers stay exact: below -1039, 2^k Lambda (714, nine significant
    # bits) loses bits among the subnormal numbers, and above 1000 so does
    # the first product in a, v2 (2 beta_star mu / Lambda), 3.1e-7 at k = 0.
    p = Parameters(beta1=6.0, beta2=0.1)
    base = bifurcation_analysis(p)
    for k in range(-1039, 1001):
        rep = bifurcation_analysis(_scaled(p, k))
        assert _bits(rep.beta_star) == _bits(base.beta_star), k
        assert _bits(rep.b) == _bits(base.b), k
        assert _bits(rep.w) == _bits(base.w), k
        assert _bits(rep.v) == _bits(base.v), k
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


def _twenty_years(p: Parameters, y0, t1=20.0):
    return integrate(lambda t, y, out: full_rhs(y, p, out=out), y0, 0.0, t1)


def test_integrate_under_people_scaling():
    # Lambda and y0 -> 2^k times themselves scale every stored state by 2^k,
    # bit for bit, with the same steps. Checked one k at a time over
    # [-15, 999], tested here at its ends and between: below -15 the
    # population drops under the 1-person floor of abs_tol = 1e-8 max(1, N)
    p = Parameters(beta1=6.0, beta2=0.1)
    y0 = initial_state()
    base = _twenty_years(p, y0)
    for k in (-15, -7, -1, 1, 10, 100, 500, 999):
        got = _twenty_years(_scaled(p, k), np.ldexp(y0, k))
        assert _bits(got.times) == _bits(base.times), k
        assert _bits(got.states) == _bits(np.ldexp(base.states, k)), k
        assert got.stats == base.stats, k


# the per-year rates; beta1p, beta2p, psi, delta and eta are ratios
_PER_YEAR = [f.name for f in dataclasses.fields(Parameters)
             if f.name not in ("beta1p", "beta2p", "psi", "delta", "eta")]


def test_integrate_under_time_scaling():
    # every per-year rate (Lambda included) times c = 2^k and the horizon
    # over c give the same states at the times over c, bit for bit, with
    # the same steps. Checked one k at a time over [-1011, 34], tested here
    # at its ends and between: above 34 the first step, horizon/1000, falls
    # under the 1e-12-year step floor, and below -1011 the smallest rate
    # loses bits among the subnormal numbers
    p = Parameters(beta1=6.0, beta2=0.1)
    y0 = initial_state()
    base = _twenty_years(p, y0)
    for k in (-1011, -300, -20, -1, 1, 5, 20, 34):
        c = math.ldexp(1.0, k)
        fast = dataclasses.replace(
            p, **{name: getattr(p, name) * c for name in _PER_YEAR})
        got = _twenty_years(fast, y0, 20.0 / c)
        assert _bits(got.times) == _bits(base.times / c), k
        assert _bits(got.states) == _bits(base.states), k
        assert got.stats == base.stats, k
