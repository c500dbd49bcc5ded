"""The model read off its equations as a list of arrows, written apart from
syndemic.model so that the tests have an independent right-hand side.

Each arrow moves people from a source compartment to a target compartment
(or out of the population, target None) at a per-capita rate; the infection
arrows are the ones whose rate carries an infection pressure.
"""
import numpy as np

S, LT, IT, RT, IH, A, LTH, ITH, RTH, AT = range(10)


def pressures(y, p, n_ref=None):
    """(lambdaT, lambdaH): active TB drives TB; every HIV-positive class
    drives HIV, the two AIDS classes at eta times the weight."""
    n = float(np.sum(y)) if n_ref is None else n_ref
    lam_t = p.beta1 * (y[IT] + y[ITH] + y[AT]) / n
    lam_h = p.beta2 * (y[IH] + y[LTH] + y[ITH] + y[RTH]
                       + p.eta * (y[A] + y[AT])) / n
    return lam_t, lam_h


def arrows(y, p, n_ref=None):
    """(source, target, per-capita rate, new infection?) for every arrow."""
    lam_t, lam_h = pressures(y, p, n_ref)
    return [
        (S, LT, lam_t, True),
        (S, IH, lam_h, True),
        (RT, LT, p.beta1p * lam_t, True),
        (RT, IH, lam_h, True),
        (IT, ITH, p.delta * lam_h, True),
        (IH, ITH, p.psi * lam_t, True),
        (RTH, LTH, p.beta2p * lam_t, True),
        (LT, IT, p.k1, False),
        (LT, RT, p.tau1, False),
        (IT, RT, p.tau2, False),
        (IH, A, p.rho1, False),
        (A, IH, p.alpha1, False),
        (LTH, ITH, p.k2, False),
        (LTH, RTH, p.tau4, False),
        (ITH, RTH, p.tau3, False),
        (ITH, AT, p.rho2, False),
        (RTH, AT, p.rho3, False),
        (AT, ITH, p.alpha2, False),
        (IT, None, p.dT, False),
        (ITH, None, p.dT, False),
        (A, None, p.dA, False),
        (AT, None, p.dTA, False),
    ] + [(i, None, p.mu, False) for i in range(10)]


def flow_rhs(y, p, n_ref=None):
    """Recruitment into S plus every arrow's outflow and inflow."""
    f = np.zeros(10)
    f[S] = p.Lambda
    for source, target, rate, _ in arrows(y, p, n_ref):
        f[source] -= rate * y[source]
        if target is not None:
            f[target] += rate * y[source]
    return f


def infection_gains(y, p, n_ref=None):
    """Inflow of the infection arrows into their targets: the new
    infections of the next-generation matrix F."""
    g = np.zeros(10)
    for source, target, rate, infection in arrows(y, p, n_ref):
        if infection:
            g[target] += rate * y[source]
    return g
