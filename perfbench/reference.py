"""The benchmark's own reading of the model: the checks compare against this.

Nothing here imports ``syndemic``. The right-hand side is written as a list
of flows between compartments, not copied from ``model.full_rhs``, so a
typo in either shows up as a failed residual or trajectory check. The
published values are the paper's numbers, not a stored copy of the
program's output.
"""
import numpy as np

# Compartment order: S, LT, IT, RT, IH, A, LTH, ITH, RTH, AT.
S, LT, IT, RT, IH, A, LTH, ITH, RTH, AT = range(10)
TB_GROUP = (LT, IT, LTH, ITH, AT)
HIV_GROUP = (IH, A, LTH, ITH, RTH, AT)

PRESENT_ABOVE = 1.0      # persons: an infected group this large is present
ABSENT_BELOW = 1e-3      # persons: an infected group this small is absent

STANDARD_FRACTIONS = np.array([0.60, 0.14, 0.03, 0.0, 0.04, 0.01,
                               0.12, 0.05, 0.0, 0.01])
STANDARD_POPULATION = 50000.0

# Published values. TB sweep: beta1 -> (R1, active-TB count) with the
# denominator pinned at Lambda/mu.
TB_SWEEP = {
    4.3: (0.99788, 0.00397),
    6.0: (1.39239, 903.93492),
    10.0: (2.32065, 2206.57268),
    15.0: (3.48097, 2870.72755),
    50.0: (11.60326, 3804.50589),
}
# Endemic state at beta1 = 6, beta2 = 0.1, denominator pinned at 50000.
ENDEMIC_POINT = (6.0, 0.1, 50000.0)
ENDEMIC_STATE = np.array([4766.84, 2019.66, 943.06, 28621.89, 362.66,
                          56.29, 31.39, 55.15, 495.68, 112.33])
# Treatment family "tb", deaths on: N(20) with and without treatment.
TB_TREATMENT_N20 = {"with-treatment": 29758.0, "without-treatment": 10509.0}


def flows(y, p, n_ref=None):
    """(source, target, rate) for every transfer; None is outside the model."""
    n = float(n_ref) if n_ref is not None else float(np.sum(y))
    lam_t = p.beta1 * (y[IT] + y[ITH] + y[AT]) / n
    lam_h = p.beta2 * (y[IH] + y[LTH] + y[ITH] + y[RTH]
                       + p.eta * (y[A] + y[AT])) / n
    out = [(None, S, p.Lambda)]
    out += [(i, None, p.mu * y[i]) for i in range(10)]
    out += [(IT, None, p.dT * y[IT]), (ITH, None, p.dT * y[ITH]),
            (A, None, p.dA * y[A]), (AT, None, p.dTA * y[AT])]
    out += [
        (S, LT, lam_t * y[S]),
        (S, IH, lam_h * y[S]),
        (LT, IT, p.k1 * y[LT]),
        (LT, RT, p.tau1 * y[LT]),
        (IT, RT, p.tau2 * y[IT]),
        (IT, ITH, p.delta * lam_h * y[IT]),
        (RT, LT, p.beta1p * lam_t * y[RT]),
        (RT, IH, lam_h * y[RT]),
        (IH, A, p.rho1 * y[IH]),
        (A, IH, p.alpha1 * y[A]),
        (IH, ITH, p.psi * lam_t * y[IH]),
        (RTH, LTH, p.beta2p * lam_t * y[RTH]),
        (LTH, ITH, p.k2 * y[LTH]),
        (LTH, RTH, p.tau4 * y[LTH]),
        (ITH, RTH, p.tau3 * y[ITH]),
        (ITH, AT, p.rho2 * y[ITH]),
        (RTH, AT, p.rho3 * y[RTH]),
        (AT, ITH, p.alpha2 * y[AT]),
    ]
    return out


def rhs(y, p, n_ref=None):
    """Time derivative, people/year, summed from the flows."""
    dy = np.zeros(10)
    for source, target, rate in flows(y, p, n_ref):
        if source is not None:
            dy[source] -= rate
        if target is not None:
            dy[target] += rate
    return dy


def relative_residual(y, p, n_ref=None):
    """||rhs(y)||_2 / N, 1/year."""
    return float(np.linalg.norm(rhs(y, p, n_ref))) / float(np.sum(y))


def _scale(p, n_ref):
    return 1.0 if n_ref is None else (p.Lambda / p.mu) / n_ref


def r1(p, n_ref=None):
    """Secondary latent infections per active case, times progression."""
    d1 = p.k1 + p.tau1 + p.mu
    d2 = p.tau2 + p.dT + p.mu
    return _scale(p, n_ref) * p.beta1 * p.k1 / (d1 * d2)


def _hiv_rates(p):
    d3 = p.rho1 + p.mu
    d4 = p.alpha1 + p.mu + p.dA
    return d3, d4, d3 * d4 - p.alpha1 * p.rho1


def r2(p, n_ref=None):
    d3, d4, det = _hiv_rates(p)
    return _scale(p, n_ref) * p.beta2 * (d4 + p.eta * p.rho1) / det


def beta2_threshold(p):
    """The beta2 at which R2 (at Lambda/mu) equals 1."""
    d3, d4, det = _hiv_rates(p)
    return det / (d4 + p.eta * p.rho1)


def pinned_hiv_equilibrium(p):
    """(I_H*, A*) of the HIV-only model pinned at Lambda/mu: setting its
    right-hand side to zero gives S* = (Lambda/mu)/R2 and the values here."""
    d3, d4, det = _hiv_rates(p)
    i_h = (1.0 - 1.0 / r2(p)) * p.Lambda * d4 / det
    return i_h, p.rho1 * i_h / d4


def demographic_total(p, n0, t):
    """N(t) with every disease-induced death rate at zero."""
    n_inf = p.Lambda / p.mu
    return n_inf + (n0 - n_inf) * np.exp(-p.mu * np.asarray(t, dtype=float))


def read_kind(y):
    """The kind label the state implies, or None when an infected group
    lies between absent and present."""
    present = []
    for group in (TB_GROUP, HIV_GROUP):
        total = float(np.sum(y[list(group)]))
        if total > PRESENT_ABOVE:
            present.append(True)
        elif total < ABSENT_BELOW:
            present.append(False)
        else:
            return None
    return {(False, False): "disease-free", (True, False): "hiv-free",
            (False, True): "tb-free", (True, True): "syndemic"}[tuple(present)]
