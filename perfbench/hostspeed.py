"""The host's speed, read from a fixed slice of the benchmark's own work.

On a shared host the same code runs up to 1.8 times slower for seconds to
minutes at a time (README, "Drift and bounds"). The worker times a short
slice of fixed work at the start of every round and then whenever
INTERVAL_S have passed since the last one, between items. ``scale``
multiplies each item's wall time by REFERENCE_SLICE_S over the mean of the
NEIGHBOURS slices nearest to it in time, so that the reported times read
as if the whole run had been made at the reference speed.

The slice mixes the three kinds of work the workloads do: Runge-Kutta
steps of a Python right-hand side on ten-element arrays, eigenvalues of
10 x 10 matrices, and formatting floats into CSV rows. It uses nothing
from ``syndemic``, so a change to the program cannot change it.
"""
import time
import types

import numpy as np

import reference as ref

# The model's baseline rates at beta1 = 6, beta2 = 0.1, written out here
# so that the slice does not read them from the program.
_RATES = types.SimpleNamespace(
    beta1=6.0, beta2=0.1, Lambda=714.0, mu=1.0 / 70.0, beta1p=0.9, beta2p=1.1,
    k1=1.0, k2=1.3, tau1=1.0, tau2=2.0, tau3=2.0, tau4=1.0, rho1=0.1,
    rho2=0.25, rho3=0.125, alpha1=0.33, alpha2=0.33, psi=1.07, delta=1.03,
    eta=1.02, dT=0.125, dA=0.3, dTA=0.33)
_MATRIX = np.sin(np.arange(100.0)).reshape(10, 10)
RK4_STEPS = 30
EIGEN_SOLVES = 80
CSV_ROWS = 40
INTERVAL_S = 0.25
NEIGHBOURS = 4
# A slice's time at the host's fast state, measured on the 2-vCPU host of
# the README's reference figures. Scaled times read in this host's seconds.
REFERENCE_SLICE_S = 0.0045


def _work():
    y, h = ref.ENDEMIC_STATE.copy(), 0.01
    for _ in range(RK4_STEPS):
        k1 = ref.rhs(y, _RATES)
        k2 = ref.rhs(y + 0.5 * h * k1, _RATES)
        k3 = ref.rhs(y + 0.5 * h * k2, _RATES)
        k4 = ref.rhs(y + h * k3, _RATES)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    for i in range(EIGEN_SOLVES):
        np.linalg.eigvals(_MATRIX + i)
    rows = [",".join(f"{v * (1.0 + i * 1e-3):.8g}" for v in y) for i in range(CSV_ROWS)]
    return y, rows


def slice_seconds():
    """Wall time of one slice of the fixed work."""
    start = time.perf_counter_ns()
    _work()
    return (time.perf_counter_ns() - start) / 1e9


def timed_slice():
    """(midpoint on the perf_counter clock, seconds) of one slice."""
    start = time.perf_counter()
    seconds = slice_seconds()
    return start + seconds / 2.0, seconds


def scale(items, slices):
    """Each item's wall time, scaled to the reference speed.

    ``items`` holds (wall time, midpoint) and ``slices`` (midpoint, seconds)
    in time order, all midpoints on the perf_counter clock. An item's time is
    multiplied by REFERENCE_SLICE_S over the mean of the NEIGHBOURS slices
    whose midpoints lie nearest to its own.
    """
    at = np.array([mid for mid, _ in slices])
    cumulative = np.concatenate(([0.0], np.cumsum([sec for _, sec in slices])))
    width = min(NEIGHBOURS, len(at))
    mids = np.array([mid for _, mid in items])
    lo = np.clip(np.searchsorted(at, mids) - width // 2, 0, len(at) - width)
    factors = REFERENCE_SLICE_S * width / (cumulative[lo + width] - cumulative[lo])
    return [elapsed * float(f) for (elapsed, _), f in zip(items, factors)]
