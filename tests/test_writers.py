"""The CSV and SVG trajectory writers against a per-value reference copy
(tests/writers_reference.py), byte for byte."""
import numpy as np
import pytest

import writers_reference as reference
from syndemic.cli import emit_svg
from syndemic.dynamics import Trajectory, integrate
from syndemic.model import COMPARTMENTS, Parameters, full_rhs
from syndemic.scenarios import initial_state, trajectory_csv


def _around(boundary):
    # the double nearest a decimal rounding boundary and its two neighbours
    return [np.nextafter(boundary, -np.inf), boundary,
            np.nextafter(boundary, np.inf)]


def _edge_trajectory():
    # signed zeros, the smallest subnormal, extremes, integers past 2**53,
    # and values one ulp either side of a rounding boundary of the 10th
    # and the 8th significant digit, some carrying into a new digit
    states = np.array([
        [-0.0, 0.0, 5e-324, 1e-300, 1e300, 2.0 ** 53, 2.0 ** 53 + 2,
         123456789012.0, 1e22, 7.0],
        [*_around(1.2345678905), *_around(1.23456785),
         *_around(9.9999999995), -0.0],
        [*_around(99999999.5), *_around(0.125), *_around(1e15), 0.0],
        [2.5, 3.0, 1e-7, 0.0, 5e-324, 1.0, 0.0, -0.0, 4e4, 1e-300],
    ])
    times = np.array([-0.0, *_around(1.2345678905)])
    return Trajectory(times=times, states=states)


def _model_trajectory():
    params = Parameters(beta1=13.0, beta2=0.06)
    return integrate(lambda t, y, out: full_rhs(y, params, None, out),
                     initial_state(), 0.0, 20.0,
                     report_times=np.linspace(0.0, 20.0, 241))


@pytest.mark.parametrize("make", [_edge_trajectory, _model_trajectory])
@pytest.mark.parametrize("spec, newline", [(".10g", "\r\n"), (".8g", "\n")])
def test_trajectory_csv_matches_per_value_formatting(make, spec, newline):
    traj = make()
    assert (trajectory_csv(traj, spec, newline)
            == reference.trajectory_csv(traj, spec, newline))


@pytest.mark.parametrize("make", [_edge_trajectory, _model_trajectory])
@pytest.mark.parametrize("selection", [COMPARTMENTS, ("aids", "active_tb")])
def test_svg_matches_per_value_formatting(make, selection):
    traj = make()
    assert emit_svg(traj, selection) == reference.emit_svg(traj, selection)
