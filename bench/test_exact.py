"""Checks of the exact-solution reference against the paper's closed forms.

Run with ``python3 -m pytest bench/test_exact.py``; the repository's own
test suite does not collect this file.
"""

import math

import numpy as np
import pytest

import exact

MIXED = [1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("m", [0.5, 1.0, 1.7])
def test_linear_cptp_exponential_law(m):
    ch = exact.preset("linear_cptp", m=m)
    for t in (0.1, 0.5, 2.0, 5.0):
        y, _ = ch.solve(MIXED, t)
        assert y[1] == pytest.approx(1.0 - math.exp(-4 * m * m * t), rel=1e-12)
        assert abs(y[0] - 1.0) < 1e-13 and max(abs(y[2]), abs(y[3])) < 1e-13


@pytest.mark.parametrize("m,x0", [(0.5, 0.0), (1.0, 0.3), (1.3, -0.4)])
def test_onejump_rational_law(m, x0):
    ch = exact.preset("onejump_nino", m=m)
    for t in (0.5, 2.0, 10.0):
        y, _ = ch.solve([1.0, x0, 0.0, 0.0], t)
        want = 1.0 - 1.0 / (1.0 / (1.0 - x0) + 2 * m * m * t)
        assert y[1] == pytest.approx(want, rel=1e-11)
        assert y[0] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("M,gamma", [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0)])
def test_threejump_rotated_rates(M, gamma):
    ch = exact.preset("threejump_nino", M=M, gamma=gamma)
    for t in (0.3, 1.0, 2.0):
        y, _ = ch.solve([1.0, 0.01, 0.0, 0.0], t)
        xi_plus, xi_minus = 0.5 * (y[2] + y[1]), 0.5 * (y[2] - y[1])
        assert xi_plus == pytest.approx(0.005 * math.exp((M - gamma) * t), rel=1e-11)
        assert xi_minus == pytest.approx(-0.005 * math.exp(-(M + gamma) * t), rel=1e-11)


def test_threejump_matches_its_linear_dual_on_the_plane():
    a, b = exact.preset("threejump_nino", M=1.2, gamma=0.3), exact.preset(
        "linear_noncp", M=1.2, gamma=0.3)
    for t in (0.5, 2.0):
        ya, _ = a.solve([1.0, 0.1, -0.2, 0.3], t)
        yb, _ = b.solve([1.0, 0.1, -0.2, 0.3], t)
        assert exact.rel_dev(ya, yb) < 1e-12


@pytest.mark.parametrize("a,tau0", [(1.0, 1.5), (2.0, 1.25), (0.5, 3.0)])
def test_blow_up_time(a, tau0):
    ch = exact.Channel(-a * exact.I2, [], g=1.0)
    t_star = math.log(tau0 / (tau0 - 1.0)) / (2.0 * a)
    _, s = ch.solve([tau0, 0.0, 0.0, 0.0], t_star)
    assert abs(s) < 1e-13
    _, s_before = ch.solve([tau0, 0.0, 0.0, 0.0], 0.999 * t_star)
    assert s_before > 0.0


def test_solution_satisfies_the_equation_of_motion():
    rng = np.random.default_rng(3)
    jumps = [(exact.pauli_sum(rng.normal(size=4) + 1j * rng.normal(size=4)), 1)
             for _ in range(2)]
    ch = exact.Channel(exact.pauli_sum(rng.normal(size=4)), jumps, g=0.5,
                       h=rng.normal(size=3))
    y0, t, dt = np.array([1.0, 0.2, -0.1, 0.3]), 0.4, 1e-5
    (yp, _), (ym, _), (y, _) = (ch.solve(y0, t + dt), ch.solve(y0, t - dt),
                                ch.solve(y0, t))
    dydt = (yp - ym) / (2 * dt)
    want = exact.coords(ch.rhs(exact.operator(y))).real
    assert np.abs(dydt - want).max() < 1e-7 * max(1.0, np.abs(want).max())


def test_choi_spectrum():
    cptp = exact.preset("linear_cptp", m=1.0)
    assert np.allclose(cptp.choi_spectrum(0.0), [0, 0, 0, 2], atol=1e-15)
    assert cptp.choi_spectrum(1.0).min() > -1e-14
    assert exact.preset("linear_noncp", M=1.0, gamma=0.5).choi_spectrum(0.05).min() < -1e-3
