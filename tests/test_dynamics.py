import io
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blochamp
from blochamp import (
    AffineGenerator,
    ApexReached,
    BlowUp,
    ChannelSpec,
    ConeViolation,
    HermitianPauliVector,
    IntegratorOpts,
    PsdState,
    StepFailure,
    Trajectory,
    integrate,
    rhs,
    xi_coordinates,
)
from blochamp.dynamics import CSV_HEADER, StepStats, exact_trajectory
from blochamp import dynamics, presets, shift_transform
from conftest import csv_oracle


MIXED = PsdState(1.0, [0.0, 0.0, 0.0])


class TestRhs:
    def test_linear_cptp_at_center(self):
        dr, dtau = rhs(presets.linear_cptp(1.0), MIXED)
        assert np.allclose(dr, [4.0, 0.0, 0.0], atol=1e-14)
        assert dtau == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("x", [-0.5, 0.0, 0.3, 0.9])
    def test_onejump_quadratic_law(self, x):
        dr, _ = rhs(presets.onejump_nino(1.0), PsdState(1.0, [x, 0, 0]))
        assert dr[0] == pytest.approx(2.0 * (x - 1.0) ** 2, abs=1e-13)

    @pytest.mark.parametrize("z", [-0.7, 0.4])
    def test_threejump_z_decay(self, z):
        dr, _ = rhs(presets.threejump_nino(1.0, 0.5), PsdState(1.0, [0, 0, z]))
        assert dr[2] == pytest.approx(-2.0 * z, abs=1e-13)


class TestIntegrate:
    def test_linear_cptp_closed_form(self):
        traj = integrate(presets.linear_cptp(0.5), MIXED, 1.0)
        assert traj.r[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)
        assert abs(traj.r[-1, 1]) <= 1e-12 and abs(traj.r[-1, 2]) <= 1e-12
        assert traj.stop_reason == "t_end"

    def test_fixed_point_stays_fixed(self):
        traj = integrate(presets.linear_cptp(1.0), PsdState(1.0, [1, 0, 0]), 7.0)
        assert np.abs(traj.r - [1, 0, 0]).max() <= 1e-9
        assert np.abs(traj.tau - 1.0).max() <= 1e-9

    def test_threejump_two_rate_solution(self):
        # Rotated coordinates decouple: x and y are symmetric/antisymmetric
        # combinations of exponentials at rates M - gamma and -(M + gamma).
        big_m, gamma, eps = 1.0, 0.5, 1e-3
        traj = integrate(presets.threejump_nino(big_m, gamma),
                         PsdState(1.0, [eps, 0, 0]), 10.0)
        up = math.exp((big_m - gamma) * 10.0)
        down = math.exp(-(big_m + gamma) * 10.0)
        assert traj.r[-1, 0] == pytest.approx(0.5 * eps * (up + down), rel=1e-8)
        assert traj.r[-1, 1] == pytest.approx(0.5 * eps * (up - down), rel=1e-8)
        assert abs(traj.r[-1, 2]) <= 1e-12

    def test_trace_conserved_linear(self):
        traj = integrate(presets.linear_noncp(1.0, 0.5),
                         PsdState(1.0, [0.001, 0, 0.2]), 10.0)
        assert np.abs(traj.tau - 1.0).max() <= 1e-10

    def test_trace_plane_exact_for_nonlinear(self):
        traj = integrate(presets.onejump_nino(1.0), MIXED, 10.0)
        assert np.abs(traj.tau - 1.0).max() <= 1e-8

    def test_degenerate_spec_constant(self):
        spec = ChannelSpec(HermitianPauliVector(np.zeros(4)), g=1.0)
        traj = integrate(spec, PsdState(1.0, [0.2, 0.1, 0]), 5.0)
        assert np.abs(traj.r - [0.2, 0.1, 0]).max() == 0.0

    def test_sample_times_are_hit_exactly(self):
        grid = np.linspace(0.0, 2.0, 21)
        traj = integrate(presets.linear_cptp(1.0), MIXED, 2.0,
                         sample_times=grid)
        assert np.array_equal(traj.t, grid)

    def test_monitors_populated(self):
        traj = integrate(presets.onejump_nino(1.0), MIXED, 2.0)
        assert np.all(np.isfinite(traj.purity))
        assert np.all(np.isfinite(traj.entropy))
        assert traj.purity[0] == pytest.approx(0.5)
        assert traj.entropy[0] == pytest.approx(math.log(2))
        assert np.all(np.diff(traj.t) > 0)
        assert traj.cone_margin.min() >= -1e-6
        # tr(X Omega) stays nonpositive along this gate, so the plane attracts
        assert traj.tr_x_omega.max() <= 1e-12

    def test_unsorted_repeated_sample_times(self):
        grid = np.linspace(0.0, 2.0, 21)
        shuffled = np.concatenate((grid[::-1], grid[5:9]))
        traj = integrate(presets.linear_cptp(1.0), MIXED, 2.0,
                         sample_times=shuffled)
        assert np.array_equal(traj.t, grid)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            integrate(presets.linear_cptp(1.0), MIXED, 0.0)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            integrate(presets.linear_cptp(1.0), MIXED, t_end)

    def test_rejects_non_finite_sample_times(self):
        with pytest.raises(ValueError, match="sample_times must be finite"):
            integrate(presets.linear_cptp(1.0), MIXED, 1.0,
                      sample_times=[0.5, math.nan])

    def test_nan_error_norm_is_rejected(self, monkeypatch):
        # A velocity that turns NaN after its first evaluation makes every
        # error norm NaN; such steps are rejected until the step size
        # underflows instead of being accepted until the step budget runs out.
        calls = itertools.count()
        monkeypatch.setattr(AffineGenerator, "velocity", lambda self, y: (
            np.zeros(4) if next(calls) == 0 else np.full(4, math.nan)))
        with pytest.raises(StepFailure, match="step size underflow"):
            integrate(presets.linear_cptp(1.0), MIXED, 1.0,
                      IntegratorOpts(max_steps=1000))


class TestIntegratorOpts:
    @pytest.mark.parametrize("kwargs, field", [
        ({"rtol": math.nan}, "rtol"),
        ({"rtol": math.inf}, "rtol"),
        ({"rtol": -1e-9}, "rtol"),
        ({"atol": math.nan}, "atol"),
        ({"atol": -1.0, "rtol": 0.0}, "atol"),
        ({"rtol": 0.0, "atol": 0.0}, "rtol and atol"),
        ({"max_steps": 0}, "max_steps"),
    ], ids=["rtol-nan", "rtol-inf", "rtol-negative", "atol-nan",
            "atol-negative", "both-zero", "max-steps-zero"])
    def test_rejects_bad_settings(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            IntegratorOpts(**kwargs)

    def test_pure_relative_tolerance(self):
        start = PsdState(1.0, [0.1, 0.1, 0.1])
        traj = integrate(presets.linear_cptp(0.5), start, 1.0,
                         IntegratorOpts(atol=0.0))
        ref = integrate(presets.linear_cptp(0.5), start, 1.0)
        assert np.abs(traj.r[-1] / ref.r[-1] - 1.0).max() <= 1e-8
        # With atol = 0 an exactly zero coordinate has a zero error scale; its
        # zero error counts as 0 and the run follows x(t) = 1 - e^{-t}.
        traj = integrate(presets.linear_cptp(0.5), MIXED, 1.0,
                         IntegratorOpts(atol=0.0))
        assert traj.r[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        assert np.all(traj.r[:, 1:] == 0.0)

    def test_zero_scale_error_norm(self):
        zero = np.zeros(4)
        assert dynamics._error_norm(zero, zero, zero, 1e-10, 0.0) == 0.0
        # A nonzero error over a zero scale cannot be met: the step is rejected.
        err = np.array([0.0, 1e-30, 0.0, 0.0])
        assert dynamics._error_norm(err, zero, zero, 1e-10, 0.0) == math.inf


class TestHalting:
    def test_cone_violation_on_unstable_flow(self):
        # A near-surface state along the growing diagonal exits the cone.
        start = PsdState(1.0, [0.69, 0.69, 0.0])
        with pytest.raises(ConeViolation):
            integrate(presets.linear_noncp(1.0, 0.5), start, 5.0)

    def test_apex_reached_for_contracting_trace(self):
        # Omega = 2I makes the trace decay toward the apex from tau < 1.
        spec = presets.nojump_nino(-1.0, 0.0)
        with pytest.raises(ApexReached):
            integrate(spec, PsdState(0.5, [0, 0, 0]), 15.0)

    def test_step_budget_exhausted(self):
        with pytest.raises(StepFailure):
            integrate(presets.linear_cptp(1.0), MIXED, 10.0,
                      IntegratorOpts(max_steps=3))

    def test_off_cone_instability_of_quadratic_gate(self):
        # Outside the cone the one-jump gate runs away instead of converging;
        # from x = 1 + u0 the excess follows u0/(1 - 2 u0 t), diverging at
        # t = 1/(2 u0).
        opts = IntegratorOpts(allow_off_cone=True)
        start = PsdState(1.0, [1.05, 0.0, 0.0], physical=False)
        traj = integrate(presets.onejump_nino(1.0), start, 9.0, opts)
        assert np.all(np.diff(traj.r[:, 0]) > 0)
        assert traj.r[-1, 0] == pytest.approx(1.5, rel=1e-8)

    def test_surface_stop(self):
        opts = IntegratorOpts(stop_on_surface=True)
        start = PsdState(1.0, [0.5, 0.5, 0.0])
        traj = integrate(presets.threejump_nino(1.0, 0.5), start, 10.0, opts)
        assert traj.stop_reason == "surface"
        assert abs(traj.cone_margin[-1]) <= 1e-9
        assert traj.t[-1] < 10.0

    def test_surface_stop_immediate_for_pure_start(self):
        opts = IntegratorOpts(stop_on_surface=True)
        traj = integrate(presets.linear_cptp(1.0), PsdState(1.0, [0, 0, 1]),
                         1.0, opts)
        assert traj.stop_reason == "surface"
        assert len(traj) == 1


class TestExactTrajectory:
    """The exact solution on a grid halts, stops and fails as integrate does."""

    def test_grid_and_states(self):
        traj = exact_trajectory(presets.linear_cptp(1.0), MIXED, 2.0, min_steps=50)
        # ||A||_1 = 4 sets 8 steps; min_steps sets 50.
        assert np.array_equal(traj.t, np.linspace(0.0, 2.0, 51))
        assert traj.stop_reason == "t_end"
        assert np.abs(traj.r[:, 0] - (1.0 - np.exp(-4.0 * traj.t))).max() <= 1e-14
        assert len(exact_trajectory(presets.linear_cptp(1.0), MIXED, 2.0)) == 9

    def test_cone_violation_on_unstable_flow(self):
        start = PsdState(1.0, [0.69, 0.69, 0.0])
        with pytest.raises(ConeViolation, match="left the PSD cone") as info:
            exact_trajectory(presets.linear_noncp(1.0, 0.5), start, 5.0)
        with pytest.raises(ConeViolation) as ref:
            integrate(presets.linear_noncp(1.0, 0.5), start, 5.0)
        # The first grid time outside the cone; ||A||_1 = 2 sets 10 steps of
        # 0.5, and the state crosses within the one that ends there.
        err = info.value
        assert err.t == 0.5 and err.t - 0.5 < ref.value.t
        assert np.linalg.norm(err.r) > err.tau * (1.0 + 1e-4)

    def test_apex_reached_for_contracting_trace(self):
        with pytest.raises(ApexReached, match="trace underflow"):
            exact_trajectory(presets.nojump_nino(-1.0, 0.0), PsdState(0.5, [0, 0, 0]),
                             15.0)

    def test_initial_state_checked(self):
        with pytest.raises(ConeViolation, match="initial state outside"):
            exact_trajectory(presets.linear_cptp(1.0),
                             PsdState(1.0, [2.0, 0, 0], physical=False), 1.0)
        traj = exact_trajectory(presets.onejump_nino(1.0),
                                PsdState(1.0, [1.05, 0.0, 0.0], physical=False), 9.0,
                                IntegratorOpts(allow_off_cone=True))
        assert traj.r[-1, 0] == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            exact_trajectory(presets.linear_cptp(1.0), MIXED, t_end)

    def test_grid_bounded_by_max_steps(self):
        with pytest.raises(StepFailure, match="the grid needs 40 steps"):
            exact_trajectory(presets.linear_cptp(1.0), MIXED, 10.0,
                             IntegratorOpts(max_steps=39))

    def test_surface_stop_immediate_for_pure_start(self):
        opts = IntegratorOpts(stop_on_surface=True)
        traj = exact_trajectory(presets.linear_cptp(1.0), PsdState(1.0, [0, 0, 1]),
                                1.0, opts)
        assert traj.stop_reason == "surface" and len(traj) == 1


    def test_last_grid_time_is_t_end(self, rng):
        # t_end k / n with k = n rounds to 6.593088936121537 here.
        t_end = 6.593088936121536
        traj = exact_trajectory(presets.linear_cptp(1.0), PsdState(1.0, [0.1, 0, 0]), t_end,
                                min_steps=2936)
        assert traj.t[-1] == t_end
        assert np.array_equal(traj.t, np.linspace(0.0, t_end, 2937))
        for t_end in rng.uniform(0.5, 5.0, 200):
            assert exact_trajectory(presets.linear_cptp(1.0), MIXED, t_end,
                                    min_steps=200).t[-1] == t_end

    def test_sample_rows_follow_integrate(self):
        # t = 0, the sorted distinct samples in (0, t_end], then t_end.
        shuffled = [1.5, 0.25, 0.0, 1.5, 0.75, 0.25]
        for engine, tol in ((integrate, 1e-9), (exact_trajectory, 1e-14)):
            traj = engine(presets.linear_cptp(1.0), MIXED, 2.0, sample_times=shuffled)
            assert traj.t.tolist() == [0.0, 0.25, 0.75, 1.5, 2.0]
            assert np.abs(traj.r[:, 0] - (1.0 - np.exp(-4.0 * traj.t))).max() <= tol

    @pytest.mark.parametrize("last", [2.0 * (1.0 - 1e-13), 2.0 * (1.0 + 1e-13)])
    def test_sample_within_time_window_of_t_end(self, last):
        # Within TIME_WINDOW of t_end a sample stands for t_end, which is not
        # added again.
        traj = exact_trajectory(presets.linear_cptp(1.0), MIXED, 2.0, sample_times=[1.0, last])
        assert traj.t.tolist() == [0.0, 1.0, last]
        assert np.array_equal(traj.t, integrate(presets.linear_cptp(1.0), MIXED, 2.0,
                                                sample_times=[1.0, last]).t)
        assert traj.r[-1, 0] == pytest.approx(1.0 - math.exp(-4.0 * last), rel=1e-15)

    def test_samples_on_the_grid_are_the_grid_states(self):
        plain = exact_trajectory(presets.onejump_nino(1.0), PsdState(1.2, [0.3, 0.2, 0.1]),
                                 3.0, min_steps=40)
        sampled = exact_trajectory(presets.onejump_nino(1.0), PsdState(1.2, [0.3, 0.2, 0.1]),
                                   3.0, min_steps=40, sample_times=plain.t[::-1])
        assert np.array_equal(sampled.t, plain.t)
        assert np.array_equal(sampled.tau, plain.tau) and np.array_equal(sampled.r, plain.r)

    @pytest.mark.parametrize("engine", [exact_trajectory, integrate])
    @pytest.mark.parametrize("samples, message", [
        ([0.5, math.nan], "sample_times must be finite"),
        ([math.inf], "sample_times must be finite"),
        ([-0.1, 0.5], "sample_times must lie within [0, t_end]"),
        ([0.5, 1.01], "sample_times must lie within [0, t_end]")],
        ids=["nan", "inf", "negative", "past_t_end"])
    def test_rejects_bad_samples(self, engine, samples, message):
        with pytest.raises(ValueError) as info:
            engine(presets.linear_cptp(1.0), MIXED, 1.0, sample_times=samples)
        assert str(info.value) == message

    def test_sample_states_are_checked(self):
        # The state leaves the cone before the first grid time, 0.5, and
        # is outside at the first sample, 0.05, as DP45 finds on the samples.
        start, samples = PsdState(1.0, [0.69, 0.69, 0.0]), np.linspace(0.0, 5.0, 101)
        for engine in (exact_trajectory, integrate):
            with pytest.raises(ConeViolation) as info:
                engine(presets.linear_noncp(1.0, 0.5), start, 5.0, sample_times=samples)
            assert info.value.t == 0.05
            assert np.linalg.norm(info.value.r) > info.value.tau * (1.0 + 1e-4)

    def test_surface_stop_drops_later_samples(self):
        spec, start = presets.threejump_nino(1.0, 0.5), PsdState(1.0, [0.3, 0.0, 0.0])
        opts = IntegratorOpts(stop_on_surface=True)
        t_s = exact_trajectory(spec, start, 10.0, opts).t[-1]
        samples = np.linspace(0.0, 10.0, 101)
        traj = exact_trajectory(spec, start, 10.0, opts, sample_times=samples)
        assert traj.stop_reason == "surface" and abs(traj.cone_margin[-1]) <= 1e-12
        assert traj.t[-1] == pytest.approx(t_s, rel=1e-12)
        assert np.array_equal(traj.t[:-1], samples[samples < traj.t[-1]])

    def test_blow_up_with_samples(self):
        spec = ChannelSpec(HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=1.0)
        start = PsdState(1.5, [0, 0, 0])
        with pytest.raises(BlowUp) as plain:
            exact_trajectory(spec, start, 1.1)
        with pytest.raises(BlowUp) as sampled:
            exact_trajectory(spec, start, 1.1, sample_times=[0.2, 0.4, 0.6, 1.0])
        assert sampled.value.t == plain.value.t == pytest.approx(math.log(3.0) / 2.0,
                                                                 rel=1e-12)


def shifted_threejump(c):
    """threejump_nino(1, 0.5) with L -> L + c I: A gains 2c I, so the Bloch
    vector r/tau follows the unshifted gate while Y_tau = tau0 e^{(1.25 + 2c) t}."""
    return shift_transform(presets.threejump_nino(1.0, 0.5), c)


class TestBlowUp:
    """g = 1, L = -I from (tau0, 0): tau' = 2 (1 - tau) tau, and
    s(t) = 1 + tau0 (e^{-2t} - 1) vanishes at t* = ln(tau0 / (tau0 - 1)) / 2."""

    SPEC = ChannelSpec(HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=1.0)

    @staticmethod
    def t_star(tau0):
        return math.log(tau0 / (tau0 - 1.0)) / 2.0

    @pytest.mark.parametrize("sample_times", [None, [0.0, 0.2, 0.4, 0.6, 1.0, 1.1]])
    def test_names_the_blow_up_time(self, sample_times):
        t_star = self.t_star(1.5)
        assert t_star == pytest.approx(math.log(3.0) / 2.0, rel=1e-15)
        with pytest.raises(BlowUp) as info:
            integrate(self.SPEC, PsdState(1.5, [0, 0, 0]), 1.1,
                      sample_times=sample_times)
        err = info.value
        assert err.t == pytest.approx(t_star, rel=1e-9)
        assert f"t* = {t_star:.12f}" in str(err)
        # The state carried is the exact one at a scan time before t*:
        # tau(t) = 1.5 e / (1.5 e - 0.5), e = e^{-2t}, inverted for t.
        t_carried = -0.5 * math.log(0.5 * err.tau / (1.5 * (err.tau - 1.0)))
        assert 0.0 < t_carried < t_star
        assert err.r == (0.0, 0.0, 0.0)

    def test_blow_up_within_the_first_scan_step(self):
        with pytest.raises(BlowUp) as info:
            integrate(self.SPEC, PsdState(100.0, [0, 0, 0]), 1.0)
        assert info.value.t == pytest.approx(self.t_star(100.0), rel=1e-9)
        assert info.value.tau == pytest.approx(100.0, rel=1e-14)

    def test_below_threshold_returns(self):
        traj = integrate(self.SPEC, PsdState(0.9, [0, 0, 0]), 1.1)
        assert traj.stop_reason == "t_end"
        e = math.exp(-2.0 * 1.1)
        assert traj.tau[-1] == pytest.approx(0.9 * e / (1.0 + 0.9 * (e - 1.0)), rel=1e-9)

    def test_surface_first_stops_there(self):
        # The Bloch vector reaches the surface at the unshifted gate's time
        # t_s; with c = -1.5, Y_tau = tau0 e^{-1.75 t} and s vanishes at
        # t* = ln(tau0 / (tau0 - 1)) / 1.75, after t_s for tau0 = 1.01.
        spec = shifted_threejump(-1.5)
        opts = IntegratorOpts(stop_on_surface=True)
        start = [0.5, 0.5, 0.0]
        t_s = integrate(presets.threejump_nino(1.0, 0.5), PsdState(1.0, start),
                        10.0, opts).t[-1]
        assert t_s < math.log(1.01 / 0.01) / 1.75
        tau0 = 1.01
        traj = integrate(spec, PsdState(tau0, [tau0 * v for v in start]), 10.0, opts)
        assert traj.stop_reason == "surface"
        assert traj.t[-1] == pytest.approx(t_s, rel=1e-6)

    def test_blow_up_first_raises(self):
        spec = shifted_threejump(-1.5)
        opts = IntegratorOpts(stop_on_surface=True)
        tau0 = 3.0
        t_star = math.log(tau0 / (tau0 - 1.0)) / 1.75
        with pytest.raises(BlowUp) as info:
            integrate(spec, PsdState(tau0, [0.5 * tau0, 0.5 * tau0, 0.0]), 10.0, opts)
        assert info.value.t == pytest.approx(t_star, rel=1e-9)


def test_sampled_run_and_choi_do_not_import_numpy_ma():
    code = (
        "import sys, numpy\n"
        "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
        "import blochamp as bl\n"
        "bl.integrate(bl.presets.linear_cptp(1.0), bl.PsdState(1.0, [0.1, 0, 0]), 1.0,\n"
        "             sample_times=[0.5, 0.2, 0.5, 1.0])\n"
        "bl.choi_spectra(bl.presets.linear_noncp(1.0, 0.5), [0.0, 0.1])\n"
        "sys.exit(int('numpy.ma' in sys.modules))\n")
    src = str(Path(blochamp.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 3:
        pytest.skip("importing numpy alone loads numpy.ma")
    assert proc.returncode == 0, proc.stderr


class TestTracePlaneStability:
    @pytest.mark.parametrize("tau0", [1.05, 0.95])
    def test_perturbed_trace_relaxes(self, tau0):
        # tr(X Omega) < 0 along these runs, so the unit-trace plane attracts.
        for spec in (presets.onejump_nino(1.0),
                     presets.pseudolinear_nino(1.0),
                     presets.threejump_nino(1.0, 0.5)):
            traj = integrate(spec, PsdState(tau0, [0.1, 0, 0]), 5.0)
            dev = np.abs(traj.tau - 1.0)
            assert traj.tr_x_omega.max() < 0.0
            assert dev[-1] < 0.2 * dev[0]
            assert np.all(np.diff(dev) <= 1e-12)


class TestXiCoordinates:
    def test_pre_amplified_split(self):
        xp, xm = xi_coordinates(PsdState(1.0, [0.3, 0.0, 0.0]))
        assert xp == pytest.approx(0.15) and xm == pytest.approx(-0.15)

    def test_diagonal(self):
        v = 1.0 / math.sqrt(2.0)
        xp, xm = xi_coordinates(PsdState(1.0, [v, v, 0.0]))
        assert xp == pytest.approx(v) and xm == pytest.approx(0.0, abs=1e-15)

    def test_center(self):
        assert xi_coordinates(MIXED) == (0.0, 0.0)

    def test_inverse(self, rng):
        for _ in range(20):
            x, y = rng.normal(size=2)
            xp, xm = xi_coordinates(PsdState(2.0, [x, y, 0], physical=False))
            assert xp - xm == pytest.approx(x, abs=1e-15)
            assert xp + xm == pytest.approx(y, abs=1e-15)


class TestGrowthRates:
    def test_two_rate_spectrum(self):
        opts = IntegratorOpts(rtol=1e-12, atol=1e-14)
        grid = np.linspace(0.0, 2.0, 41)
        traj = integrate(presets.threejump_nino(2.0, 1.0),
                         PsdState(1.0, [0.01, 0, 0]), 2.0, opts,
                         sample_times=grid)
        xp = 0.5 * (traj.r[:, 1] + traj.r[:, 0])
        xm = 0.5 * (traj.r[:, 1] - traj.r[:, 0])
        rate_p = np.polyfit(traj.t, np.log(np.abs(xp)), 1)[0]
        rate_m = np.polyfit(traj.t, np.log(np.abs(xm)), 1)[0]
        assert rate_p == pytest.approx(1.0, rel=1e-6)
        assert rate_m == pytest.approx(-3.0, rel=1e-6)


class TestCsv:
    def test_header_and_precision(self):
        traj = integrate(presets.linear_cptp(1.0), MIXED, 1.0,
                         sample_times=np.linspace(0, 1, 5))
        buf = io.StringIO()
        traj.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(traj)
        # 17 significant digits round-trip exactly
        row = lines[-1].split(",")
        assert float(row[1]) == traj.tau[-1]
        assert float(row[2]) == traj.r[-1, 0]

    def test_rows_match_the_per_value_oracle(self, rng):
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]
        values = np.concatenate((
            rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-325.0, 308.0, 100_000),
            rng.normal(size=1000), special))
        values = np.resize(rng.permutation(values), (len(values) // 9 + 1) * 9)
        cols = values.reshape(9, -1)
        traj = Trajectory(t=cols[0], tau=cols[1], r=cols[2:5].T, purity=cols[5],
                          entropy=cols[6], tr_x_omega=cols[7], cone_margin=cols[8],
                          stats=StepStats(0, 0, 0.0), stop_reason="t_end",
                          spec=presets.linear_cptp(1.0))
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == csv_oracle(traj)

    def test_off_cone_run_with_nan_entropy(self):
        traj = integrate(presets.onejump_nino(1.0),
                         PsdState(1.0, [1.05, 0.0, 0.0], physical=False), 9.0,
                         IntegratorOpts(allow_off_cone=True))
        assert np.isnan(traj.entropy).all()
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == csv_oracle(traj)

    def test_samples_iterator(self):
        traj = integrate(presets.linear_cptp(1.0), MIXED, 0.5)
        samples = list(traj.samples)
        assert len(samples) == len(traj)
        assert samples[0].t == 0.0
        assert samples[-1].state.tau == traj.tau[-1]
