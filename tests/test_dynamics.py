import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
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
    TargetUnreachable,
    Trajectory,
    integrate,
    rhs,
)
from blochamp.cli import run_cli
from blochamp.dynamics import CSV_HEADER, StepStats
from blochamp import channels, dynamics, presets, shift_transform
import conftest
from conftest import csv_oracle, dp45


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
        # A NaN among repeated times, and an infinity at either end, too.
        for bad in ([0.5, math.nan], [math.nan, 0.5, 0.5, math.nan], [0.5, math.inf],
                    [-math.inf, 0.5]):
            with pytest.raises(ValueError, match="sample_times must be finite"):
                integrate(presets.linear_cptp(1.0), MIXED, 1.0, sample_times=bad)

    def test_nan_error_norm_is_rejected(self, monkeypatch):
        # The dp45 oracle: a velocity that turns NaN after its first
        # evaluation makes every error norm NaN; such steps are rejected until
        # the step size underflows instead of being accepted until the step
        # budget runs out.
        calls = itertools.count()
        monkeypatch.setattr(AffineGenerator, "velocity", lambda self, y: (
            np.zeros(4) if next(calls) == 0 else np.full(4, math.nan)))
        with pytest.raises(StepFailure, match="step size underflow"):
            dp45(presets.linear_cptp(1.0), MIXED, 1.0, IntegratorOpts(max_steps=1000),
                 rtol=1e-10, atol=1e-12)


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

    @pytest.mark.parametrize("min_steps", [0, -3, 2.5])
    def test_rejects_bad_min_steps(self, min_steps):
        spec = ChannelSpec(HermitianPauliVector([0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="min_steps must be an integer >= 1"):
            integrate(spec, MIXED, 1.0, min_steps=min_steps)

    def test_tolerances_are_deprecated(self):
        with pytest.warns(DeprecationWarning, match="no longer reads them"):
            opts = IntegratorOpts(rtol=1e-6)
        start = PsdState(1.0, [0.1, 0.1, 0.1])
        traj = integrate(presets.linear_cptp(0.5), start, 1.0, opts)
        ref = integrate(presets.linear_cptp(0.5), start, 1.0)
        assert np.array_equal(traj.r, ref.r) and np.array_equal(traj.t, ref.t)

    def test_pure_relative_tolerance(self):
        # The dp45 oracle at atol = 0.
        start = PsdState(1.0, [0.1, 0.1, 0.1])
        traj = dp45(presets.linear_cptp(0.5), start, 1.0, rtol=1e-10, atol=0.0)
        ref = dp45(presets.linear_cptp(0.5), start, 1.0, rtol=1e-10, atol=1e-12)
        assert np.abs(traj.r[-1] / ref.r[-1] - 1.0).max() <= 1e-8
        # With atol = 0 an exactly zero coordinate has a zero error scale; its
        # zero error counts as 0 and the run follows x(t) = 1 - e^{-t}.
        traj = dp45(presets.linear_cptp(0.5), MIXED, 1.0, rtol=1e-10, atol=0.0)
        assert traj.r[-1, 0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-8)
        assert np.all(traj.r[:, 1:] == 0.0)

    def test_zero_scale_error_norm(self):
        # The dp45 oracle's error norm.
        zero = np.zeros(4)
        assert conftest._error_norm(zero, zero, zero, 1e-10, 0.0) == 0.0
        # A nonzero error over a zero scale cannot be met: the step is rejected.
        err = np.array([0.0, 1e-30, 0.0, 0.0])
        assert conftest._error_norm(err, zero, zero, 1e-10, 0.0) == math.inf


class TestHalting:
    def test_cone_violation_on_unstable_flow(self):
        # A near-surface state along the growing diagonal exits the cone.
        start = PsdState(1.0, [0.69, 0.69, 0.0])
        with pytest.raises(ConeViolation):
            integrate(presets.linear_noncp(1.0, 0.5), start, 5.0)

    def test_sample_off_the_cone_before_a_grid_state_halts_there(self):
        # The state leaves the cone near t = 0.05, inside the first grid step
        # (h = 0.5): the sample at t = 0.1 is the first state off the cone.
        start = PsdState(1.0, [0.69, 0.69, 0.0])
        errors = []
        for engine in (integrate, conftest.merged_integrate):
            with pytest.raises(ConeViolation) as info:
                engine(presets.linear_noncp(1.0, 0.5), start, 5.0,
                       sample_times=np.linspace(0.0, 1.0, 11))
            errors.append(info.value)
        assert errors[0].t == errors[1].t == 0.1
        assert (errors[0].tau, errors[0].r) == (errors[1].tau, errors[1].r)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_linear_overflow_is_not_a_blow_up(self):
        # Off the cone the linear non-CP gate grows as e^{t/2}.  Its state
        # passes 2^511 near t = 709, long before the rescaled s would
        # underflow to 0 (t = 1504), which read as a blow-up although g = 0.
        with pytest.raises(StepFailure, match="overflows after t = 709:") as info:
            integrate(presets.linear_noncp(1, 0.5), PsdState(1, [0.69, 0.69, 0]), 1e5,
                      IntegratorOpts(allow_off_cone=True), sample_times=[1e5])
        err = info.value
        assert err.t == 709.0
        state = np.array([err.tau, *err.r])
        assert np.isfinite(state).all() and np.abs(state).max() < 2.0 ** 511


class TestExactTrajectory:
    """integrate's exact solution on a grid halts, stops and fails as the
    dp45 oracle does."""

    def test_grid_and_states(self):
        traj = integrate(presets.linear_cptp(1.0), MIXED, 2.0, min_steps=50)
        # ||A||_1 = 4 sets 8 steps; min_steps sets 50.
        assert np.array_equal(traj.t, np.linspace(0.0, 2.0, 51))
        assert traj.stop_reason == "t_end"
        assert np.abs(traj.r[:, 0] - (1.0 - np.exp(-4.0 * traj.t))).max() <= 1e-14
        assert len(integrate(presets.linear_cptp(1.0), MIXED, 2.0)) == 9

    def test_cone_violation_on_unstable_flow(self):
        start = PsdState(1.0, [0.69, 0.69, 0.0])
        with pytest.raises(ConeViolation, match="left the PSD cone") as info:
            integrate(presets.linear_noncp(1.0, 0.5), start, 5.0)
        with pytest.raises(ConeViolation) as ref:
            dp45(presets.linear_noncp(1.0, 0.5), start, 5.0)
        # The first grid time outside the cone; ||A||_1 = 2 sets 10 steps of
        # 0.5, and the state crosses within the one that ends there.
        err = info.value
        assert err.t == 0.5 and err.t - 0.5 < ref.value.t
        assert np.linalg.norm(err.r) > err.tau * (1.0 + 1e-4)

    def test_apex_reached_for_contracting_trace(self):
        with pytest.raises(ApexReached, match="trace underflow"):
            integrate(presets.nojump_nino(-1.0, 0.0), PsdState(0.5, [0, 0, 0]), 15.0)

    def test_initial_state_checked(self):
        with pytest.raises(ConeViolation, match="initial state outside"):
            integrate(presets.linear_cptp(1.0),
                      PsdState(1.0, [2.0, 0, 0], physical=False), 1.0)
        traj = integrate(presets.onejump_nino(1.0),
                         PsdState(1.0, [1.05, 0.0, 0.0], physical=False), 9.0,
                         IntegratorOpts(allow_off_cone=True))
        assert traj.r[-1, 0] == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            integrate(presets.linear_cptp(1.0), MIXED, t_end)

    def test_grid_bounded_by_max_steps(self):
        with pytest.raises(StepFailure, match="the grid needs 40 steps"):
            integrate(presets.linear_cptp(1.0), MIXED, 10.0, IntegratorOpts(max_steps=39))

    def test_surface_stop_immediate_for_pure_start(self):
        opts = IntegratorOpts(stop_on_surface=True)
        traj = integrate(presets.linear_cptp(1.0), PsdState(1.0, [0, 0, 1]), 1.0, opts)
        assert traj.stop_reason == "surface" and len(traj) == 1


    def test_last_grid_time_is_t_end(self, rng):
        # t_end k / n with k = n rounds to 6.593088936121537 here.
        t_end = 6.593088936121536
        traj = integrate(presets.linear_cptp(1.0), PsdState(1.0, [0.1, 0, 0]), t_end,
                         min_steps=2936)
        assert traj.t[-1] == t_end
        assert np.array_equal(traj.t, np.linspace(0.0, t_end, 2937))
        for t_end in rng.uniform(0.5, 5.0, 200):
            assert integrate(presets.linear_cptp(1.0), MIXED, t_end,
                             min_steps=200).t[-1] == t_end

    def test_sample_rows_follow_integrate(self):
        # t = 0, the sorted distinct samples in (0, t_end], then t_end.
        shuffled = [1.5, 0.25, 0.0, 1.5, 0.75, 0.25]
        traj = integrate(presets.linear_cptp(1.0), MIXED, 2.0, sample_times=shuffled)
        assert traj.t.tolist() == [0.0, 0.25, 0.75, 1.5, 2.0]
        assert np.abs(traj.r[:, 0] - (1.0 - np.exp(-4.0 * traj.t))).max() <= 1e-14

    @pytest.mark.parametrize("last", [2.0 * (1.0 - 1e-13), 2.0 * (1.0 + 1e-13)])
    def test_sample_within_time_window_of_t_end(self, last):
        # Within TIME_WINDOW of t_end a sample stands for t_end, which is not
        # added again.
        traj = integrate(presets.linear_cptp(1.0), MIXED, 2.0, sample_times=[1.0, last])
        assert traj.t.tolist() == [0.0, 1.0, last]
        assert np.array_equal(traj.t, dp45(presets.linear_cptp(1.0), MIXED, 2.0,
                                           sample_times=[1.0, last]).t)
        assert traj.r[-1, 0] == pytest.approx(1.0 - math.exp(-4.0 * last), rel=1e-15,
                                              abs=0)

    def test_samples_on_the_grid_are_the_grid_states(self):
        plain = integrate(presets.onejump_nino(1.0), PsdState(1.2, [0.3, 0.2, 0.1]),
                          3.0, min_steps=40)
        sampled = integrate(presets.onejump_nino(1.0), PsdState(1.2, [0.3, 0.2, 0.1]),
                            3.0, min_steps=40, sample_times=plain.t[::-1])
        assert np.array_equal(sampled.t, plain.t)
        assert np.array_equal(sampled.tau, plain.tau) and np.array_equal(sampled.r, plain.r)

    @pytest.mark.parametrize("engine", [dp45, integrate])
    @pytest.mark.parametrize("samples, message", [
        ([0.5, math.nan], "sample_times must be finite"),
        ([math.inf], "sample_times must be finite"),
        ([-0.1, 0.5], "sample_times must lie within [0, t_end]"),
        ([0.5, 1.01], "sample_times must lie within [0, t_end]")],
        ids=["nan", "inf", "negative", "past_t_end"])
    def test_rejects_bad_samples(self, engine, samples, message):
        # The oracle refuses what integrate refuses, so no comparison runs it
        # on sample times that integrate would not take.
        with pytest.raises(ValueError) as info:
            engine(presets.linear_cptp(1.0), MIXED, 1.0, sample_times=samples)
        assert str(info.value) == message

    def test_sample_states_are_checked(self):
        # The state leaves the cone before the first grid time, 0.5, and
        # is outside at the first sample, 0.05, as DP45 finds on the samples.
        start, samples = PsdState(1.0, [0.69, 0.69, 0.0]), np.linspace(0.0, 5.0, 101)
        with pytest.raises(ConeViolation) as info:
            integrate(presets.linear_noncp(1.0, 0.5), start, 5.0, sample_times=samples)
        assert info.value.t == 0.05
        assert np.linalg.norm(info.value.r) > info.value.tau * (1.0 + 1e-4)

    def test_surface_stop_drops_later_samples(self):
        spec, start = presets.threejump_nino(1.0, 0.5), PsdState(1.0, [0.3, 0.0, 0.0])
        opts = IntegratorOpts(stop_on_surface=True)
        t_s = integrate(spec, start, 10.0, opts).t[-1]
        samples = np.linspace(0.0, 10.0, 101)
        traj = integrate(spec, start, 10.0, opts, sample_times=samples)
        assert traj.stop_reason == "surface" and abs(traj.cone_margin[-1]) <= 1e-12
        assert traj.t[-1] == pytest.approx(t_s, rel=1e-12)
        assert np.array_equal(traj.t[:-1], samples[samples < traj.t[-1]])

    def test_surface_stop_does_not_depend_on_the_samples(self, rng):
        # The scan finds the surface on its grid alone, whatever the samples.
        spec, opts = presets.threejump_nino(1.1, 0.4), IntegratorOpts(stop_on_surface=True)
        stops = 0
        for _ in range(20):
            d = rng.normal(size=3)
            start = PsdState(1.0, d / np.linalg.norm(d) * 0.99 * rng.random())
            runs = [integrate(spec, start, 10.0, opts, sample_times=samples)
                    for samples in (None, [10.0], np.linspace(0.0, 10.0, 201))]
            if runs[0].stop_reason != "surface":
                continue
            stops += 1
            for traj in runs[1:]:
                assert traj.stop_reason == "surface"
                assert traj.t[-1] == runs[0].t[-1] and traj.tau[-1] == runs[0].tau[-1]
                assert np.array_equal(traj.r[-1], runs[0].r[-1])
            assert 0.0 <= runs[0].cone_margin[-1] <= 4e-15
        assert stops >= 15

    def test_blow_up_with_samples(self):
        spec = ChannelSpec(HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=1.0)
        start = PsdState(1.5, [0, 0, 0])
        with pytest.raises(BlowUp) as plain:
            integrate(spec, start, 1.1)
        with pytest.raises(BlowUp) as sampled:
            integrate(spec, start, 1.1, sample_times=[0.2, 0.4, 0.6, 1.0])
        assert sampled.value.t == plain.value.t == pytest.approx(math.log(3.0) / 2.0,
                                                                 rel=1e-12)


def shifted_threejump(c):
    """threejump_nino(1, 0.5) with L -> L + c I: A gains 2c I, so the Bloch
    vector r/tau follows the unshifted gate while Y_tau = tau0 e^{(1.25 + 2c) t}."""
    return shift_transform(presets.threejump_nino(1.0, 0.5), c)


class TestBlowUp:
    """g = 1, L = -I from (tau0, 0): tau' = 2 (1 - tau) tau, and
    s(t) = 1 + tau0 (e^{-2t} - 1) vanishes at t* = ln(tau0 / (tau0 - 1)) / 2,
    taken as log1p(1 / (tau0 - 1)) / 2: the log of tau0 / (tau0 - 1), near 1,
    loses digits (at tau0 = 100 it is 6.5e-15 above the root)."""

    SPEC = ChannelSpec(HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=1.0)

    @staticmethod
    def t_star(tau0):
        return math.log1p(1.0 / (tau0 - 1.0)) / 2.0

    @pytest.mark.parametrize("sample_times", [None, [0.0, 0.2, 0.4, 0.6, 1.0, 1.1]])
    def test_names_the_blow_up_time(self, sample_times):
        t_star = self.t_star(1.5)
        with pytest.raises(BlowUp) as info:
            integrate(self.SPEC, PsdState(1.5, [0, 0, 0]), 1.1,
                      sample_times=sample_times)
        err = info.value
        assert err.t == pytest.approx(t_star, rel=1e-15, abs=0)
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

    def test_surface_between_the_last_grid_time_and_t_star(self):
        # tau0 puts t* just after the surface time t_s, inside the scan step
        # that ends the grid: no recorded state has crossed the surface.
        spec = shifted_threejump(-1.5)
        opts = IntegratorOpts(stop_on_surface=True)
        start = [0.5, 0.5, 0.0]
        t_s = integrate(presets.threejump_nino(1.0, 0.5), PsdState(1.0, start),
                        10.0, opts).t[-1]
        e = math.exp(1.75 * t_s * (1.0 + 1e-6))
        tau0 = e / (e - 1.0)
        y0 = np.array([tau0] + [tau0 * v for v in start])
        gen = blochamp.assemble(spec)
        n = dynamics._grid_steps(gen, 10.0)
        scan = dynamics._scan(gen, y0, 10.0, n)
        t_last = scan.steps * (10.0 / n)  # the last grid time before t*
        assert scan.event == "blow_up" and t_last < t_s < scan.t_stop
        traj = integrate(spec, PsdState(y0[0], y0[1:]), 10.0, opts)
        assert traj.stop_reason == "surface" and abs(traj.cone_margin[-1]) <= 1e-12
        assert traj.t[-1] == pytest.approx(t_s, rel=1e-6)
        assert traj.t[-2] == t_last

    @pytest.mark.parametrize("tau0, rel", [(1.5, 1e-15), (100.0, 2e-15), (1000.0, 2e-15)])
    def test_t_star_matches_the_bisection_from_the_bracket_start(self, tau0, rel):
        # tau0 = 100 and 1000 put t* in the first scan step, far below its
        # end.  There s = 1 + (Y_tau - tau0) would cancel two and three
        # digits of Y_tau; the scan and the oracle both form s from the
        # bracket start's s plus the increment's, so against the true root
        # (0.0050251679267507206 at tau0 = 100, to 20 digits) the oracle
        # lands 2.5e-16 high and the scan 1.1e-15 high, and at tau0 = 1000
        # the scan 8.6e-16 high.
        gen = blochamp.assemble(self.SPEC)
        y0 = np.array([tau0, 0.0, 0.0, 0.0])
        n = dynamics._grid_steps(gen, 1.1)
        h = 1.1 / n
        for rho in (None, 1.0):  # r = 0 stays inside every radius
            scan = dynamics._scan(gen, y0, 1.1, n, rho)
            # At t* the scan stops with the state at its last grid time.
            t_last = scan.steps * h
            y_last = np.vstack((y0, scan.y))[scan.steps]
            assert scan.event == "blow_up" and np.array_equal(scan.y_stop, y_last)
            want = conftest.blow_up_time(gen, t_last, y_last, h)
            assert abs(scan.t_stop - want) <= rel * want
            assert abs(scan.t_stop - self.t_star(tau0)) <= rel * scan.t_stop
            assert t_last < scan.t_stop <= t_last + h

    def test_blow_up_first_raises(self):
        spec = shifted_threejump(-1.5)
        opts = IntegratorOpts(stop_on_surface=True)
        tau0 = 3.0
        t_star = math.log(tau0 / (tau0 - 1.0)) / 1.75
        with pytest.raises(BlowUp) as info:
            integrate(spec, PsdState(tau0, [0.5 * tau0, 0.5 * tau0, 0.0]), 10.0, opts)
        assert info.value.t == pytest.approx(t_star, rel=1e-9)


class TestExpmCalls:
    """The Taylor powers behind every e^{At} (``AffineGenerator._taylor``,
    the one caller of ``channels._powers``) are built once per generator:
    the scan step e^{hA}, the samples advanced from the grid and an
    event's root search all read the same build.  So a final-state run, a
    sampled run, a surface stop and a blow-up each make one, and a gate
    plan one per stage, whose channel is its own generator."""

    @pytest.fixture
    def calls(self, monkeypatch):
        built = []
        powers = channels._powers

        def counted(step, k):
            built.append(k)
            return powers(step, k)

        monkeypatch.setattr(channels, "_powers", counted)
        return built

    def test_final_state_run(self, calls):
        traj = integrate(presets.threejump_nino(1.1, 0.4), PsdState(1.0, [0.01, 0, 0]),
                         5.0, sample_times=[5.0])
        assert traj.stop_reason == "t_end" and len(traj) == 2
        assert len(calls) == 1

    def test_sampled_run(self, calls):
        traj = integrate(presets.threejump_nino(1.1, 0.4), PsdState(1.0, [0.01, 0, 0]),
                         3.0, sample_times=np.linspace(0.0, 3.0, 201))
        assert traj.stop_reason == "t_end" and len(traj) == 201
        assert len(calls) == 1

    def test_final_state_surface_stop(self, calls):
        traj = integrate(presets.threejump_nino(1.1, 0.4), PsdState(1.0, [0.01, 0, 0]),
                         20.0, IntegratorOpts(stop_on_surface=True), sample_times=[20.0])
        assert traj.stop_reason == "surface" and abs(traj.cone_margin[-1]) <= 1e-12
        assert len(calls) == 1

    def test_blow_up(self, calls):
        # The blow-up operation of the benchmark's ensemble: a = 1, tau0 = 1.5.
        spec = ChannelSpec(HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=1.0)
        t_star = math.log(3.0) / 2.0
        with pytest.raises(BlowUp) as info:
            integrate(spec, PsdState(1.5, [0, 0, 0]), 2.0 * t_star,
                      sample_times=[2.0 * t_star])
        assert info.value.t == pytest.approx(t_star, rel=1e-12)
        assert len(calls) == 1

    @pytest.mark.parametrize("gate, params, stages", [
        ("linear_cptp", {"m": 1.0}, 1), ("one_jump", {"m": 1.0}, 1),
        ("three_jump", {"M": 1.0, "gamma": 0.5}, 2),
        ("linear_non_cp", {"M": 1.0, "gamma": 0.5}, 2)])
    def test_gate_plan(self, calls, gate, params, stages):
        # One scan per stage, and one search of its radius root.
        blochamp.plan_amplification(gate, params, 0.99)
        assert len(calls) == stages


class TestEventRoot:
    """``_event_root``, the ITP search of the grid step that holds a scan's
    event: a handful of points on a well-conditioned root, and no more than
    bisection's count plus n0 where the event function is roundoff."""

    @pytest.fixture
    def roots(self, monkeypatch):
        """Each search the scan makes: its arguments, the points it probes
        after the two reads of F at the bracket's ends, and its result."""
        found = []
        search = dynamics._event_root

        def recording(gen, t, z, h, probe):
            calls = []

            def counted(d):
                calls.append(d)
                return probe(d)

            out = search(gen, t, z, h, counted)
            found.append({"gen": gen, "t": t, "z": z, "h": h, "probe": probe,
                          "points": len(calls) - 2, "out": out})
            return out

        monkeypatch.setattr(dynamics, "_event_root", recording)
        return found

    def test_well_conditioned_roots_take_a_handful(self, roots):
        # Bisection takes 47 to 62 points on these; ITP takes 8 to 10.
        traj = integrate(presets.threejump_nino(1.1, 0.4), PsdState(1.0, [0.01, 0, 0]),
                         20.0, IntegratorOpts(stop_on_surface=True), sample_times=[20.0])
        assert traj.stop_reason == "surface"
        with pytest.raises(BlowUp) as info:
            integrate(TestBlowUp.SPEC, PsdState(1.5, [0, 0, 0]), 1.1)
        assert type(info.value.t) is float
        blochamp.plan_amplification("three_jump", {"M": 1.0, "gamma": 0.5}, 0.99)
        points = [root["points"] for root in roots]  # the gate's two stages last
        assert len(points) == 4 and max(points) <= 12, points

    def test_flat_surface_stays_within_bisection(self, roots):
        # The exact cone margin of this run is 2.5e-19 from t = 10.6021 to
        # 10.6022 (40-digit mpmath.expm): its sign at every point is
        # roundoff, and F is flat.  The bracket still ends with inside at lo
        # and not at hi, in no more points than bisection takes on the same
        # predicate plus n0.
        traj = integrate(presets.pseudolinear_nino(1.0), PsdState(1.5, [0.5, 0.2, 0.1]),
                         20.0, IntegratorOpts(stop_on_surface=True))
        assert traj.stop_reason == "surface" and traj.cone_margin[-1] >= 0.0
        [root] = roots
        lo, d_lo, hi, d_hi = root["out"]
        inside = root["probe"]
        assert inside(d_lo)[0] and d_hi is not None and not inside(d_hi)[0]
        assert hi - lo <= 4e-16 * (root["t"] + hi)
        rate, powers = root["gen"]._taylor
        terms = (powers @ root["z"]) / dynamics._FACTORIALS[:, None]
        halvings = []

        def increment(dt):
            halvings.append(dt)
            return np.power(dt * rate, dynamics._ORDERS) @ terms

        conftest.bisect(increment, np.zeros(4), root["h"], lambda d: inside(d)[0],
                        lambda lo, _, hi: hi - lo <= 4e-16 * (root["t"] + hi))
        assert root["points"] <= len(halvings) + dynamics._ITP_N0


class TestAdvance:
    """``_advance``, the Taylor polynomial that takes a grid state to a
    sample time within its grid step."""

    def test_zero_dt_returns_the_state(self):
        gen = blochamp.assemble(presets.threejump_nino(1.1, 0.4))
        y = np.array([1.3, 0.2, -0.7, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dynamics._advance(gen, y, 0.0)
            stacked = dynamics._advance(gen, np.array([y, y]), np.array([0.0, 0.0]))
        assert got.tobytes() == y.tobytes()
        assert stacked.tobytes() == np.array([y, y]).tobytes()

    def test_scalar_dt_is_a_row_of_the_stack(self):
        gen = blochamp.assemble(presets.linear_noncp(1.0, 0.5))
        ys = np.array([[1.0, 0.3, -0.2, 0.1], [0.8, 0.1, 0.5, -0.3], [1.2, 0, 0, 0.9]])
        dts = np.array([0.1, 0.7, 0.35]) / gen.scale
        stack = dynamics._advance(gen, ys, dts)
        for y, dt, row in zip(ys, dts, stack):
            got = dynamics._advance(gen, y, dt)
            assert got.shape == (4,)
            assert np.array_equal(got, row)

    def test_no_omega_keeps_tau(self):
        # A trace-preserving channel has Omega = 0, so A's first row is 0
        # and every power of it keeps tau exactly.
        gen = blochamp.assemble(presets.linear_cptp(1.0))
        assert not gen.A[0].any()
        y = np.array([0.7, 0.1, -0.3, 0.2])
        dts = np.array([0.3, 1.0]) / gen.scale
        got = dynamics._advance(gen, np.array([y, y]), dts)
        assert got[:, 0].tobytes() == np.array([y[0], y[0]]).tobytes()

    def test_matches_scipy(self, rng):
        linalg = pytest.importorskip("scipy.linalg")
        for i in range(60):
            spec = conftest.random_gksl_spec(rng, 1 + i % 3, zeta=None if i % 2 else 1)
            gen = AffineGenerator(blochamp.assemble(spec).A, 0.0)
            tau, r = conftest.random_cone_state(rng)
            y = np.concatenate(([tau], r))
            dt = rng.uniform(0.0, 1.0) / gen.scale
            want = linalg.expm(gen.A * dt) @ y
            got = dynamics._advance(gen, y, dt)
            assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


class TestFlatMemory:
    """A run keeps only the grid states it returns, and a gate stage none,
    so the memory of a long run does not grow with its grid."""

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_sampled_run(self):
        spec = presets.linear_cptp(1.0)
        t_end = 4e5 / blochamp.assemble(spec).scale
        runs = []
        peak = self.traced_peak(lambda: runs.append(integrate(
            spec, PsdState(1.0, [0.1, 0.0, 0.0]), t_end,
            sample_times=[0.0, t_end / 2, t_end])))
        [traj] = runs
        assert traj.stats.accepted == 400_000 and traj.t[-1] == t_end
        assert peak < 1e6

    def test_long_sweep(self, capsys):
        # sweep prints each value's final state and keeps no other.
        argv = ["sweep", "--preset", "linear_cptp", "--param", "m", "--values", "1",
                "--t", "1e5"]
        codes = []
        assert self.traced_peak(lambda: codes.append(run_cli(argv))) < 1e6
        assert codes == [0]
        assert capsys.readouterr().out.splitlines()[1].startswith("m,1,tau,")

    def test_unreachable_gate_stage(self):
        def plan():
            with pytest.raises(TargetUnreachable):
                blochamp.plan_amplification("one_jump", {"m": 1.0}, 0.99999999,
                                            t_max=2e4)

        assert self.traced_peak(plan) < 1e6

    def test_run_halted_off_the_cone(self):
        # The scan of a final-state run ends at the first grid state off the
        # cone, at t = 0.5, not at t_end = 1e5.
        errors = []

        def run():
            with pytest.raises(ConeViolation) as info:
                integrate(presets.linear_noncp(1.0, 0.5), PsdState(1.0, [0.69, 0.69, 0.0]),
                          1e5, sample_times=[1e5])
            errors.append(info.value)

        assert self.traced_peak(run) < 1e6
        assert errors[0].t == 0.5

    @pytest.mark.parametrize("sample_times", [None, [1e5]])
    def test_bounded_run_halted_off_the_cone(self, sample_times):
        # A linear non-CP channel whose fixed line passes through x = 2:
        # from tau = 1, r = 0 it leaves the ball at t = ln(2) / 2, and both
        # runs halt at the first grid state past it, t = 0.5, without
        # scanning on to t_end; the unsampled run keeps the grid only to
        # there.
        spec = channels.spec_from_dict({
            "ell": [-0.5, 1.0, 0.0, 0.0], "g": 0.0,
            "jumps": [{"xi_re": [0, 0, 1, 0], "xi_im": [0, 0, 0, 1], "zeta": 1},
                      {"xi_re": [0, 0, 0, 1], "xi_im": [0, 0, 0, 0], "zeta": -1}]})
        errors = []

        def run():
            with pytest.raises(ConeViolation) as info:
                integrate(spec, PsdState(1.0, [0.0, 0.0, 0.0]), 1e5, min_steps=200,
                          sample_times=sample_times)
            errors.append(info.value)

        assert self.traced_peak(run) < 1e6
        assert errors[0].t == 0.5


def test_readme_library_example(tmp_path, monkeypatch):
    """The README's Library example runs and writes the two-rate solution."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = block.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    lines = (tmp_path / "trajectory.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    t = np.linspace(0.0, 10.0, 201)
    assert np.array_equal(rows[:, 0], t)
    # x and y mix e^{(M - gamma) t} and e^{-(M + gamma) t}, as in TestIntegrate.
    up, down = np.exp(0.5 * t), np.exp(-1.5 * t)
    want = np.column_stack((np.ones_like(t), 0.5e-3 * (up + down), 0.5e-3 * (up - down),
                            np.zeros_like(t)))
    assert np.abs(rows[:, 1:5] - want).max() <= 1e-12


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


class TestGrowthRates:
    def test_two_rate_spectrum(self):
        grid = np.linspace(0.0, 2.0, 41)
        traj = integrate(presets.threejump_nino(2.0, 1.0),
                         PsdState(1.0, [0.01, 0, 0]), 2.0, sample_times=grid)
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

    def test_blocks_match_the_per_row_formatter(self, rng):
        # One % operation per block of rows gives the bytes of one % per
        # row, on both sides of each block boundary.
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]
        n = 2 * dynamics._CSV_BLOCK + 3
        cols = rng.normal(size=(n, 9))
        cols.flat[rng.choice(cols.size, 900, replace=False)] = np.resize(special, 900)
        cols[dynamics._CSV_BLOCK - 1:dynamics._CSV_BLOCK + 1, :6] = special
        traj = Trajectory(t=cols[:, 0], tau=cols[:, 1], r=cols[:, 2:5], purity=cols[:, 5],
                          entropy=cols[:, 6], tr_x_omega=cols[:, 7], cone_margin=cols[:, 8],
                          stats=StepStats(0, 0, 0.0), stop_reason="t_end",
                          spec=presets.linear_cptp(1.0))
        buf = io.StringIO()
        traj.write_csv(buf)
        rows = "".join(dynamics._CSV_ROW % tuple(row) for row in cols.tolist())
        assert buf.getvalue().encode() == (CSV_HEADER + "\n" + rows).encode()

    def test_off_cone_run_with_nan_entropy(self):
        traj = integrate(presets.onejump_nino(1.0),
                         PsdState(1.0, [1.05, 0.0, 0.0], physical=False), 9.0,
                         IntegratorOpts(allow_off_cone=True))
        assert np.isnan(traj.entropy).all()
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == csv_oracle(traj)

    def test_monitor_columns_match_the_masked_oracle(self, rng):
        # The columns bit for bit, with no warning: rows with tau = 0 (purity
        # nan, entropy +0), off the cone (entropy nan), on the surface, within
        # EIG_ROUNDOFF outside it, at negative and subnormal tau, and random.
        gen = channels.assemble(presets.threejump_nino(1.0, 0.5))
        special = np.array([[0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0], [0.0, 0.3, 0.0, 0.0],
                            [1.0, 1.05, 0.0, 0.0], [1.0, 0.6, 0.8, 0.0], [1.0, 1.0, 0.0, 0.0],
                            [1.0, 1.0 + 1e-15, 0.0, 0.0], [-1.0, 0.2, 0.1, 0.0],
                            [-1.0, 2.0, 0.0, 0.0], [5e-324, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, -2.0]])
        ys = np.concatenate((special, rng.normal(size=(40, 4)),
                             rng.uniform(0.0, 1.0, (40, 1)) * [1.0, 0.5, 0.5, 0.5]))
        ts = np.arange(len(ys), dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = dynamics._build_trajectory(presets.threejump_nino(1.0, 0.5), gen, ts, ys,
                                              StepStats(0, 0, 0.0), "t_end")
        got = (traj.purity, traj.entropy, traj.tr_x_omega, traj.cone_margin)
        for col, want in zip(got, conftest.monitor_oracle(gen, ys)):
            assert col.tobytes() == want.tobytes()
        assert traj.t.tobytes() == ts.tobytes()
        assert np.column_stack((traj.tau, traj.r)).tobytes() == ys.tobytes()
        assert np.isnan(traj.purity[:3]).all()
        assert np.array_equal(np.copysign(1.0, traj.entropy[:3]), [1.0, 1.0, 1.0])
        assert np.isnan(traj.entropy[[3, 8]]).all() and traj.entropy[5] == 0.0
