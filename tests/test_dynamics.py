import io
import math

import numpy as np
import pytest

from blochamp import (
    ApexReached,
    ChannelSpec,
    ConeViolation,
    HermitianPauliVector,
    IntegratorOpts,
    PsdState,
    StepFailure,
    integrate,
    rhs,
    xi_coordinates,
)
from blochamp.dynamics import CSV_HEADER
from blochamp import dynamics, presets


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
        # A right-hand side that turns NaN after t = 0 makes every error norm
        # NaN; such steps are rejected until the step size underflows instead
        # of being accepted until the step budget runs out.
        monkeypatch.setattr(dynamics, "_rhs_from_generator", lambda gen: (
            lambda t, y: np.full(4, math.nan) if t > 0.0 else np.zeros(4)))
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

    def test_samples_iterator(self):
        traj = integrate(presets.linear_cptp(1.0), MIXED, 0.5)
        samples = list(traj.samples)
        assert len(samples) == len(traj)
        assert samples[0].t == 0.0
        assert samples[-1].state.tau == traj.tau[-1]
