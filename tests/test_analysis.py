import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from blochamp import (
    BlowUp,
    ChannelSpec,
    HermitianPauliVector,
    IntegratorOpts,
    InvalidParams,
    PsdState,
    StepFailure,
    TargetUnreachable,
    choi_spectra,
    choi_spectrum,
    dualize,
    find_fixed_points,
    plan_amplification,
    purity_entropy,
    rhs,
    rotate,
    slowdown_exponent,
)
from blochamp import AffineGenerator, analysis, assemble, dynamics, presets, reconstruct
from blochamp.tolerances import LINE_SIGN_TOL
from conftest import (dp45, gate_durations, integrated_choi_spectra, matrix_rhs,
                      newton_roots, plane_flow, random_gksl_spec, random_nino_spec,
                      random_rotation, rotated_spec, scaled_spec)


def _follows_sign_rule(d):
    lead = d[np.abs(d) > LINE_SIGN_TOL]
    return lead.size > 0 and lead[0] > 0.0


class TestFixedPoints:
    def test_linear_cptp(self):
        rep = find_fixed_points(presets.linear_cptp(1.0))
        assert not rep.restricted_to_tau_plane
        assert len(rep.points) == 1 and not rep.fixed_lines
        p = rep.points[0]
        assert np.allclose(p.r, [1, 0, 0], atol=1e-10)
        assert p.stability == "stable"
        assert sorted(p.jacobian_eigenvalues.real) == pytest.approx(
            [-4.0, -2.0, -2.0], abs=1e-10)
        assert p.residual <= 1e-10

    def test_nojump_pair(self):
        rep = find_fixed_points(presets.nojump_nino(0.0, 1.0))
        assert rep.restricted_to_tau_plane
        assert len(rep.points) == 2
        by_x = {round(p.r[0]): p for p in rep.points}
        assert by_x[1].stability == "stable"
        assert by_x[-1].stability == "unstable"
        for p in rep.points:
            assert p.residual <= 1e-10

    def test_nojump_shift_invariant_fixed_points(self):
        # The identity component of L drops out on the unit-trace plane.
        rep = find_fixed_points(presets.nojump_nino(0.7, 1.0))
        xs = sorted(round(p.r[0], 6) for p in rep.points)
        assert xs == [-1.0, 1.0]

    def test_onejump_marginal_point(self):
        # The one-jump gate rests on the whole plane x = 1: two marginal
        # lines through (1, 0, 0), its point nearest the center.
        spec = presets.onejump_nino(1.0)
        rep = find_fixed_points(spec)
        assert not rep.points and len(rep.fixed_lines) == 2
        d = np.array([line.direction for line in rep.fixed_lines])
        assert np.abs(d @ d.T - np.eye(2)).max() <= 1e-12
        assert np.abs(d[:, 0]).max() <= 1e-12
        for line in rep.fixed_lines:
            assert np.abs(line.point - [1, 0, 0]).max() <= 1e-12
            assert line.marginal
        for r in ([1, 0.5, 0], [1, 0, 0.3], [1, -2, 1]):
            dr, dtau = rhs(spec, PsdState(1.0, r, physical=False))
            assert np.abs(dr).max() <= 1e-12 and abs(dtau) <= 1e-12

    def test_threejump_unstable_center(self):
        rep = find_fixed_points(presets.threejump_nino(1.0, 0.5))
        assert len(rep.points) == 1
        p = rep.points[0]
        assert np.allclose(p.r, 0.0, atol=1e-10)
        assert p.stability == "unstable"
        assert max(p.jacobian_eigenvalues.real) == pytest.approx(0.5, abs=1e-10)

    def test_threejump_stable_center(self):
        rep = find_fixed_points(presets.threejump_nino(0.6, 1.0))
        assert len(rep.points) == 1
        assert rep.points[0].stability == "stable"

    def test_equal_rates_fixed_line(self):
        rep = find_fixed_points(presets.threejump_nino(1.0, 1.0))
        assert not rep.points
        assert len(rep.fixed_lines) == 1
        line = rep.fixed_lines[0]
        # The README's example: the diagonal, with its canonical sign.
        assert np.abs(line.direction - [math.sqrt(0.5), math.sqrt(0.5), 0.0]).max() <= 1e-12
        assert line.marginal

    def test_points_on_line_are_fixed(self):
        spec = presets.threejump_nino(1.0, 1.0)
        line = find_fixed_points(spec).fixed_lines[0]
        for s in (-0.5, 0.3):
            r = line.point + s * line.direction
            dr, _ = rhs(spec, PsdState(1.0, r, physical=False))
            assert np.linalg.norm(dr) <= 1e-10

    def test_duality_preserves_structure(self):
        nino = presets.pseudolinear_nino(1.0)
        a = find_fixed_points(nino)
        b = find_fixed_points(dualize(nino))
        assert len(a.points) == len(b.points) == 1
        assert np.abs(a.points[0].r - b.points[0].r).max() <= 1e-10
        ea = np.sort(a.points[0].jacobian_eigenvalues.real)
        eb = np.sort(b.points[0].jacobian_eigenvalues.real)
        assert np.abs(ea - eb).max() <= 1e-10

    def test_nearly_equal_rates_keep_their_point(self):
        # Two distinct eigenvalues of A 1e-7 apart are not one split
        # eigenvalue: the center stays a fixed point.
        rep = find_fixed_points(presets.threejump_nino(1.0, 1.0 - 1e-7))
        assert len(rep.points) == 1 and not rep.fixed_lines
        assert np.abs(rep.points[0].r).max() <= 1e-10

    def test_defective_eigenvalue_gives_one_line(self):
        # Precession h_z = l1 makes 0 a fourfold eigenvalue of A with a 3x3
        # Jordan block; the rest set is the line {(0, 1, z)}, reported once.
        spec = replace(presets.nojump_nino(0.0, 1.0), h=[0.0, 0.0, 1.0])
        rep = find_fixed_points(spec)
        assert not rep.points and len(rep.fixed_lines) == 1
        line = rep.fixed_lines[0]
        assert np.abs(line.point - [0, 1, 0]).max() <= 1e-9
        assert abs(abs(line.direction[2]) - 1.0) <= 1e-9
        assert line.marginal
        for z in (-0.7, 0.4):
            dr, _ = rhs(spec, PsdState(1.0, [0.0, 1.0, z], physical=False))
            assert np.abs(dr).max() <= 1e-12

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_nonlinear_specs_against_newton(self, seed):
        # Every root of damped Newton from a seed grid is reported; every
        # reported point, and two points of each line, is a rest state of
        # the operator equation; the eigenvalues are those of the Jacobian.
        rng = np.random.default_rng(seed)
        for i in range(50):
            spec = random_nino_spec(rng, n_jumps=1 + i % 3)
            rep = find_fixed_points(spec)
            scale = max(1.0, float(np.linalg.norm(assemble(spec).A)))
            for root in newton_roots(spec):
                dist = [np.linalg.norm(root - p.r) for p in rep.points]
                for line in rep.fixed_lines:
                    v = root - line.point
                    d = line.direction
                    dist.append(np.linalg.norm(v - (v @ d) * d))
                assert min(dist, default=np.inf) <= (
                    1e-6 * max(1.0, np.linalg.norm(root)))
            rest = [p.r for p in rep.points] + [
                line.point + s * line.direction
                for line in rep.fixed_lines for s in (0.5, -1.3)]
            for r in rest:
                dx = matrix_rhs(spec, reconstruct(PsdState(1.0, r, physical=False)))
                assert np.linalg.norm(dx) <= 1e-12 * scale * max(1.0, r @ r)
            _, jac = plane_flow(spec)
            for p in rep.points:
                want = np.linalg.eigvals(jac(p.r))
                gap = max(np.abs(p.jacobian_eigenvalues - e).min() for e in want)
                assert gap <= 1e-8 * scale * max(1.0, np.linalg.norm(p.r))

    def test_partial_nonlinearity_rests_on_its_plane(self, rng):
        # With g = 0.5 the trace is conserved on the plane tau = 1/g = 2.
        n_points = 0
        for i in range(30):
            spec = replace(random_nino_spec(rng, n_jumps=1 + i % 3), g=0.5)
            rep = find_fixed_points(spec)
            scale = max(1.0, float(np.linalg.norm(assemble(spec).A)))
            for p in rep.points:
                x = reconstruct(PsdState(2.0, 2.0 * p.r, physical=False))
                assert np.linalg.norm(matrix_rhs(spec, x)) <= (
                    1e-12 * scale * max(1.0, p.r @ p.r))
                n_points += 1
        assert n_points >= 30

    def test_line_directions_follow_the_sign_rule(self, rng):
        # Rotating the Pauli frame of a spec with fixed lines rotates its
        # lines, so the directions take every sign pattern.
        cases = [lambda: presets.threejump_nino(1.0, 1.0), lambda: presets.onejump_nino(1.0),
                 lambda: replace(presets.nojump_nino(0.0, 1.0), h=[0.0, 0.0, 1.0])]
        n_lines = 0
        for i in range(60):
            base = cases[i % 3]()
            rot = random_rotation(rng)
            spec = scaled_spec(rotated_spec(base, rot), 10.0 ** rng.uniform(-1, 3))
            want = [rot @ line.direction for line in find_fixed_points(base).fixed_lines]
            lines = find_fixed_points(spec).fixed_lines
            assert len(lines) == len(want)
            for line in lines:
                assert _follows_sign_rule(line.direction)
                # Each line spans the rotated plane or line of the base spec.
                span = np.array(want)
                assert np.linalg.norm(line.direction @ span.T) == pytest.approx(1.0, abs=1e-8)
                n_lines += 1
        assert n_lines == 80

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_line_direction_ignores_signed_zeros(self, monkeypatch, zero):
        # The SVD's sign follows the sign of zero entries of A; the reported
        # direction must not.
        specs = [presets.threejump_nino(1.0, 1.0), presets.threejump_nino(0.3, 0.3),
                 presets.onejump_nino(1.0)]
        plain = [[line.direction for line in find_fixed_points(s).fixed_lines] for s in specs]

        def signed_zeros(spec):
            gen = assemble(spec)
            return AffineGenerator(np.where(gen.A == 0.0, zero, gen.A), gen.g)

        monkeypatch.setattr(analysis, "assemble", signed_zeros)
        for spec, want in zip(specs, plain):
            got = [line.direction for line in find_fixed_points(spec).fixed_lines]
            assert np.array_equal(got, want)

    def test_degenerate_spec_reports_plane(self):
        from blochamp import ChannelSpec, HermitianPauliVector

        spec = ChannelSpec(HermitianPauliVector(np.zeros(4)), g=0.0)
        rep = find_fixed_points(spec)
        assert not rep.points
        assert len(rep.fixed_lines) == 3


class TestSlowdownExponent:
    def test_linear_gate(self):
        e = slowdown_exponent(presets.linear_cptp(1.0), (1, 0, 0), (1, 0, 0))
        assert e == pytest.approx(1.0, abs=0.01)

    def test_onejump_gate(self):
        e = slowdown_exponent(presets.onejump_nino(1.0), (1, 0, 0), (1, 0, 0))
        assert e == pytest.approx(2.0, abs=0.01)

    def test_threejump_outward_growth(self):
        d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        spec = presets.threejump_nino(1.0, 0.5)
        e = slowdown_exponent(spec, (0, 0, 0), d)
        assert e == pytest.approx(1.0, abs=0.01)
        # speed points away from the fixed point: no deceleration on approach
        dr, _ = rhs(spec, PsdState(1.0, -1e-3 * d))
        assert float(dr @ (-d)) > 0.0

    def test_partial_nonlinearity_slows_down_at_its_points(self, rng):
        # With g = 0.5 the fixed points sit on the plane tau = 2, and the
        # speed measured there vanishes linearly on approach.
        n_points = 0
        for i in range(10):
            spec = replace(random_nino_spec(rng, n_jumps=1 + i % 3), g=0.5)
            for p in find_fixed_points(spec).points:
                if p.stability == "marginal":
                    continue
                d = rng.standard_normal(3)
                assert slowdown_exponent(spec, p.r, d) == pytest.approx(1.0, abs=0.05)
                n_points += 1
        assert n_points >= 5

    def test_rejects_exactly_fixed_direction(self):
        d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        with pytest.raises(InvalidParams):
            slowdown_exponent(presets.threejump_nino(1.0, 1.0), (0, 0, 0), d)

    def test_rejects_zero_direction(self):
        with pytest.raises(InvalidParams):
            slowdown_exponent(presets.linear_cptp(1.0), (1, 0, 0), (0, 0, 0))

    def test_rejects_non_finite_fixed_point(self):
        with pytest.raises(InvalidParams, match="fp must be finite"):
            slowdown_exponent(presets.linear_cptp(1.0), (math.nan, 0, 0),
                              (1, 0, 0))

    def test_rejects_non_finite_direction(self):
        with pytest.raises(InvalidParams, match="approach_dir must be finite"):
            slowdown_exponent(presets.linear_cptp(1.0), (1, 0, 0),
                              (math.inf, 0, 0))


class TestChoi:
    def test_identity_spectrum_at_zero(self):
        for spec in (presets.linear_cptp(1.0), presets.linear_noncp(1.0, 0.5)):
            ev = choi_spectrum(spec, 0.0)
            assert np.abs(ev - [0, 0, 0, 2]).max() <= 1e-12

    def test_cptp_stays_positive(self):
        spectra = choi_spectra(presets.linear_cptp(1.0), np.linspace(0, 5, 20))
        assert spectra[:, 0].min() >= -1e-10

    def test_noncp_goes_negative(self):
        spectra = choi_spectra(presets.linear_noncp(1.0, 0.5),
                               np.linspace(0.01, 0.5, 50))
        assert spectra[:, 0].min() < -1e-6

    def test_trace_is_conserved(self):
        spectra = choi_spectra(presets.linear_noncp(1.0, 0.5), [0.0, 0.2, 0.4])
        assert np.abs(spectra.sum(axis=1) - 2.0).max() <= 1e-9

    def test_rejects_nonlinear(self):
        with pytest.raises(InvalidParams):
            choi_spectrum(presets.onejump_nino(1.0), 0.1)

    def test_matches_integration_oracle(self, rng):
        # Random CP (even i) and non-CP (odd i) channels with precession.
        for i in range(40):
            spec = random_gksl_spec(rng, n_jumps=1 + i % 3, zeta=None if i % 2 else 1)
            spec = replace(spec, h=rng.normal(size=3))
            ts = rng.uniform(0.0, 0.1, 6)
            want = integrated_choi_spectra(spec, ts)
            got = choi_spectra(spec, ts)
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_rows_follow_unsorted_repeated_times(self):
        spec = presets.linear_noncp(1.0, 0.5)
        ts = [0.3, 0.0, 0.1, 0.3, 0.0]
        spectra = choi_spectra(spec, ts)
        assert spectra.shape == (5, 4)
        assert np.abs(spectra - integrated_choi_spectra(spec, ts)).max() <= 1e-9
        assert np.array_equal(spectra[0], spectra[3])
        for row in spectra[[1, 4]]:
            assert np.abs(row - [0, 0, 0, 2]).max() <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_times(self, bad):
        with pytest.raises(ValueError, match="finite"):
            choi_spectra(presets.linear_cptp(1.0), [0.1, bad])

    def test_does_not_integrate(self, monkeypatch):
        def no_integrate(*args, **kwargs):
            raise AssertionError("choi_spectra integrated")

        # Every trajectory and gate stage comes from the scan.
        monkeypatch.setattr(analysis.dynamics, "_scan", no_integrate)
        spectra = choi_spectra(presets.linear_noncp(1.0, 0.5), np.linspace(0, 0.5, 10))
        assert spectra[:, 0].min() < -1e-6


class TestRotate:
    def test_quarter_turn(self):
        s = rotate(PsdState(1.0, [1, 0, 0]), [0, 0, 1], math.pi / 2)
        assert np.allclose(s.r, [0, 1, 0], atol=1e-15)

    def test_zero_angle(self):
        s = rotate(PsdState(1.0, [0.2, 0.3, 0.1]), [1, 1, 0], 0.0)
        assert np.allclose(s.r, [0.2, 0.3, 0.1])

    def test_align_diagonal_with_x_axis(self):
        v = 1.0 / math.sqrt(2.0)
        s = rotate(PsdState(1.0, [v, v, 0]), [0, 0, 1], -math.pi / 4)
        assert np.allclose(s.r, [1, 0, 0], atol=1e-15)

    def test_preserves_radius(self, rng):
        for _ in range(20):
            r = rng.normal(size=3) * 0.3
            axis = rng.normal(size=3)
            s = rotate(PsdState(1.0, r), axis, rng.normal())
            assert np.linalg.norm(s.r) == pytest.approx(np.linalg.norm(r))
            assert s.tau == 1.0

    def test_rejects_zero_axis(self):
        with pytest.raises(InvalidParams):
            rotate(PsdState(1.0, [1, 0, 0]), [0, 0, 0], 1.0)


class TestGatePlanning:
    def test_linear_cptp_duration(self):
        # target radius 0.99: duration solves 1 - exp(-4 t) = 0.99
        purity = 0.5 * (1.0 + 0.99 ** 2)
        plan = plan_amplification("linear_cptp", {"m": 1.0}, purity)
        assert plan.t_gate == pytest.approx(math.log(100.0) / 4.0, rel=1e-12)
        assert plan.pre_amp is None
        p, _ = purity_entropy(plan.achieved)
        assert abs(p - purity) <= 1e-6

    def test_onejump_duration(self):
        purity = 0.5 * (1.0 + 0.99 ** 2)
        plan = plan_amplification("one_jump", {"m": 1.0}, purity)
        assert plan.t_gate == pytest.approx(0.99 / (0.01 * 2.0), rel=1e-12)
        p, _ = purity_entropy(plan.achieved)
        assert abs(p - purity) <= 1e-6

    @pytest.mark.parametrize("gate", ["three_jump", "linear_non_cp"])
    def test_two_stage_plan(self, gate):
        purity = 0.5 * (1.0 + 0.99 ** 2)
        plan = plan_amplification(gate, {"M": 1.0, "gamma": 0.0}, purity,
                                  epsilon=1e-3)
        # independent root of eps^2 cosh(2t) = r^2
        def radius_sq(t):
            return 1e-6 * math.cosh(2.0 * t)

        lo, hi = 0.0, 20.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if radius_sq(mid) < 0.99 ** 2:
                lo = mid
            else:
                hi = mid
        assert plan.t_gate == pytest.approx(0.5 * (lo + hi), rel=1e-9)
        assert plan.pre_amp is not None
        assert plan.pre_amp.duration == pytest.approx(-math.log(1 - 1e-3) / 4,
                                                      rel=1e-12)
        p, _ = purity_entropy(plan.achieved)
        assert abs(p - purity) <= 1e-6
        # the amplified state points along the diagonal
        d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        assert float(plan.achieved.r @ d) >= 0.99 - 1e-6

    def test_validated_by_reintegration(self):
        purity = 0.5 * (1.0 + 0.99 ** 2)
        plan = plan_amplification("three_jump", {"M": 1.0, "gamma": 0.5},
                                  purity, epsilon=1e-3)
        pre = dp45(plan.pre_amp.spec, PsdState(1.0, [0, 0, 0]), plan.pre_amp.duration)
        assert pre.r[-1, 0] == pytest.approx(1e-3, rel=1e-9)
        main = dp45(plan.main.spec, PsdState(pre.tau[-1], pre.r[-1]), plan.t_gate)
        assert np.linalg.norm(main.r[-1]) == pytest.approx(0.99, abs=1e-6)

    @pytest.mark.parametrize("purity", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("gate, params", [
        ("linear_cptp", {"m": 1.0}), ("one_jump", {"m": 1.0}),
        ("three_jump", {"M": 1.0, "gamma": 0.5}),
        ("linear_non_cp", {"M": 1.0, "gamma": 0.5})])
    def test_achieved_agrees_with_dp45(self, gate, params, purity):
        plan = plan_amplification(gate, params, purity)
        state = PsdState(1.0, [0, 0, 0])
        for stage in [plan.pre_amp, plan.main] if plan.pre_amp else [plan.main]:
            fin = dp45(stage.spec, state, stage.duration).final_state
            state = PsdState(fin.tau, fin.r)
        assert plan.achieved.tau == pytest.approx(state.tau, rel=1e-9)
        assert np.abs(plan.achieved.r - state.r).max() <= 1e-9
        assert purity_entropy(plan.achieved)[0] == pytest.approx(purity, abs=1e-11)

    @pytest.mark.parametrize("purity, rel", [(0.9, 1e-12), (0.99, 1e-12), (0.999, 1e-9)])
    @pytest.mark.parametrize("gate, params", [
        ("linear_cptp", {"m": 1.0}), ("one_jump", {"m": 1.0}),
        ("three_jump", {"M": 1.0, "gamma": 0.5}),
        ("linear_non_cp", {"M": 1.0, "gamma": 0.5})])
    def test_durations_match_the_closed_forms(self, gate, params, purity, rel):
        # Near purity 1 the one-jump time is ill-conditioned: |dr/dt| =
        # 2 m^2 (1 - r)^2 there.
        plan = plan_amplification(gate, params, purity)
        pre, main = gate_durations(gate, params, math.sqrt(2.0 * purity - 1.0))
        assert plan.t_gate == plan.main.duration
        assert plan.t_gate == pytest.approx(main, rel=rel, abs=0)
        if pre is None:
            assert plan.pre_amp is None
        else:
            assert plan.pre_amp.duration == pytest.approx(pre, rel=rel, abs=0)
        assert purity_entropy(plan.achieved)[0] == pytest.approx(purity, rel=0, abs=1e-12)

    @pytest.mark.parametrize("gate, params", [
        ("linear_cptp", {"m": 10.0}), ("one_jump", {"m": 10.0}),
        ("three_jump", {"M": 10.0, "gamma": 5.0})])
    def test_fast_gate_without_budget(self, gate, params):
        # The stage scans at most max_steps grid steps, not to t_max = inf.
        plan = plan_amplification(gate, params, 0.99, t_max=math.inf)
        _, main = gate_durations(gate, params, math.sqrt(0.98))
        assert plan.t_gate == pytest.approx(main, rel=1e-12, abs=0)

    def test_unreachable_target_names_the_scan(self):
        with pytest.raises(TargetUnreachable, match=(
                r"gate one_jump: the main stage does not reach \|r\| = 0\.99: "
                r"no radius root by t = 10 \(t_max = 10\)$")) as info:
            plan_amplification("one_jump", {"m": 1.0}, 0.5 * (1.0 + 0.99 ** 2), t_max=10.0)
        assert type(info.value.__cause__) is StepFailure
        with pytest.raises(TargetUnreachable, match=r"reach \|r\| = 0\.99999999: no"):
            plan_amplification("one_jump", {"m": 1.0}, 0.5 * (1.0 + 0.99999999 ** 2),
                               t_max=10.0)

    @pytest.mark.parametrize("gate, params", [
        ("linear_cptp", {"m": 1.0}), ("one_jump", {"m": 1.0}),
        ("three_jump", {"M": 1.0, "gamma": 0.5}),
        ("linear_non_cp", {"M": 1.0, "gamma": 0.5})])
    def test_stage_scanned_in_segments(self, gate, params):
        # The flow is autonomous: scanned in segments of 7 grid steps, each
        # from the grid state the one before kept at its end, a stage ends
        # where plan_amplification's one scan of the whole horizon ends.
        whole = plan_amplification(gate, params, 0.99)
        pre, main = gate_durations(gate, params, math.sqrt(0.98))
        stages = [] if pre is None else [(whole.pre_amp.spec, 1e-3)]
        y, durations = np.array([1.0, 0.0, 0.0, 0.0]), []
        for spec, rho in stages + [(whole.main.spec, math.sqrt(0.98))]:
            gen = assemble(spec)
            horizon = min(1e4, IntegratorOpts.max_steps / gen._norm1)
            n = dynamics._grid_steps(gen, horizon)
            t0 = 0.0
            for k in range(0, n, 7):
                m = min(7, n - k)
                t1 = horizon if k + m == n else (k + m) * (horizon / n)
                scan = dynamics._scan(gen, y, t1 - t0, m, rho, targets=[t1 - t0])
                if scan.t_stop is not None:
                    break
                t0, y = t1, scan.y[-1]
            assert scan.event == "radius"
            durations.append(t0 + scan.t_stop)
            y = scan.y_stop
        assert durations[-1] == pytest.approx(main, rel=1e-12, abs=0)
        assert whole.t_gate == pytest.approx(durations[-1], rel=1e-13, abs=0)
        if pre is not None:
            assert durations[0] == pytest.approx(pre, rel=1e-12, abs=0)
            assert whole.pre_amp.duration == pytest.approx(durations[0], rel=1e-13, abs=0)
        assert np.abs(whole.achieved.r - y[1:]).max() <= 1e-13
        assert purity_entropy(whole.achieved)[0] == pytest.approx(0.99, rel=0, abs=1e-12)

    def test_unreachable_stage_keeps_no_state(self, monkeypatch):
        # A radius beyond reach scans the whole horizon in one scan that
        # keeps no grid state.
        seen = []

        def scan(*args, **kwargs):
            seen.append((args[3], real(*args, **kwargs)))
            return seen[-1][1]

        real = dynamics._scan
        monkeypatch.setattr(dynamics, "_scan", scan)
        with pytest.raises(TargetUnreachable):
            plan_amplification("one_jump", {"m": 1.0}, 0.99, t_max=20.0)
        gen = assemble(presets.onejump_nino(1.0))
        [(n, result)] = seen
        assert n == dynamics._grid_steps(gen, 20.0) and result.steps == n
        assert result.event is None and result.y.shape == (0, 4)

    def test_no_finite_horizon_is_unreachable(self):
        # m^2 = 1e-320 is subnormal: max_steps / ||A||_1 overflows to inf.
        with pytest.raises(TargetUnreachable, match=(
                r"gate linear_cptp: the main stage does not reach \|r\| = 0\.8944\d*: "
                r"the rates give no finite scan horizon; give a finite t_max$")) as info:
            plan_amplification("linear_cptp", {"m": 1e-160}, 0.9, t_max=math.inf)
        assert type(info.value.__cause__) is StepFailure

    def test_blow_up_first_is_unreachable(self, monkeypatch):
        # L = -I and g = 2 keep r = 0 while s = 2 e^{-2t} - 1 reaches 0 at
        # t* = ln(2) / 2.
        monkeypatch.setitem(presets.PRESETS, "linear_cptp", lambda m: ChannelSpec(
            HermitianPauliVector([-1.0, 0.0, 0.0, 0.0]), g=2.0))
        with pytest.raises(TargetUnreachable, match=(
                r"gate linear_cptp: the main stage does not reach \|r\| = 0\.99: "
                r"the state diverges at t\* = 0\.3465735902799\d*, ")) as info:
            plan_amplification("linear_cptp", {"m": 1.0}, 0.5 * (1.0 + 0.99 ** 2))
        assert type(info.value.__cause__) is BlowUp

    def test_overflow_first_is_unreachable(self, monkeypatch):
        # L = +I and g = 0 keep r = 0 while tau = e^{2t} passes 2^511 at
        # t = 511 ln(2) / 2 = 177.1: the scan ends at the grid time before.
        monkeypatch.setitem(presets.PRESETS, "linear_cptp", lambda m: ChannelSpec(
            HermitianPauliVector([1.0, 0.0, 0.0, 0.0]), g=0.0))
        with pytest.raises(TargetUnreachable, match=(
                r"gate linear_cptp: the main stage does not reach \|r\| = 0\.99: "
                r"the state overflows after t = 177: ")) as info:
            plan_amplification("linear_cptp", {"m": 1.0}, 0.5 * (1.0 + 0.99 ** 2))
        assert type(info.value.__cause__) is StepFailure

    def test_equal_rates_rejected(self):
        with pytest.raises(InvalidParams):
            plan_amplification("three_jump", {"M": 1.0, "gamma": 1.0}, 0.9)

    def test_onejump_unreachable_target(self):
        with pytest.raises(TargetUnreachable):
            plan_amplification("one_jump", {"m": 1.0}, 1.0 - 1e-13)

    @pytest.mark.parametrize("purity", [0.5, 1.0, 0.2])
    def test_purity_range_enforced(self, purity):
        with pytest.raises(InvalidParams):
            plan_amplification("linear_cptp", {"m": 1.0}, purity)

    def test_epsilon_range_enforced(self):
        with pytest.raises(InvalidParams):
            plan_amplification("three_jump", {"M": 1.0, "gamma": 0.0}, 0.9,
                               epsilon=0.5)

    @pytest.mark.parametrize("t_max", [math.nan, 0.0, -1.0])
    def test_t_max_must_be_positive(self, t_max):
        # A NaN budget would compare false against every duration and so
        # switch the budget off without a word.
        with pytest.raises(InvalidParams, match="t_max must be positive"):
            plan_amplification("one_jump", {"m": 1.0}, 0.9, t_max=t_max)

    def test_infinite_t_max_sets_no_budget(self):
        with pytest.raises(TargetUnreachable):
            plan_amplification("linear_cptp", {"m": 1.0}, 0.99, t_max=1.0)
        plan = plan_amplification("linear_cptp", {"m": 1.0}, 0.99, t_max=math.inf)
        assert plan.t_gate > 1.0

    @pytest.mark.parametrize("gate", ["linear_cptp", "one_jump"])
    def test_zero_jump_strength_rejected(self, gate):
        with pytest.raises(InvalidParams, match="m must be nonzero"):
            plan_amplification(gate, {"m": 0.0}, 0.9)

    def test_unknown_gate(self):
        with pytest.raises(InvalidParams):
            plan_amplification("no_such_gate", {}, 0.9)


def test_analysis_reads_no_private_name():
    # analysis reaches the other modules through their public names only: it
    # imports no _-prefixed name and reads no _-prefixed attribute, dunders
    # aside.
    tree = ast.parse(Path(analysis.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
            names += (getattr(node, "module", None) or "").split(".")
        else:
            continue
        private += [(node.lineno, name) for name in names if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))]
    assert private == []
