import math
from dataclasses import replace

import numpy as np
import pytest

from blochamp import (
    ChannelSpec,
    HermitianPauliVector,
    IntegratorOpts,
    InvalidParams,
    JumpTerm,
    PauliVectorC,
    PsdState,
    assemble,
    classify,
    dualize,
    initial_velocity,
    integrate,
    load_spec,
    rhs,
    save_spec,
    shift_transform,
)
from blochamp.channels import expm, jump_generator
from blochamp import presets, reconstruct
from blochamp.tolerances import ROUNDOFF
from conftest import (coords_of, matrix_rhs, random_jump, random_nino_spec,
                      random_pseudolinear_spec, scaled_spec, trace_jump_generator)


def random_spec(rng, g, n_jumps=None):
    """Random channel with nonlinearity strength g and a random precession."""
    return replace(random_nino_spec(rng, n_jumps), g=g, h=rng.normal(size=3))


class TestJumpGenerator:
    @pytest.mark.parametrize("m", [1.0, 0.7])
    def test_x_raising(self, m):
        g, c = jump_generator(presets.jump_x_raising(m))
        assert np.abs(g - m * m * np.diag([-2, 0, 0])).max() <= 1e-12
        assert np.abs(c - m * m * np.array([2, 0, 0])).max() <= 1e-12

    def test_xy_mix(self):
        g, c = jump_generator(presets.jump_xy_mix(1.0))
        assert np.abs(g - np.array([[0, 2, 0], [2, 0, 0], [0, 0, -2]])).max() <= 1e-12
        assert np.abs(c).max() <= 1e-12

    def test_z_shift(self):
        g, c = jump_generator(presets.jump_z_shift(1.0))
        assert np.abs(g - np.diag([0, 0, 2])).max() <= 1e-12
        assert np.abs(c - np.array([0, 0, 2])).max() <= 1e-12

    def test_z_flip(self):
        g, c = jump_generator(presets.jump_z_flip(1.0))
        assert np.abs(g - np.diag([-1, -1, 1])).max() <= 1e-12
        assert np.abs(c).max() <= 1e-12

    def test_closed_form_agrees_with_traces(self, rng):
        for _ in range(200):
            j = random_jump(rng)
            g, c = jump_generator(j)
            g_ref, c_ref = trace_jump_generator(j)
            scale = max(1.0, np.abs(g_ref).max(), np.abs(c_ref).max())
            assert np.abs(g - g_ref).max() <= 1e-12 * scale
            assert np.abs(c - c_ref).max() <= 1e-12 * scale

    def test_zero_jump_rejected(self):
        with pytest.raises(InvalidParams):
            JumpTerm(PauliVectorC(np.zeros(4)), 1)

    def test_bad_sign_rejected(self):
        with pytest.raises(InvalidParams):
            JumpTerm(PauliVectorC([0, 0, 1, 0]), 2)


class TestChannelSpecValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_g_rejected(self, bad):
        with pytest.raises(InvalidParams, match="g must be finite"):
            ChannelSpec(HermitianPauliVector(np.zeros(4)), g=bad)

    def test_non_finite_h_rejected(self):
        with pytest.raises(InvalidParams, match="h must be finite"):
            ChannelSpec(HermitianPauliVector(np.zeros(4)), h=[0.0, math.nan, 0.0])

    def test_non_finite_spec_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"ell": [NaN, 0, 0, 0], "jumps": []}')
        with pytest.raises(ValueError, match="ell must be finite"):
            load_spec(path)


class TestAssemble:
    def test_linear_cptp(self):
        gen = assemble(presets.linear_cptp(1.0))
        assert np.abs(gen.A[1:, 1:] - np.diag([-4, -2, -2])).max() <= 1e-12
        assert np.abs(gen.A[1:, 0] - np.array([4, 0, 0])).max() <= 1e-12
        assert np.abs(gen.A[0]).max() <= 1e-12

    def test_threejump(self):
        big_m, gamma = 1.0, 0.5
        gen = assemble(presets.threejump_nino(big_m, gamma))
        expected_omega = np.array([-(big_m + gamma / 2), 0, 0, 0])
        assert np.abs(-gen.A[0] - expected_omega).max() <= 1e-12
        assert np.abs(gen.A[1:, 0]).max() <= 1e-12
        g_eff = gen.A[1:, 1:] - gen.g * gen.A[0, 0] * np.eye(3)
        expected = np.array([[-gamma, big_m, 0],
                             [big_m, -gamma, 0],
                             [0, 0, -2 * big_m]])
        assert np.abs(g_eff - expected).max() <= 1e-12

    def test_nojump(self):
        l0, l1 = 0.4, 0.9
        gen = assemble(presets.nojump_nino(l0, l1))
        assert np.abs(gen.A[1:, 1:] - 2 * l0 * np.eye(3)).max() <= 1e-12
        assert np.abs(gen.A[1:, 0] - [2 * l1, 0, 0]).max() <= 1e-12
        assert np.abs(-gen.A[0] - [-2 * l0, -2 * l1, 0, 0]).max() <= 1e-12

    def test_linear_noncp(self):
        big_m, gamma = 1.0, 0.5
        gen = assemble(presets.linear_noncp(big_m, gamma))
        expected = np.array([[-gamma, big_m, 0],
                             [big_m, -gamma, 0],
                             [0, 0, -2 * big_m]])
        assert np.abs(gen.A[1:, 1:] - expected).max() <= 1e-12
        assert np.abs(gen.A[1:, 0]).max() <= 1e-12
        assert np.abs(gen.A[0]).max() <= 1e-12

    def test_empty_spec(self):
        spec = ChannelSpec(HermitianPauliVector(np.zeros(4)))
        gen = assemble(spec)
        assert np.abs(gen.A[1:, 1:]).max() == 0.0
        assert np.abs(gen.A[1:, 0]).max() == 0.0
        assert np.abs(gen.A[0]).max() == 0.0

    def test_omega_matches_matrix_computation(self, rng):
        # A[0] is -Omega; A[1:, 0] and A[1:, 1:] are 2 ell_vec + sum zeta C_j
        # and 2 ell_0 I + sum zeta G_j + 2 [h]_x, from the 2x2-trace oracle.
        for i in range(200):
            spec = random_spec(rng, g=1.0, n_jumps=1 + i % 3)
            gen = assemble(spec)
            omega_m = -2.0 * spec.ell.to_matrix()
            c_ref = 2.0 * spec.ell.ell[1:]
            g_ref = 2.0 * spec.ell.ell[0] * np.eye(3) + 2.0 * np.cross(
                spec.h, np.eye(3)).T
            for j in spec.jumps:
                b = j.matrix
                omega_m -= j.zeta * (b.conj().T @ b)
                gj, cj = trace_jump_generator(j)
                g_ref += j.zeta * gj
                c_ref += j.zeta * cj
            ref = HermitianPauliVector.from_matrix(omega_m).ell
            scale = max(1.0, np.abs(ref).max(), np.abs(g_ref).max())
            assert np.abs(gen.omega.ell - ref).max() <= 1e-12 * scale
            assert np.abs(gen.A[0] + ref).max() <= 1e-12 * scale
            assert np.abs(gen.A[1:, 0] - c_ref).max() <= 1e-12 * scale
            assert np.abs(gen.A[1:, 1:] - g_ref).max() <= 1e-12 * scale

    def test_a_is_read_only_and_views_match_blocks(self, rng):
        gen = assemble(random_spec(rng, g=0.5, n_jumps=2))
        with pytest.raises(ValueError):
            gen.A[1, 1] = 0.0
        assert np.array_equal(gen.omega.ell, -gen.A[0])
        assert np.array_equal(gen.C_total, gen.A[1:, 0])
        assert np.array_equal(gen.G_linear, gen.A[1:, 1:])
        for view in (gen.C_total, gen.G_linear):
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_scale_is_the_one_norm_of_a(self, rng):
        for i in range(20):
            gen = assemble(random_spec(rng, g=0.5, n_jumps=i % 4))
            assert gen.scale == max(1.0, np.linalg.norm(gen.A, 1))
        assert assemble(ChannelSpec(HermitianPauliVector(np.zeros(4)))).scale == 1.0

    def test_rhs_matches_operator_space(self, rng):
        # The assembled coordinate equation equals the raw operator equation:
        # rhs at one state, and velocity on a stack of states in one call.
        for i in range(150):
            spec = random_spec(rng, g=(0.0, 0.5, 1.0)[i % 3])
            tau = 0.5 + rng.random(4)
            r = rng.normal(size=(4, 3))
            r *= (0.8 * tau * rng.random(4) / np.linalg.norm(r, axis=1))[:, None]
            states = [PsdState(t, v) for t, v in zip(tau, r)]
            refs = [coords_of(matrix_rhs(spec, reconstruct(s))) for s in states]
            velocities = assemble(spec).velocity(np.column_stack((tau, r)))
            for v, (dtau_ref, dr_ref) in zip(velocities, refs):
                scale = max(1.0, np.abs(dr_ref).max(), abs(dtau_ref))
                assert abs(v[0] - dtau_ref) <= 1e-12 * scale
                assert np.abs(v[1:] - dr_ref).max() <= 1e-12 * scale
            dr, dtau = rhs(spec, states[0])
            dtau_ref, dr_ref = refs[0]
            scale = max(1.0, np.abs(dr_ref).max(), abs(dtau_ref))
            assert abs(dtau - dtau_ref) <= 1e-12 * scale
            assert np.abs(dr - dr_ref).max() <= 1e-12 * scale

    def test_precession_term(self):
        spec = ChannelSpec(HermitianPauliVector(np.zeros(4)), g=0.0,
                           h=[0.0, 0.0, 0.5])
        dr, dtau = rhs(spec, PsdState(1.0, [0.3, 0, 0]))
        # dr/dt = 2 h x r
        assert np.allclose(dr, [0.0, 0.3, 0.0], atol=1e-14)
        assert dtau == 0.0


class TestClassify:
    def test_linear_cptp(self):
        c = classify(presets.linear_cptp(1.0))
        assert c.cp and c.linear and c.taxonomy_class == "i"
        assert not c.unital
        assert c.trace_preserving == "unconditional"

    def test_linear_noncp(self):
        c = classify(presets.linear_noncp(1.0, 0.5))
        assert not c.cp
        assert c.taxonomy_class == "i"
        assert c.unital
        assert c.trace_preserving == "unconditional"

    def test_onejump(self):
        c = classify(presets.onejump_nino(1.0))
        assert c.cp
        assert c.taxonomy_class == "ii"
        assert not c.pseudo_linear
        assert c.trace_preserving == "conditional"

    def test_pseudolinear(self):
        c = classify(presets.pseudolinear_nino(1.0))
        assert c.pseudo_linear and c.taxonomy_class == "ii"

    def test_linear_with_nonzero_omega_is_not_trace_preserving(self):
        c = classify(ChannelSpec(HermitianPauliVector([0, 1, 0, 0]), g=0.0))
        assert c.linear and c.taxonomy_class == "i"
        assert c.trace_preserving == "none"

    def test_unital_iff_zero_initial_velocity(self, rng):
        for _ in range(50):
            spec = random_nino_spec(rng)
            c = classify(spec)
            dr, dtau = initial_velocity(spec)
            v = max(np.abs(dr).max(), abs(dtau))
            assert c.unital == (v <= ROUNDOFF * assemble(spec).scale)

    @pytest.mark.parametrize("k", [1e-2, 1e4, 1e6])
    def test_flags_survive_rescaled_rates(self, k):
        # Multiplying every rate by k only runs the flow k times faster.
        for name in presets.preset_names():
            spec = presets.PRESETS[name]()
            assert classify(scaled_spec(spec, k)) == classify(spec), name


class TestInitialVelocity:
    def test_matches_operator_form(self, rng):
        for i in range(60):
            spec = random_spec(rng, g=(0.0, 0.5, 1.0)[i % 3])
            dr, dtau = initial_velocity(spec)
            dtau_ref, dr_ref = coords_of(matrix_rhs(spec, 0.5 * np.eye(2)))
            scale = max(1.0, np.abs(dr_ref).max(), abs(dtau_ref))
            assert np.abs(dr - dr_ref).max() <= 1e-12 * scale
            assert abs(dtau - dtau_ref) <= 1e-12 * scale

    def test_linear_cptp(self):
        dr, dtau = initial_velocity(presets.linear_cptp(1.0))
        assert np.allclose(dr, [4, 0, 0], atol=1e-12)
        assert abs(dtau) <= 1e-12

    def test_threejump_unital(self):
        dr, dtau = initial_velocity(presets.threejump_nino(1.0, 0.5))
        assert np.linalg.norm(dr) <= 1e-12
        assert abs(dtau) <= 1e-12

    def test_nojump(self):
        dr, dtau = initial_velocity(presets.nojump_nino(0.3, 0.8))
        assert np.allclose(dr, [1.6, 0, 0], atol=1e-12)


class TestShiftTransform:
    def test_zero_shift_is_identity(self):
        spec = presets.onejump_nino(1.0)
        shifted = shift_transform(spec, 0.0)
        assert np.array_equal(shifted.ell.ell, spec.ell.ell)
        assert shifted.jumps == spec.jumps

    def test_onejump_omega_shift(self):
        # Shifting by m^2 moves Omega from 2m^2(sigma_x - I) down by 2m^2 I.
        shifted = shift_transform(presets.onejump_nino(1.0), 1.0)
        w = assemble(shifted).omega.ell
        assert np.allclose(w, [-4.0, 2.0, 0.0, 0.0], atol=1e-12)

    def test_pseudolinear_shift_cancels_omega(self):
        spec = presets.pseudolinear_nino(1.0)
        kappa = assemble(spec).omega.ell[0]
        shifted = shift_transform(spec, kappa / 2.0)
        assert np.abs(assemble(shifted).omega.ell).max() <= 1e-12

    def test_rhs_invariant_on_unit_trace_plane(self, rng):
        for _ in range(50):
            spec = random_nino_spec(rng)
            c = rng.normal()
            shifted = shift_transform(spec, c)
            r = rng.normal(size=3)
            r *= 0.9 * rng.random() / np.linalg.norm(r)
            state = PsdState(1.0, r)
            dr_a, dtau_a = rhs(spec, state)
            dr_b, dtau_b = rhs(shifted, state)
            scale = max(1.0, np.abs(dr_a).max())
            assert np.abs(dr_a - dr_b).max() <= 1e-12 * scale
            assert abs(dtau_a - dtau_b) <= 1e-12 * scale


class TestDualize:
    def test_pseudolinear_dual_is_linear_cptp(self):
        dual = dualize(presets.pseudolinear_nino(1.0))
        ref = presets.linear_cptp(1.0)
        assert np.abs(dual.ell.ell - ref.ell.ell).max() <= 1e-12
        assert dual.g == 0.0
        assert len(dual.jumps) == len(ref.jumps)
        for a, b in zip(dual.jumps, ref.jumps):
            assert a.zeta == b.zeta
            assert np.abs(a.xi.xi - b.xi.xi).max() <= 1e-12

    def test_threejump_dual_is_linear_noncp(self):
        dual = dualize(presets.threejump_nino(1.0, 0.5))
        ref = presets.linear_noncp(1.0, 0.5)
        assert np.abs(dual.ell.ell - ref.ell.ell).max() <= 1e-12
        assert dual.g == 0.0

    def test_dual_omega_vanishes(self, rng):
        for _ in range(20):
            spec = random_pseudolinear_spec(rng)
            dual = dualize(spec)
            assert np.abs(assemble(dual).omega.ell).max() <= 1e-10

    def test_dual_rhs_agrees_on_unit_trace_plane(self, rng):
        for _ in range(50):
            spec = random_pseudolinear_spec(rng)
            dual = dualize(spec)
            r = rng.normal(size=3)
            r *= rng.random() / max(1.0, np.linalg.norm(r))
            state = PsdState(1.0, r)
            dr_a, _ = rhs(spec, state)
            dr_b, _ = rhs(dual, state)
            assert np.abs(dr_a - dr_b).max() <= 1e-12 * max(1.0, np.abs(dr_a).max())

    def test_rejects_non_pseudolinear(self):
        with pytest.raises(InvalidParams):
            dualize(presets.onejump_nino(1.0))

    def test_rejects_wrong_nonlinearity(self):
        spec = presets.linear_cptp(1.0)
        with pytest.raises(InvalidParams):
            dualize(spec)


class TestSpecFiles:
    def test_round_trip(self, tmp_path, rng):
        spec = random_nino_spec(rng, n_jumps=2)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert np.array_equal(back.ell.ell, spec.ell.ell)
        assert back.g == spec.g
        assert np.array_equal(back.h, spec.h)
        assert len(back.jumps) == len(spec.jumps)
        for a, b in zip(back.jumps, spec.jumps):
            assert a.zeta == b.zeta
            assert np.array_equal(a.xi.xi, b.xi.xi)

    def test_preset_reference(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"preset": "linear_cptp", "params": {"m": 0.5}}')
        spec = load_spec(path)
        ref = presets.linear_cptp(0.5)
        assert np.array_equal(spec.ell.ell, ref.ell.ell)

    def test_every_preset_round_trips_identically(self, tmp_path):
        from blochamp import expand_preset, preset_names, Preset

        for name in preset_names():
            spec = expand_preset(Preset(name))
            path = tmp_path / f"{name}.json"
            save_spec(spec, path)
            back = load_spec(path)
            assert np.array_equal(back.ell.ell, spec.ell.ell)
            assert back.g == spec.g
            assert [j.zeta for j in back.jumps] == [j.zeta for j in spec.jumps]
            for a, b in zip(back.jumps, spec.jumps):
                assert np.array_equal(a.xi.xi, b.xi.xi)


def random_matrix(rng, norm1):
    """Random 4x4 matrix with the given 1-norm (largest column sum)."""
    a = rng.normal(size=(4, 4))
    return a * (norm1 / np.abs(a).sum(axis=0).max())


def max_rel_dev(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestExpm:
    def test_zero_is_identity(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))

    def test_diagonal(self):
        d = np.array([-30.0, -1.5, 0.0, 2.5])
        got = expm(np.diag(d))
        assert np.array_equal(got, np.diag(np.diag(got)))
        assert np.allclose(np.diag(got), np.exp(d), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam, t", [(-0.7, 3.0), (0.0, 40.0), (2.0, 0.5),
                                        (-5.0, 8.0)])
    def test_jordan_block(self, lam, t):
        # The one-jump generator is defective; e^{t J} of a Jordan block
        # checks that no eigendecomposition is involved.
        got = expm(t * np.array([[lam, 1.0], [0.0, lam]]))
        want = math.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_semigroup(self, rng):
        for _ in range(50):
            a = random_matrix(rng, rng.uniform(0.1, 20.0))
            s, t = rng.uniform(0.0, 1.0, 2)
            assert max_rel_dev(expm(a * s) @ expm(a * t), expm(a * (s + t))) <= 1e-12

    def test_batch_matches_single_calls(self, rng):
        # Norms from 0 to 30 give each matrix its own scaling exponent.
        stack = np.array([random_matrix(rng, x) for x in np.linspace(0.0, 30.0, 12)])
        batch = expm(stack)
        assert batch.shape == stack.shape
        for a, e in zip(stack, batch):
            assert max_rel_dev(e, expm(a)) <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(4)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            expm(a)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="expected"):
            expm(np.zeros(shape))


def test_expm_matches_scipy(rng):
    linalg = pytest.importorskip("scipy.linalg")
    for norm1 in np.linspace(0.0, 50.0, 200):
        a = random_matrix(rng, norm1)
        assert max_rel_dev(expm(a), linalg.expm(a)) <= 1e-11


class TestPropagator:
    def test_matches_integration(self, rng):
        # y(t) = e^{At} y0 / (1 + g (tau(e^{At} y0) - tau0)) against DP45 at
        # rtol 1e-12, on the defective one-jump gate and random specs.
        specs = [presets.onejump_nino(1.0), presets.linear_noncp(1.0, 0.5)]
        specs += [random_spec(rng, g=(0.0, 0.5, 1.0)[i % 3]) for i in range(12)]
        ts = np.linspace(0.0, 0.2, 5)
        opts = IntegratorOpts(rtol=1e-12, atol=1e-14, allow_off_cone=True)
        y0 = np.array([1.0, 0.3, -0.2, 0.1])
        for spec in specs:
            big_y = assemble(spec).propagator(ts) @ y0
            want = big_y / (1.0 + spec.g * (big_y[:, :1] - y0[0]))
            traj = integrate(spec, PsdState(y0[0], y0[1:]), ts[-1], opts,
                             sample_times=ts)
            got = np.column_stack((traj.tau, traj.r))
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())

    def test_time_zero_is_identity(self):
        p = assemble(presets.threejump_nino(1.0, 0.5)).propagator([0.0, 1.0])
        assert p.shape == (2, 4, 4)
        assert np.array_equal(p[0], np.eye(4))

    @pytest.mark.parametrize("ts", [[0.1, math.nan], [math.inf], [[0.1]]])
    def test_rejects_bad_times(self, ts):
        with pytest.raises(ValueError, match="times must be"):
            assemble(presets.linear_cptp(1.0)).propagator(ts)
