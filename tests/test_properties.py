"""Property tests: hypothesis draws integer seeds for the conftest generators.

Drawing seeds rather than raw floats keeps the specs as well conditioned as
the generators make them.  Each example that once failed is kept with
``@example``.
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from blochamp import (  # noqa: E402
    IntegratorOpts,
    PsdState,
    assemble,
    classify,
    dualize,
    integrate,
    presets,
    reconstruct,
)
from conftest import (  # noqa: E402
    coords_of,
    matrix_rhs,
    random_cone_state,
    random_gksl_spec,
    random_nino_spec,
    random_pseudolinear_spec,
    scaled_spec,
)

PROPERTY = settings(derandomize=True, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
TIGHT = IntegratorOpts(rtol=1e-12, atol=1e-14, allow_off_cone=True)


def _spec(kind, seed):
    rng = np.random.default_rng(seed)
    n_jumps = 1 + seed % 3
    if kind == "preset":
        names = presets.preset_names()
        return presets.PRESETS[names[seed % len(names)]]()
    if kind == "nino":
        return random_nino_spec(rng)
    if kind == "pseudolinear":
        return random_pseudolinear_spec(rng, n_jumps)
    return random_gksl_spec(rng, n_jumps, zeta=1 if kind == "gksl" else None)


def _state(seed):
    tau, r = random_cone_state(np.random.default_rng(seed + 1))
    return np.concatenate(([tau], r))


def _exact(gen, y0, ts):
    """y(t) = e^{At} y0 / s(t), s = 1 + g (tau(e^{At} y0) - tau0), one row per time."""
    ys = gen.propagator(ts) @ y0
    return ys / (1.0 + gen.g * (ys[:, :1] - y0[0]))


def _clear_of_blow_up(gen, y0, t_end):
    """True when s(t) stays above 0.1 on [0, t_end], checked at 50 times."""
    ys = gen.propagator(np.linspace(0.0, t_end, 50)) @ y0
    return bool(np.all(1.0 + gen.g * (ys[:, 0] - y0[0]) > 0.1))


@PROPERTY
@given(st.sampled_from(["preset", "nino", "pseudolinear", "gksl", "noncp_gksl"]),
       SEEDS, st.floats(-2.0, 6.0))
@example("preset", 0, 5.0)        # linear_cptp lost pseudo_linear
@example("preset", 4, 6.0)        # threejump_nino lost unital
@example("gksl", 0, 4.0)          # lost pseudo_linear
@example("noncp_gksl", 0, 4.0)    # lost pseudo_linear
def test_classify_flags_ignore_rate_scale(kind, seed, log_k):
    # Multiplying every rate by k runs the same flow k times faster.
    spec = _spec(kind, seed)
    assert classify(scaled_spec(spec, 10.0 ** log_k)) == classify(spec)


@PROPERTY
@given(SEEDS, st.sampled_from([0.5, 1.0, 2.0]))
def test_trace_plane_is_invariant(seed, g):
    spec = replace(random_nino_spec(np.random.default_rng(seed)), g=g)
    y0 = _state(seed)
    y0 = y0 / (g * y0[0])
    gen = assemble(spec)
    t_end = 1.0 / gen.scale
    assume(_clear_of_blow_up(gen, y0, t_end))
    ts = np.linspace(0.0, t_end, 6)
    traj = integrate(spec, PsdState(y0[0], y0[1:], physical=False), t_end, TIGHT,
                     sample_times=ts)
    assert np.abs(g * traj.tau - 1.0).max() <= 1e-12


@PROPERTY
@given(SEEDS, st.booleans())
def test_gksl_channels_keep_states_in_the_cone(seed, pure):
    spec = _spec("gksl", seed)
    gen = assemble(spec)
    y0 = _state(seed)
    if pure:
        y0[1:] *= y0[0] / np.linalg.norm(y0[1:])
    ts = np.linspace(0.0, 5.0 / gen.scale, 11)
    ys = gen.propagator(ts) @ y0
    assert (ys[:, 0] - np.linalg.norm(ys[:, 1:], axis=1)).min() >= -1e-12 * y0[0]
    traj = integrate(spec, PsdState(y0[0], y0[1:]), ts[-1])
    assert traj.cone_margin.min() >= -1e-9 * y0[0]


@PROPERTY
@given(SEEDS)
def test_pseudolinear_channel_and_its_dual_agree_on_the_plane(seed):
    spec = _spec("pseudolinear", seed)
    gen, dual = assemble(spec), assemble(dualize(spec))
    y0 = _state(seed)
    y0 = y0 / y0[0]
    assert np.abs(gen.velocity(y0) - dual.velocity(y0)).max() <= 1e-12 * gen.scale
    ts = np.linspace(0.0, 2.0 / gen.scale, 6)
    a, b = _exact(gen, y0, ts), _exact(dual, y0, ts)
    assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0]))
def test_propagator_dp45_and_operator_rhs_agree(seed, g):
    rng = np.random.default_rng(seed)
    spec = replace(random_nino_spec(rng), g=g, h=rng.normal(size=3))
    gen = assemble(spec)
    y0 = _state(seed)
    dtau, dr = coords_of(matrix_rhs(spec, reconstruct(PsdState(y0[0], y0[1:]))))
    v = gen.velocity(y0)
    assert np.abs(v - np.concatenate(([dtau], dr))).max() <= 1e-12 * gen.scale * y0[0]

    t_end = 1.0 / gen.scale
    assume(_clear_of_blow_up(gen, y0, t_end))
    ts = np.linspace(0.0, t_end, 6)
    exact = _exact(gen, y0, ts)
    traj = integrate(spec, PsdState(y0[0], y0[1:], physical=False), t_end, TIGHT,
                     sample_times=ts)
    got = np.column_stack((traj.tau, traj.r))
    assert np.abs(got - exact).max() <= 1e-9 * np.abs(exact).max()
