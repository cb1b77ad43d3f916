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
    AffineGenerator,
    BlowUp,
    IntegratorOpts,
    PsdState,
    assemble,
    classify,
    dualize,
    dynamics,
    find_fixed_points,
    integrate,
    plan_amplification,
    presets,
    reconstruct,
)
from blochamp.errors import IntegrationError  # noqa: E402
from conftest import (  # noqa: E402
    coords_of,
    dp45,
    expm,
    first_event,
    matrix_rhs,
    merged_integrate,
    mp_event,
    random_cone_state,
    random_gksl_spec,
    random_nino_spec,
    random_pseudolinear_spec,
    scaled_spec,
)

PROPERTY = settings(derandomize=True, deadline=None)
SEEDS = st.integers(0, 2 ** 32 - 1)
OFF_CONE = IntegratorOpts(allow_off_cone=True)
# Off the cone a state first crosses the pure surface: every run ends at
# t_end, at that crossing or in a blow-up.
TO_SURFACE = IntegratorOpts(allow_off_cone=True, stop_on_surface=True)


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
       SEEDS, st.floats(-100.0, 6.0))
@example("preset", 0, 5.0)        # linear_cptp lost pseudo_linear
@example("preset", 4, 6.0)        # threejump_nino lost unital
@example("gksl", 0, 4.0)          # lost pseudo_linear
@example("noncp_gksl", 0, 4.0)    # lost pseudo_linear
def test_classify_flags_ignore_rate_scale(kind, seed, log_k):
    # Multiplying every rate by k runs the same flow k times faster.
    spec = _spec(kind, seed)
    assert classify(scaled_spec(spec, 10.0 ** log_k)) == classify(spec)


def _labels(rep):
    return ([p.stability for p in rep.points], [line.marginal for line in rep.fixed_lines])


@PROPERTY
@given(st.sampled_from(["preset", "nino", "pseudolinear", "gksl", "noncp_gksl"]),
       SEEDS, st.floats(-100.0, 6.0))
def test_fixed_point_labels_ignore_rate_scale(kind, seed, log_k):
    # The same flow run k times faster has the same fixed points, labels,
    # fixed lines and marginal flags.
    spec = _spec(kind, seed)
    rep = find_fixed_points(spec)
    assert _labels(find_fixed_points(scaled_spec(spec, 10.0 ** log_k))) == _labels(rep)


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
    for engine in (integrate, dp45):
        traj = engine(spec, PsdState(y0[0], y0[1:], physical=False), t_end, OFF_CONE,
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


def _outcome(run):
    """A run's rows, stop and step count, or its error's type, text and
    state, with the floats as bytes so that equal means bit for bit."""
    try:
        traj = run()
    except IntegrationError as err:
        return type(err), str(err), np.array([err.t, err.tau, *err.r]).tobytes()
    return (traj.stop_reason, traj.stats,
            np.column_stack((traj.t, traj.tau, traj.r)).tobytes())


@PROPERTY
@given(st.sampled_from(["preset", "nino", "pseudolinear", "gksl", "noncp_gksl"]),
       SEEDS, st.sampled_from(["none", "end", "201", "grid", "random"]),
       st.booleans(), st.booleans(), st.booleans())
def test_integrate_matches_the_merged_oracle(kind, seed, sampling, stop_on_surface,
                                             allow_off_cone, off_plane):
    # integrate keeps only the grid states its samples start from and checks
    # the cone as it scans; the oracle keeps the whole grid, merges the
    # samples into it and checks the cone in one pass over both.
    spec = _spec(kind, seed)
    gen = assemble(spec)
    rng = np.random.default_rng(seed + 2)
    y0 = _state(seed) * (0.5 + rng.random() if off_plane else 1.0)
    t_end = (0.5 + 200.0 * rng.random()) / gen.scale
    n = dynamics._grid_steps(gen, t_end)
    sample_times = {
        "none": None, "end": [t_end], "201": np.linspace(0.0, t_end, 201),
        "grid": np.linspace(0.0, t_end, n + 1)[::3],
        "random": np.sort(rng.random(17)) * t_end}[sampling]
    opts = IntegratorOpts(allow_off_cone=allow_off_cone, stop_on_surface=stop_on_surface)
    start = PsdState(y0[0], y0[1:], physical=False)
    with np.errstate(all="ignore"):
        got, want = (_outcome(lambda: engine(spec, start, t_end, opts,
                                             sample_times=sample_times))
                     for engine in (integrate, merged_integrate))
    assert got == want


def _family(seed, g):
    """A random channel of nonlinearity g with precession, its generator and
    an initial state inside the cone."""
    rng = np.random.default_rng(seed)
    spec = replace(random_nino_spec(rng), g=g, h=rng.normal(size=3))
    return spec, assemble(spec), _state(seed)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0]))
@example(0, 1.0)                  # stops at the surface
@example(3, 1.0)                  # stops at the surface at 0.0434, before t* = 0.0545
@example(16, 1.0)                 # the same at 0.0996, before t* = 0.109, after six samples
def test_propagator_dp45_and_operator_rhs_agree(seed, g):
    spec, gen, y0 = _family(seed, g)
    dtau, dr = coords_of(matrix_rhs(spec, reconstruct(PsdState(y0[0], y0[1:]))))
    v = gen.velocity(y0)
    assert np.abs(v - np.concatenate(([dtau], dr))).max() <= 1e-12 * gen.scale * y0[0]

    start = PsdState(y0[0], y0[1:])
    t_end = 1.0 / gen.scale
    if _clear_of_blow_up(gen, y0, t_end):
        ts = np.linspace(0.0, t_end, 6)
        exact = _exact(gen, y0, ts)
        traj = dp45(spec, start, t_end, OFF_CONE, sample_times=ts)
        assert np.abs(_states(traj) - exact).max() <= 1e-9 * np.abs(exact).max()

    t_end = 4.0 / gen.scale
    ts = np.linspace(0.0, t_end, 9)
    try:
        _agrees_with_dp45(spec, start, t_end, ts)
    except BlowUp as exc:
        with pytest.raises(BlowUp) as ref:
            dp45(spec, start, t_end, TO_SURFACE, sample_times=ts)
        assert ref.value.t == pytest.approx(exc.t, rel=1e-12)
        before = ts[ts < exc.t]
        if len(before) > 1:
            _agrees_with_dp45(spec, start, before[-1], before)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0]))
@example(3, 1.0)                  # blows up, surface between the grid and t*
@example(16, 1.0)
@example(136, 1.0)
def test_halving_roots_match_the_bisection_from_the_bracket_start(seed, g):
    # The scan's one event, t* without a radius and t* or the surface root
    # on the pure surface, found by ITP, against the oracle that bisects
    # the same grid step on the same predicate with each midpoint from the
    # bracket start by its own Pade exponential (conftest.expm).
    spec, gen, y0 = _family(seed, g)
    t_end = 4.0 / gen.scale
    n = dynamics._grid_steps(gen, t_end)
    for rho in (None, 1.0):
        scan = dynamics._scan(gen, y0, t_end, n, rho)
        if scan.t_stop is None:
            assert scan.steps == n and len(scan.y) == n
            continue
        # The scan ends at the last grid time before its event.
        t, y = scan.steps * (t_end / n), np.vstack((y0, scan.y))[scan.steps]
        t_lo, _, t_hi, diverges = first_event(gen, t, y, t_end / n, rho)
        assert (scan.event == "blow_up") == diverges
        if diverges:
            # Both form s near t* from its value at the bracket start plus
            # the increment's, so neither cancels digits of Y_tau: on the
            # first 600 seeds the two agree to 4.1e-16.
            assert abs(scan.t_stop - t_hi) <= 1e-15 * t_hi
            continue
        assert dynamics._margin(scan.y_stop) >= 0.0

        def oracle(t_root):
            return dynamics._advance(gen, y, t_root - t)

        # The state y = z / s grows as s falls towards t*, and s cancels the
        # roundoff of z by the same factor.
        want = oracle(scan.t_stop)
        size = np.abs(want).max()
        tol = 1e-14 * max(1.0, size / np.abs(y).max()) * size
        assert np.abs(scan.y_stop - want).max() <= tol
        if abs(scan.t_stop - t_lo) > 1e-15 * t_lo:
            # A margin within roundoff of 0 near the root sent the two to
            # different ends: the margin is that small at both roots.
            assert abs(dynamics._margin(want)) <= tol
            assert abs(dynamics._margin(oracle(t_lo))) <= tol


# Seeds of _family at g = 1 whose runs to t = 4 / scale blow up or reach the
# pure surface: the first 160, and the two worst conditioned events of the
# first 500, 412 (the surface met at a shallow angle, kappa_t = 89) and 416
# (the surface met as s falls to 0.005, kappa_s = 187).
_TRUTH_SEEDS = (*range(160), 412, 416)


def _truth_row(gen, y0, scan, rho):
    """The scan's event from y0 with its 40-digit truth (``mp_event``) and
    condition numbers: kappa_t = |Y| / (|f'| t*), the relative change of the
    root per relative change of Y, f being the event function, and kappa_s
    = 1 + |g| |Y| / s, that of the state Y / s at a radius root, where
    s > 0.  Returns (event, scan, truth, kappa_t, kappa_s)."""
    root, big_y, state = mp_event(gen, y0, scan.t_stop, rho)
    dy = gen.A @ big_y
    slope = gen.g * dy[0] if rho is None else (
        rho * dy[0] - big_y[1:] @ dy[1:] / np.linalg.norm(big_y[1:]))
    size = np.abs(big_y).max()
    s = 1.0 + gen.g * (big_y[0] - y0[0])  # 0 at t*, up to roundoff
    return (scan.event, scan, (root, state), size / abs(slope * root),
            None if rho is None else 1.0 + abs(gen.g) * size / s)


def _amplifiable(rng):
    """y0 = (1, r) of a surface stop of the benchmark's ensemble: r uniform
    in the ball |r| <= 0.9 with 0.2 <= |x + y| <= 0.4, which the growing
    coordinate of threejump_nino and linear_noncp carries to the surface."""
    while True:
        v = rng.normal(size=3)
        r = v / np.linalg.norm(v) * 0.9 * rng.random() ** (1.0 / 3.0)
        if 0.2 <= abs(r[0] + r[1]) <= 0.4:
            return np.concatenate(([1.0], r))


def _gate_main_stages():
    """(gen, y0, scan, rho) of the main stage of each gate plan at purity
    0.9 and 0.99: the last ``dynamics._scan`` call of plan_amplification."""
    stages, seen, real = [], [], dynamics._scan

    def scan(gen, y0, *args, **kwargs):
        out = real(gen, y0, *args, **kwargs)
        seen.append((gen, y0, out, args[2]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_scan", scan)
        for gate, params in (("linear_cptp", {"m": 1.0}), ("one_jump", {"m": 1.0}),
                             ("three_jump", {"M": 1.0, "gamma": 0.5}),
                             ("linear_non_cp", {"M": 1.1, "gamma": 0.4})):
            for purity in (0.9, 0.99):
                plan_amplification(gate, params, purity)
                stages.append(seen[-1])
    return stages


@pytest.fixture(scope="module")
def truth_events():
    """The scan's events with their 40-digit truth, as ``_truth_row`` rows:
    the blow-ups and surface stops of _family on the _TRUTH_SEEDS; the
    surface stops of threejump_nino and linear_noncp from ``_amplifiable``
    states, with M = 1.1 and gamma = 0.35 M, each up to 5% off, and t_end =
    10, as the benchmark's ensemble runs them; and the main stage of each
    gate plan at purity 0.9 and 0.99."""
    rows = []
    for seed in _TRUTH_SEEDS:
        _, gen, y0 = _family(seed, 1.0)
        t_end = 4.0 / gen.scale
        n = dynamics._grid_steps(gen, t_end)
        for rho, event in ((None, "blow_up"), (1.0, "radius")):
            scan = dynamics._scan(gen, y0, t_end, n, rho)
            if scan.event == event:
                rows.append(_truth_row(gen, y0, scan, rho))
    assert len(rows) >= 80
    for seed in range(20):
        rng = np.random.default_rng(seed)
        big_m = 1.1 * rng.uniform(0.95, 1.05)
        gamma = 0.35 * big_m * rng.uniform(0.95, 1.05)
        build = (presets.threejump_nino, presets.linear_noncp)[seed % 2]
        gen, y0 = assemble(build(big_m, gamma)), _amplifiable(rng)
        scan = dynamics._scan(gen, y0, 10.0, dynamics._grid_steps(gen, 10.0), 1.0)
        assert scan.event == "radius"
        rows.append(_truth_row(gen, y0, scan, 1.0))
    for gen, y0, scan, rho in _gate_main_stages():
        assert scan.event == "radius"
        rows.append(_truth_row(gen, y0, scan, rho))
    return rows


def test_event_times_match_the_40_digit_truth(truth_events):
    # Within 1e-14 of t* for a root with kappa_t <= 10, and 1e-15 kappa_t of
    # it beyond.  The worst of the 89 events of _family is a third of that
    # bound (seed 412: 2.9e-14 at kappa_t = 89), the median 1.8e-16; the 20
    # ensemble surface stops are within 1.1e-15, and the 8 gate stages
    # within 0.19 of the bound.  Midpoints reached through a chain of half
    # steps failed it on 3 events, by up to 1.47 times the bound, with a
    # median of 6.4e-16.
    for _, scan, (root, _), kappa_t, _ in truth_events:
        assert abs(scan.t_stop - root) <= 1e-15 * max(10.0, kappa_t) * root


def test_radius_root_states_match_the_40_digit_truth(truth_events):
    # The exact state at the scan's own root time, within 2e-15 of its
    # largest component for kappa_s <= 2, and 1e-15 kappa_s beyond.  The
    # worst of the 66 surface stops of _family is 0.30 of that bound, the
    # median 1.8e-16; the ensemble's stops are within 0.50 of it and the
    # gate stages within 0.67 (1.3e-15).  Midpoints reached through a chain
    # of half steps failed it on 3 events, by up to 1.49 times the bound,
    # with a median of 8.2e-16 (seed 416: 1.8e-13).
    for event, scan, (_, state), _, kappa_s in truth_events:
        if event == "radius":
            size = np.abs(state).max()
            assert np.abs(scan.y_stop - state).max() <= 1e-15 * max(2.0, kappa_s) * size


@PROPERTY
@given(st.sampled_from(["preset", "nino", "pseudolinear", "gksl", "noncp_gksl"]),
       SEEDS, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example("preset", 0, 1.0, 0.5)   # a whole grid step of linear_cptp
@example("gksl", 1, 0.0, 0.5)     # dt = 0
def test_advance_matches_expm(kind, seed, frac, other):
    # _advance's Taylor polynomial against the Pade exponential, for any dt
    # up to a grid step, 1 / ||A||_1.  g = 0 leaves the linear part, which
    # is what the polynomial replaces; the division by s is unchanged.  A
    # row is the same, bit for bit, alone (the propagator's one-time path,
    # dt a float or a numpy scalar) or in a stack.
    gen = AffineGenerator(assemble(_spec(kind, seed)).A, 0.0)
    y = _state(seed)
    dt = frac / gen.scale
    want = expm(gen.A * dt) @ y
    got = dynamics._advance(gen, y, dt)
    assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()
    assert np.array_equal(dynamics._advance(gen, y, np.float64(dt)), got)
    stack = dynamics._advance(gen, np.array([y, y[::-1]]), np.array([dt, other * dt]))
    assert np.array_equal(stack[0], got)


def _states(traj):
    return np.column_stack((traj.tau, traj.r))


def _agrees_with_dp45(spec, start, t_end, ts):
    """integrate and the dp45 oracle end the same way, at the same time, with
    the same rows and states within 1e-9 of the largest."""
    traj = integrate(spec, start, t_end, TO_SURFACE, sample_times=ts)
    ref = dp45(spec, start, t_end, TO_SURFACE, sample_times=ts)
    assert traj.stop_reason == ref.stop_reason
    assert np.array_equal(traj.t[:-1], ref.t[:-1])
    assert traj.t[-1] == pytest.approx(ref.t[-1], rel=1e-9)
    want = _states(ref)
    assert np.abs(_states(traj) - want).max() <= 1e-9 * np.abs(want).max()
