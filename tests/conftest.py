import math
from dataclasses import replace

import numpy as np
import pytest

from blochamp import (
    ChannelSpec,
    HermitianPauliVector,
    IntegratorOpts,
    JumpTerm,
    PauliVectorC,
    PsdState,
    StepFailure,
    assemble,
    dynamics,
    reconstruct,
)
from blochamp.dynamics import CSV_HEADER, StepStats
from blochamp.pauli import SIGMA
from blochamp.tolerances import EIG_ROUNDOFF, SURFACE_TOL


# The oracle for AffineGenerator.propagator, independent of its Taylor
# polynomial: scaling and squaring with the Pade approximant.
#
# Coefficients b_0..b_13 of the degree-13 Pade approximant to e^x, and the
# 1-norm up to which it is accurate to double precision (Higham 2005).
# Dividing by b_0 makes the denominator I + O(x), so e^0 is exactly I.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of one square matrix or of a stack (N, n, n).

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26(4)): each matrix is divided by its own
    power of two 2^s, the smallest that brings its 1-norm to theta_13 or
    below, and its approximant is squared s times.  No eigendecomposition,
    so defective matrices are as accurate as any other.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected an (n, n) or (N, n, n) array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    stack = a.reshape(-1, *a.shape[-2:])
    norm = np.abs(stack).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(int)
    x = np.ldexp(stack, -s[:, None, None])
    b = _PADE13
    eye = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * eye)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(a.shape)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_cone_state(rng, tau_max=2.0):
    """Uniform direction, radius strictly inside the cone."""
    tau = 0.2 + (tau_max - 0.2) * rng.random()
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    return tau, d * tau * 0.99 * rng.random()


def random_jump(rng, zeta=None):
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = zeta if zeta is not None else int(rng.choice([-1, 1]))
    return JumpTerm(PauliVectorC(xi), z)


def random_nino_spec(rng, n_jumps=None):
    """Random channel with unit nonlinearity strength."""
    n = int(rng.integers(0, 4)) if n_jumps is None else n_jumps
    return ChannelSpec(
        ell=HermitianPauliVector(rng.normal(size=4)),
        jumps=tuple(random_jump(rng) for _ in range(n)),
        g=1.0,
    )


def random_pseudolinear_spec(rng, n_jumps=2):
    """Random jumps with L chosen so Omega is proportional to the identity."""
    jumps = tuple(random_jump(rng) for _ in range(n_jumps))
    btb = np.zeros((2, 2), dtype=complex)
    for j in jumps:
        b = j.matrix
        btb += j.zeta * (b.conj().T @ b)
    ell = HermitianPauliVector.from_matrix(-0.5 * btb).ell
    ell = ell + np.array([rng.normal(), 0.0, 0.0, 0.0])
    return ChannelSpec(ell=HermitianPauliVector(ell), jumps=jumps, g=1.0)


def random_gksl_spec(rng, n_jumps=2, zeta=1):
    """Random linear trace-preserving channel: L = -(1/2) sum zeta B^dag B.

    zeta=None draws each jump's sign at random (a non-CP channel when any
    sign is -1)."""
    jumps = tuple(random_jump(rng, zeta=zeta) for _ in range(n_jumps))
    btb = np.zeros((2, 2), dtype=complex)
    for j in jumps:
        b = j.matrix
        btb += j.zeta * (b.conj().T @ b)
    return ChannelSpec(
        ell=HermitianPauliVector.from_matrix(-0.5 * btb),
        jumps=jumps,
        g=0.0,
    )


def scaled_spec(spec, k):
    """The channel with every rate multiplied by k > 0: L and h by k, each
    jump by sqrt(k).  Its flow is the original one run k times faster."""
    root = np.sqrt(k)
    return replace(
        spec, ell=HermitianPauliVector(k * spec.ell.ell), h=k * spec.h,
        jumps=tuple(JumpTerm(PauliVectorC(root * j.xi.xi), j.zeta) for j in spec.jumps))


def random_rotation(rng):
    """A uniformly random 3x3 rotation matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def rotated_spec(spec, rot):
    """The channel in a rotated Pauli frame: each sigma-vector part (of L,
    of every jump and of h) is multiplied by rot, so r(t) becomes rot r(t)."""
    def turn(c):
        return np.concatenate(([c[0]], rot @ c[1:]))

    return replace(
        spec, ell=HermitianPauliVector(turn(spec.ell.ell)), h=rot @ spec.h,
        jumps=tuple(JumpTerm(PauliVectorC(turn(j.xi.xi)), j.zeta) for j in spec.jumps))


def matrix_rhs(spec, x):
    """Independent operator-space evaluation of the equation of motion."""
    ell_m = spec.ell.to_matrix()
    dx = ell_m @ x + x @ ell_m
    omega = -2.0 * ell_m
    for j in spec.jumps:
        b = j.matrix
        bd = b.conj().T
        dx += j.zeta * (b @ x @ bd)
        omega -= j.zeta * (bd @ b)
    dx += spec.g * np.trace(x @ omega).real * x
    if np.any(spec.h):
        h_m = sum(hv * s for hv, s in zip(spec.h, SIGMA[1:]))
        dx += -1j * (h_m @ x - x @ h_m)
    return dx


# Dormand-Prince 4(5) tableau (FSAL; the fifth-order solution propagates).
# The flow is autonomous, so the nodes c_i are not needed.

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# Difference between the fifth- and fourth-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _dp45_step(f, y, h, k1):
    k = [k1]
    for i in range(1, 6):
        yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
        k.append(f(yi))
    y_new = y + h * (_B[0] * k[0] + _B[2] * k[2] + _B[3] * k[3]
                     + _B[4] * k[4] + _B[5] * k[5])
    k.append(f(y_new))
    err = h * (_E[0] * k[0] + _E[2] * k[2] + _E[3] * k[3]
               + _E[4] * k[4] + _E[5] * k[5] + _E[6] * k[6])
    return y_new, k[6], err


def _scaled(v, scale):
    """v / scale, where 0/0 counts as 0 and a nonzero v over 0 as inf.

    A zero scale needs atol = 0 and a zero coordinate.
    """
    return np.divide(v, scale, out=np.where(v == 0.0, 0.0, np.inf),
                     where=scale != 0.0)


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.sqrt(np.mean(_scaled(err, scale) ** 2)))


def _initial_step(y, k1, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y)
    d0 = float(np.linalg.norm(_scaled(y, scale)))
    d1 = float(np.linalg.norm(_scaled(k1, scale)))
    if not (d0 >= 1e-5 and 1e-5 <= d1 < math.inf):  # d1 = inf would give h = 0
        h = t_end / 100.0
    else:
        h = 0.01 * d0 / d1
    return min(h, t_end / 10.0)


def bisect(state_at, y, h, inside, done):
    """Bisection, the oracle for dynamics._event_root: each midpoint state
    comes from the bracket start, ``state_at(mid)``, by a fresh step of its
    own.

    ``inside`` holds at y (dt = 0) and fails at dt = h.  The bracket
    [lo, hi] halves until ``done(lo, y_lo, hi)``, at most 200 times.
    Returns lo, the state there and hi.
    """
    lo, y_lo, hi = 0.0, y, h
    for _ in range(200):
        if done(lo, y_lo, hi):
            break
        mid = 0.5 * (lo + hi)
        y_mid = state_at(mid)
        if inside(y_mid):
            lo, y_lo = mid, y_mid
        else:
            hi = mid
    return lo, y_lo, hi


def bisect_surface(step_to, t, y, h_hi):
    """Shrink the step ``step_to(dt)`` from the state y at t until it lands
    on the pure surface from inside: until the state at the bracket's lower
    end has a cone margin of at most SURFACE_TOL, or the bracket is no
    wider than 1e-16 max(1, h_hi)."""
    lo, y_lo, _ = bisect(
        step_to, y, h_hi, lambda v: dynamics._margin(v) >= 0.0,
        lambda lo, y_lo, hi: (dynamics._margin(y_lo) <= SURFACE_TOL
                              or hi - lo <= 1e-16 * max(1.0, h_hi)))
    return t + lo, y_lo


def first_event(gen, t, y, h, rho=None):
    """Oracle for the event root of dynamics._scan: bisect, from the
    state y at t, the first dt in [0, h] at which s = 1 + g d_tau > 0 and,
    given rho, rho tau >= |r| on (y + d) / s fail together.  The increment
    d = e^{A dt} y - y is the last column's top of the expm of
    [[A dt, A y dt], [0, 0]], so s cancels no digits of y.  Returns the
    lower end's time and state (y + d) / s, and the upper end's time and
    whether s <= 0 there (a blow-up)."""
    aug = np.zeros((5, 5))
    aug[:4, :4], aug[:4, 4] = gen.A, gen.A @ y

    def s_of(d):
        return 1.0 + gen.g * d[0]

    def step_to(dt):
        return expm(aug * dt)[:4, 4]

    def inside(d):
        s = s_of(d)
        return s > 0.0 and (rho is None or dynamics._margin((y + d) / s, rho) >= 0.0)

    lo, d_lo, hi = bisect(
        step_to, np.zeros(4), h, inside,
        lambda lo, d_lo, hi: hi - lo <= 4e-16 * (t + hi))
    return t + lo, (y + d_lo) / s_of(d_lo), t + hi, s_of(step_to(hi)) <= 0.0


def blow_up_time(gen, t, y, h):
    """Oracle for the t* of dynamics._scan: ``first_event`` without a radius."""
    return first_event(gen, t, y, h)[2]


def blow_up(gen, y0, t_end):
    """Oracle for the blow-up that dynamics._scan finds: the states on
    integrate's grid, each by its own expm from y0, up to the first with
    s = 1 + g (tau(e^{At} y0) - tau0) <= 0.  Returns t* from
    ``blow_up_time`` on the step before it, the grid time that starts that
    step and the state there; None when s stays positive."""
    n = dynamics._grid_steps(gen, t_end)
    ts = np.linspace(0.0, t_end, n + 1)
    big_y = expm(gen.A * ts[:, None, None]) @ y0
    s = 1.0 + gen.g * (big_y[:, 0] - y0[0])
    out = np.flatnonzero(s <= 0.0)
    if not out.size:
        return None
    k = out[0] - 1
    y = big_y[k] / s[k]
    return blow_up_time(gen, ts[k], y, t_end / n), ts[k], y


def mp_exact(a, t):
    """Oracle at the truth for AffineGenerator.propagator: e^{At} by
    mpmath.expm at 40 digits, A and t read as exact doubles, as an mpmath
    matrix.  Skips the test without mpmath."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        return mp.expm(mp.matrix(np.asarray(a, dtype=float).tolist()) * mp.mpf(float(t)))


def mp_event(gen, y0, t, rho=None):
    """Oracle at the truth for the event that dynamics._scan finds near t:
    the root of s = 1 + g (Y_tau - tau0), or given rho of rho Y_tau - |Y_r|,
    Y = e^{At} y0, by the secant method at 40 digits on the Taylor series
    of Y about t, whose terms A^k Y(t) / k! come from ``mp_exact``.  Returns
    the root, and Y and the exact state Y / s at t, rounded to doubles."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.matrix(gen.A.tolist())
        terms = [mp_exact(gen.A, t) * mp.matrix([float(v) for v in y0])]
        for k in range(1, 30):
            terms.append(a * terms[-1] / k)

        def big_y(dt):
            return sum((dt ** k * v for k, v in enumerate(terms)), mp.zeros(4, 1))

        def f(dt):
            y = big_y(dt)
            if rho is None:
                return 1 + gen.g * (y[0] - mp.mpf(float(y0[0])))
            return rho * y[0] - mp.sqrt(y[1] ** 2 + y[2] ** 2 + y[3] ** 2)

        root = t + mp.findroot(f, (mp.mpf(0), mp.mpf(1e-10) / gen.scale))
        y = terms[0]
        state = y / (1 + gen.g * (y[0] - mp.mpf(float(y0[0]))))
        return float(root), np.array(y.tolist(), dtype=float).ravel(), np.array(
            state.tolist(), dtype=float).ravel()


def keep_all_scan(gen, y0, t_end, n, rho=None):
    """Oracle for dynamics._scan without targets or cone test: the same
    blocks and one event root search, keeping every grid state.  Returns the
    grid times up to t_end or the last one before the event, the states
    there, the event's time (None without one) and the state at a radius
    root (None at t* or without an event)."""
    g = gen.g
    h = t_end / n
    powers = dynamics._powers(gen.propagator([h])[0], min(n, dynamics._RESCALE_STEPS))
    y, c = y0, 1.0 - g * y0[0]
    blocks = [y0[None]]
    k = 0
    t_stop = y_stop = None
    while k < n:
        m = max(abs(c), float(np.abs(y).max()))
        y, c = y / m, c / m
        ys = powers[:n - k] @ y
        s = c + g * ys[:, 0]
        out = s <= 0.0
        zs = ys / np.where(out, 1.0, s)[:, None]
        if rho is not None:
            out |= rho * zs[:, 0] < np.sqrt((zs[:, 1:] ** 2).sum(axis=1))
        hit = np.flatnonzero(out)
        j = int(hit[0]) if hit.size else len(ys)
        if j:
            blocks.append(zs[:j])
            y = ys[j - 1]
        k += j
        if hit.size:
            s_y = c + g * y[0]

            def probe(d):
                s_d = s_y + g * d[0]
                if rho is None:
                    return s_d > 0.0, s_d
                return (s_d > 0.0 and dynamics._margin((y + d) / s_d, rho) >= 0.0,
                        min(s_d, dynamics._margin(y + d, rho)))

            lo, d_lo, hi, d_hi = dynamics._event_root(gen, k * h, y, h, probe)
            if (s[j] if d_hi is None else s_y + g * d_hi[0]) <= 0.0:
                t_stop = k * h + hi
            else:
                t_stop, y_stop = k * h + lo, (y + d_lo) / (s_y + g * d_lo[0])
            break
    times = np.arange(k + 1, dtype=float) * h
    if k == n:
        times[-1] = t_end
    return times, np.concatenate(blocks), t_stop, y_stop


def merge_samples(gen, ts, ys, t_stop, blow_up, targets):
    """Each sample state advanced from the grid state at the last grid time
    at or before it, dropping the samples after the last grid time at a
    blow-up and those from a radius root on.  Returns the times and states
    of t = 0 and the samples, and of the grid and the samples merged in time
    order, grid first at equal times."""
    tq = np.asarray(targets)
    if t_stop is not None:
        tq = tq[tq <= ts[-1]] if blow_up else tq[tq < t_stop]
    k = np.searchsorted(ts, tq, side="right") - 1
    dt = tq - ts[k]
    yq = ys[k]
    moved = dt > 0.0
    if moved.any():
        yq[moved] = dynamics._advance(gen, yq[moved], dt[moved])
    t_all = np.concatenate((ts, tq))
    y_all = np.concatenate((ys, yq))
    order = np.argsort(t_all, kind="stable")
    return (np.concatenate(([0.0], tq)), np.concatenate((ys[:1], yq)),
            t_all[order], y_all[order])


def merged_integrate(spec, initial, t_end, opts=None, *, min_steps=1, sample_times=None):
    """Oracle for integrate: ``keep_all_scan`` keeps the whole grid, the
    samples are merged with it by ``merge_samples``, and one cone pass reads
    the merged states in time order before the scan's event is raised or
    recorded."""
    opts = IntegratorOpts() if opts is None else opts
    y0 = dynamics._initial_vector(initial, t_end, opts)
    targets = None if sample_times is None else dynamics._sample_targets(sample_times, t_end)
    gen = assemble(spec)
    if opts.stop_on_surface and dynamics._margin(y0) <= SURFACE_TOL:
        return dynamics._build_trajectory(spec, gen, [0.0], [y0], StepStats(0, 0, 0.0),
                                          "surface")
    n = dynamics._grid_steps(gen, t_end, min_steps)
    if n > opts.max_steps:
        raise StepFailure(f"the grid needs {n} steps, more than max_steps = "
                          f"{opts.max_steps}", 0.0, y0[0], y0[1:])
    grid_t, grid_y, t_stop, y_stop = keep_all_scan(
        gen, y0, t_end, n, 1.0 if opts.stop_on_surface else None)
    blow_up = t_stop is not None and y_stop is None
    if targets is None:
        ts, ys = t_all, y_all = grid_t, grid_y
    else:
        ts, ys, t_all, y_all = merge_samples(gen, grid_t, grid_y, t_stop, blow_up,
                                             targets)
    if not opts.allow_off_cone:
        dynamics._check_cone(t_all, y_all)
    steps = len(grid_t) - 1
    if blow_up:
        raise dynamics._blow_up_error(t_stop, grid_t[-1], grid_y[-1])
    if t_stop is not None:
        return dynamics._build_trajectory(spec, gen, np.append(ts, t_stop),
                                          np.vstack((ys, y_stop)),
                                          StepStats(steps + 1, 0, 0.0), "surface")
    return dynamics._build_trajectory(spec, gen, ts, ys, StepStats(steps, 0, 0.0), "t_end")


def _run_adaptive(f, y, targets, opts, rtol, atol, rec_t, rec_y, record_all):
    t = 0.0
    t_end = targets[-1]
    k1 = f(y)
    h = _initial_step(y, k1, t_end, rtol, atol)
    ti = 0
    n_acc = n_rej = 0
    max_err = 0.0

    while ti < len(targets):
        if n_acc + n_rej >= opts.max_steps:
            raise StepFailure("maximum step count exceeded", t, y[0], y[1:])
        target = targets[ti]
        h = min(h, target - t)
        hits_target = t + h >= target - 1e-14 * max(1.0, target)
        if hits_target:
            h = target - t
        y_new, k_new, err_vec = _dp45_step(f, y, h, k1)
        err = _error_norm(err_vec, y, y_new, rtol, atol)
        if not err <= 1.0:  # a NaN error norm is a rejection too
            n_rej += 1
            if h <= 1e-14 * max(1.0, abs(t)):
                raise StepFailure("step size underflow: local error tolerance "
                                  "cannot be met", t, y[0], y[1:])
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)
            continue
        n_acc += 1
        max_err = max(max_err, err)
        t_new = target if hits_target else t + h

        if opts.stop_on_surface and dynamics._margin(y_new) < 0.0:
            h_used = t_new - t
            t_s, y_s = bisect_surface(lambda hh: _dp45_step(f, y, hh, k1)[0], t, y,
                                      h_used)
            rec_t.append(t_s)
            rec_y.append(y_s.copy())
            return StepStats(n_acc, n_rej, max_err), "surface"
        if not opts.allow_off_cone:
            dynamics._check_cone([t_new], y_new[None])

        t, y, k1 = t_new, y_new, k_new
        if record_all or hits_target:
            rec_t.append(t)
            rec_y.append(y.copy())
        if hits_target:
            ti += 1
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.2))
        h = max(h, 1e-16) * factor
    return StepStats(n_acc, n_rej, max_err), "t_end"


def dp45(spec, initial, t_end, opts=None, *, rtol=1e-12, atol=1e-14, sample_times=None):
    """Oracle for integrate: Dormand-Prince 4(5) steps of the velocity with
    adaptive step-size control at rtol and atol.

    With ``sample_times`` the stepper lands on each sample time (no
    interpolation) and records t = 0, the samples and t_end; otherwise it
    records every accepted step.  It halts and stops as integrate does, with
    the surface bisected on the DP45 step.  A state that diverges at
    t* <= t_end, which ``blow_up`` finds, is stepped up to the last grid
    time before t*, then raises integrate's BlowUp.  A stop_on_surface run
    for which e^{A(t* - t_last)} y_last, t_last being that grid time, has a
    negative cone margin has left the cone before t* (s > 0 until then): it
    steps on towards t* and stops at the surface.  ``stats`` counts accepted
    and rejected steps and the largest accepted error norm.
    """
    opts = IntegratorOpts() if opts is None else opts
    y = dynamics._initial_vector(initial, t_end, opts)
    gen = assemble(spec)
    record_all = sample_times is None
    targets = ([float(t_end)] if record_all
               else dynamics._sample_targets(sample_times, t_end))
    rec_t, rec_y = [0.0], [y.copy()]
    if opts.stop_on_surface and dynamics._margin(y) <= SURFACE_TOL:
        return dynamics._build_trajectory(spec, gen, rec_t, rec_y, StepStats(0, 0, 0.0),
                                          "surface")
    diverges = blow_up(gen, y, t_end) if gen.g != 0.0 else None
    if diverges is not None:
        t_star, t_grid, y_grid = diverges
        t_last = float(t_grid)
        big_y = expm(gen.A * (t_star - t_last)) @ y_grid
        if opts.stop_on_surface and dynamics._margin(big_y) < 0.0:
            t_last = t_star
        targets = [v for v in targets if v < t_last] + [t_last]
    stats, stop_reason = _run_adaptive(gen.velocity, y, targets, opts, rtol, atol,
                                       rec_t, rec_y, record_all)
    if diverges is not None and stop_reason != "surface":
        raise dynamics._blow_up_error(*diverges)
    return dynamics._build_trajectory(spec, gen, rec_t, rec_y, stats, stop_reason)


def two_rate_gate_time(a, b, eps, r_target):
    """Solve (eps^2/2) (e^{2at} + e^{-2bt}) = r_target^2 for t.

    Starting from (eps, 0, 0) the rotated coordinates evolve as
    (eps/2) e^{at} and -(eps/2) e^{-bt}, so the squared radius is the left
    side; Newton from the asymptotic solution converges in a few steps.
    """
    target2 = r_target * r_target
    t = math.log(math.sqrt(2.0) * r_target / eps) / a

    def f(t):
        return 0.5 * eps * eps * (math.exp(2 * a * t) + math.exp(-2 * b * t)) - target2

    def fprime(t):
        return eps * eps * (a * math.exp(2 * a * t) - b * math.exp(-2 * b * t))

    for _ in range(60):
        step = f(t) / fprime(t)
        t -= step
        if abs(step) <= 1e-15 * max(1.0, abs(t)):
            break
    return t


def gate_durations(gate, params, r_target, eps=1e-3):
    """Oracle for plan_amplification: the closed-form stage durations
    (pre-amplification or None, main) from the maximally mixed state.

    linear_cptp: x = 1 - e^{-4 m^2 t}; one_jump: x' = 2 m^2 (1 - x)^2, so
    x = 2 m^2 t / (1 + 2 m^2 t); the two-rate gates run linear_cptp(1) to
    |r| = eps, then ``two_rate_gate_time`` with rates M - gamma, M + gamma.
    """
    if gate == "linear_cptp":
        return None, -math.log(1.0 - r_target) / (4.0 * params["m"] ** 2)
    if gate == "one_jump":
        return None, r_target / ((1.0 - r_target) * 2.0 * params["m"] ** 2)
    big_m, gamma = params["M"], params["gamma"]
    return (-math.log(1.0 - eps) / 4.0,
            two_rate_gate_time(big_m - gamma, big_m + gamma, eps, r_target))


def trace_jump_generator(j):
    """2x2-trace oracle for jump_generator: G[a,b] = tr(s_a B s_b B^dag)/2,
    C[a] = tr(s_a B B^dag)/2."""
    b = j.matrix
    bd = b.conj().T
    g = np.empty((3, 3))
    c = np.empty(3)
    for a in range(3):
        sa = SIGMA[a + 1]
        c[a] = np.trace(sa @ b @ bd).real / 2.0
        for k in range(3):
            g[a, k] = np.trace(sa @ b @ SIGMA[k + 1] @ bd).real / 2.0
    return g, c


def coords_of(m):
    """(tau, r) of a 2x2 operator: tau = tr(m), r_a = tr(sigma_a m), real parts."""
    return np.trace(m).real, np.array([np.trace(s @ m).real for s in SIGMA[1:]])


def plane_flow(spec):
    """Velocity dr/dt on the unit-trace plane of a g = 1 channel, and its
    Jacobian in r."""
    gen = assemble(spec)
    a0, b, g = gen.G_linear, gen.C_total, gen.g
    w0, wv = gen.omega.ell[0], gen.omega.ell[1:]

    def fval(r):
        return a0 @ r + b + g * (w0 + r @ wv) * r

    def jac(r):
        return a0 + g * ((w0 + r @ wv) * np.eye(3) + np.outer(r, wv))

    return fval, jac


def _damped_newton(fval, jac, r):
    res = float(np.linalg.norm(fval(r)))
    for _ in range(100):
        if res <= 1e-14:
            break
        step, *_ = np.linalg.lstsq(jac(r), -fval(r), rcond=None)
        lam = 1.0
        for _ in range(25):
            trial = r + lam * step
            trial_res = float(np.linalg.norm(fval(trial)))
            if trial_res < res:
                r, res = trial, trial_res
                break
            lam *= 0.5
        else:
            break
    return r if res <= 1e-12 else None


def newton_roots(spec):
    """Oracle for fixed points on the unit-trace plane: damped Newton from a
    5x5x5 seed grid over |r| <= 1.2, with roots closer than 1e-6 merged into
    their mean."""
    fval, jac = plane_flow(spec)
    grid = np.linspace(-1.2, 1.2, 5)
    clusters = []
    seeds = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), -1).reshape(-1, 3)
    for seed in seeds:
        if np.linalg.norm(seed) > 1.2 + 1e-12:
            continue
        root = _damped_newton(fval, jac, seed)
        if root is None:
            continue
        for cluster in clusters:
            if any(np.linalg.norm(root - other) <= 1e-6 for other in cluster):
                cluster.append(root)
                break
        else:
            clusters.append([root])
    return [np.mean(c, axis=0) for c in clusters]


_E00 = np.array([[1, 0], [0, 0]], dtype=complex)
_E01 = np.array([[0, 1], [0, 0]], dtype=complex)
_E10 = np.array([[0, 0], [1, 0]], dtype=complex)
_E11 = np.array([[0, 0], [0, 1]], dtype=complex)

# (tau, r) of E00, E11 and the Hermitian/anti-Hermitian parts of E01.
_CHOI_BASIS = (
    (1.0, (0.0, 0.0, 1.0)),    # E00
    (1.0, (0.0, 0.0, -1.0)),   # E11
    (0.0, (1.0, 0.0, 0.0)),    # (E01 + E10)/2 = sigma_x / 2
    (0.0, (0.0, 1.0, 0.0)),    # (E01 - E10)/(2i) = sigma_y / 2
)


def integrated_choi_spectra(spec, ts):
    """Oracle for choi_spectra: step the four operator-basis elements with
    the dp45 oracle at rtol 1e-12, then assemble sum_ij E_ij (x) Phi_t(E_ij)
    with Kronecker products, one time at a time."""
    ts = np.asarray(ts, dtype=float)
    unique_ts = np.unique(ts)
    basis = [PsdState(tau, r, physical=False) for tau, r in _CHOI_BASIS]
    if ts.max() == 0.0:
        propagated = [{0.0: state} for state in basis]
    else:
        opts = IntegratorOpts(allow_off_cone=True)
        propagated = []
        for state in basis:
            traj = dp45(spec, state, float(ts.max()), opts, sample_times=unique_ts)
            propagated.append({float(t): traj.state(i) for i, t in enumerate(traj.t)})

    spectra = np.empty((ts.size, 4))
    for row, t in enumerate(ts):
        phi_e00, phi_e11, herm, anti = (reconstruct(tab[float(t)]) for tab in propagated)
        choi = (np.kron(_E00, phi_e00) + np.kron(_E01, herm + 1j * anti)
                + np.kron(_E10, herm - 1j * anti) + np.kron(_E11, phi_e11))
        spectra[row] = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
    return spectra


def csv_oracle(traj):
    """Oracle for Trajectory.write_csv: the header, then each value of each
    row formatted on its own with format(float(v), ".17g")."""
    lines = [CSV_HEADER]
    for i in range(len(traj.t)):
        row = (traj.t[i], traj.tau[i], traj.r[i, 0], traj.r[i, 1], traj.r[i, 2],
               traj.purity[i], traj.entropy[i], traj.tr_x_omega[i], traj.cone_margin[i])
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def monitor_oracle(gen, ys):
    """Oracle for the monitor columns of dynamics._build_trajectory: purity,
    entropy, tr(X Omega) and the cone margin of the states ys (m, 4), each
    array formed in full and masked under np.errstate.  A row with tau = 0
    has purity nan and entropy +0; an eigenvalue below -EIG_ROUNDOFF (off
    the cone) makes the entropy nan."""
    tau, r = ys[:, 0], ys[:, 1:]
    rn = np.sqrt((r ** 2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tau != 0.0, rn / tau, np.nan)
        purity = 0.5 * (1.0 + ratio ** 2)
        v = 0.5 * (1.0 + np.multiply.outer([1.0, -1.0], ratio))
        pos = v > 0.0
        xlogx = np.where(pos, v * np.log(np.where(pos, v, 1.0)), 0.0)
        xlogx = np.where(v < -EIG_ROUNDOFF, np.nan, xlogx)
        entropy = 0.0 - (xlogx[0] + xlogx[1])
    return purity, entropy, ys @ -gen.A[0], tau - rn
