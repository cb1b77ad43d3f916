import numpy as np
import pytest

from blochamp import ChannelSpec, HermitianPauliVector, JumpTerm, PauliVectorC, assemble
from blochamp.pauli import SIGMA


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


def random_gksl_spec(rng, n_jumps=2):
    """Random linear trace-preserving channel: L = -(1/2) sum zeta B^dag B."""
    jumps = tuple(random_jump(rng, zeta=1) for _ in range(n_jumps))
    btb = np.zeros((2, 2), dtype=complex)
    for j in jumps:
        b = j.matrix
        btb += j.zeta * (b.conj().T @ b)
    return ChannelSpec(
        ell=HermitianPauliVector.from_matrix(-0.5 * btb),
        jumps=jumps,
        g=0.0,
    )


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
