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
    assemble,
    integrate,
    reconstruct,
)
from blochamp.dynamics import CSV_HEADER
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
    """Oracle for choi_spectra: integrate the four operator-basis elements
    with DP45 at rtol 1e-12, then assemble sum_ij E_ij (x) Phi_t(E_ij) with
    Kronecker products, one time at a time."""
    ts = np.asarray(ts, dtype=float)
    unique_ts = np.unique(ts)
    basis = [PsdState(tau, r, physical=False) for tau, r in _CHOI_BASIS]
    if ts.max() == 0.0:
        propagated = [{0.0: state} for state in basis]
    else:
        opts = IntegratorOpts(rtol=1e-12, atol=1e-14, allow_off_cone=True)
        propagated = []
        for state in basis:
            traj = integrate(spec, state, float(ts.max()), opts, sample_times=unique_ts)
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
