"""Ready-made channel definitions used by the CLI and the verification suite.

Six presets cover the amplification gate families:

  linear_cptp(m)        completely positive gate with fixed point (tau,0,0)
  nojump_nino(l0, l1)   nonlinear gate with no jump operators
  onejump_nino(m)       nonlinear gate with a single nonnormal jump
  pseudolinear_nino(m)  nonlinear gate whose Omega is proportional to I
  threejump_nino(M, gamma)   nonlinear gate with an unstable center for M > gamma
  linear_noncp(M, gamma)     linear dual of the three-jump gate (one negative sign)
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSpec, JumpTerm
from .errors import InvalidParams
from .pauli import HermitianPauliVector, PauliVectorC

__all__ = [
    "Preset", "expand_preset", "PRESETS", "preset_names", "preset_params",
    "linear_cptp", "nojump_nino", "onejump_nino",
    "pseudolinear_nino", "threejump_nino", "linear_noncp",
    "jump_x_raising", "jump_xy_mix", "jump_z_shift", "jump_z_flip",
]


def _xi(coeffs, scale: float) -> PauliVectorC:
    return PauliVectorC(scale * np.asarray(coeffs, dtype=complex))


def jump_x_raising(m: float, zeta: int = 1) -> JumpTerm:
    """m (sigma_y + i sigma_z): nonnormal, drives amplification along +x."""
    return JumpTerm(_xi([0, 0, 1, 1j], m), zeta)


def jump_xy_mix(m: float, zeta: int = 1) -> JumpTerm:
    """m (sigma_x + sigma_y): Hermitian, couples the x and y coordinates."""
    return JumpTerm(_xi([0, 1, 1, 0], m), zeta)


def jump_z_shift(m: float, zeta: int = 1) -> JumpTerm:
    """m (I + sigma_z): Hermitian, pushes the z coordinate."""
    return JumpTerm(_xi([1, 0, 0, 1], m), zeta)


def jump_z_flip(m: float, zeta: int = 1) -> JumpTerm:
    """m sigma_z: Hermitian dephasing-type jump."""
    return JumpTerm(_xi([0, 0, 0, 1], m), zeta)


def _require_nonzero(name: str, value: float) -> float:
    value = float(value)
    if value == 0.0:
        raise InvalidParams(f"{name} must be nonzero")
    return value


def linear_cptp(m: float = 1.0) -> ChannelSpec:
    """Linear completely positive gate: one raising jump, L = m^2 (sigma_x - I).

    Coordinate form G = m^2 diag(-4,-2,-2), C = m^2 (4,0,0); the solution
    x(t) = (1 - exp(-4 m^2 t)) tau decelerates linearly near its fixed point.
    """
    m = _require_nonzero("m", m)
    m2 = m * m
    return ChannelSpec(
        ell=HermitianPauliVector([-m2, m2, 0.0, 0.0]),
        jumps=(jump_x_raising(m),),
        g=0.0,
    )


def nojump_nino(l0: float = 0.0, l1: float = 1.0) -> ChannelSpec:
    """Nonlinear gate with no jumps: L = l0*I + l1*sigma_x, g = 1.

    On the unit-trace plane dx/dt = 2 l1 (1 - x^2), with a stable fixed
    point at +x and an unstable one at -x for l1 > 0.
    """
    return ChannelSpec(
        ell=HermitianPauliVector([float(l0), float(l1), 0.0, 0.0]),
        jumps=(),
        g=1.0,
    )


def onejump_nino(m: float = 1.0) -> ChannelSpec:
    """Nonlinear gate with the raising jump alone (L = 0, g = 1).

    On the unit-trace plane dx/dt = 2 m^2 (1-x)^2: the approach to the pure
    state slows quadratically instead of linearly.
    """
    m = _require_nonzero("m", m)
    return ChannelSpec(
        ell=HermitianPauliVector([0.0, 0.0, 0.0, 0.0]),
        jumps=(jump_x_raising(m),),
        g=1.0,
    )


def pseudolinear_nino(m: float = 1.0) -> ChannelSpec:
    """Raising jump plus L = m^2 sigma_x with g = 1; Omega = -2 m^2 I.

    Restricted to the unit-trace plane this reproduces the linear_cptp
    motion exactly; its linear dual is linear_cptp(m).
    """
    m = _require_nonzero("m", m)
    m2 = m * m
    return ChannelSpec(
        ell=HermitianPauliVector([0.0, m2, 0.0, 0.0]),
        jumps=(jump_x_raising(m),),
        g=1.0,
    )


def _gain_loss_jumps(M: float, gamma: float) -> tuple[JumpTerm, ...]:
    if gamma < 0.0:
        raise InvalidParams(f"gamma must satisfy gamma >= 0, got {gamma}")
    if M < gamma / 2.0:
        raise InvalidParams(f"requires M >= gamma/2, got M={M}, gamma={gamma}")
    m12 = math.sqrt(M / 2.0)
    m3 = math.sqrt(M - gamma / 2.0)
    jumps = []
    if m12 > 0.0:
        jumps.append(jump_xy_mix(m12))
        jumps.append(jump_z_shift(m12))
    if m3 > 0.0:
        jumps.append(jump_z_flip(m3, zeta=-1))
    return tuple(jumps)


def threejump_nino(M: float = 1.0, gamma: float = 0.5) -> ChannelSpec:
    """Three jumps with signs (+,+,-), L = -(M/2) sigma_z, g = 1.

    Omega is tuned to -(M + gamma/2) I, so on the unit-trace plane the
    motion is linear with matrix [[-gamma, M, 0], [M, -gamma, 0], [0, 0, -2M]].
    The rotated coordinates (y +/- x)/2 grow at rate M - gamma and decay at
    rate M + gamma; for M > gamma the center of the ball is unstable and the
    gate amplifies without terminal deceleration.
    """
    M, gamma = float(M), float(gamma)
    return ChannelSpec(
        ell=HermitianPauliVector([0.0, 0.0, 0.0, -M / 2.0]),
        jumps=_gain_loss_jumps(M, gamma),
        g=1.0,
    )


def linear_noncp(M: float = 1.0, gamma: float = 0.5) -> ChannelSpec:
    """Linear dual of threejump_nino: same jumps, shifted L, g = 0.

    The negative sign on the dephasing jump makes the channel positive but
    not completely positive, which a finite-time Choi spectrum certifies.
    """
    M, gamma = float(M), float(gamma)
    jumps = _gain_loss_jumps(M, gamma)
    return ChannelSpec(
        ell=HermitianPauliVector([-(M + gamma / 2.0) / 2.0, 0.0, 0.0, -M / 2.0]),
        jumps=jumps,
        g=0.0,
    )


PRESETS = {
    "linear_cptp": linear_cptp,
    "nojump_nino": nojump_nino,
    "onejump_nino": onejump_nino,
    "pseudolinear_nino": pseudolinear_nino,
    "threejump_nino": threejump_nino,
    "linear_noncp": linear_noncp,
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


@functools.cache
def _param_names(builder) -> tuple[str, ...]:
    return tuple(inspect.signature(builder).parameters)


def preset_params(names=None) -> tuple[str, ...]:
    """Parameter names the named presets (default: all) take, first seen first."""
    builders = PRESETS.values() if names is None else [PRESETS[n] for n in names]
    return tuple(dict.fromkeys(p for b in builders for p in _param_names(b)))


@dataclass(frozen=True)
class Preset:
    """A named preset plus parameter overrides, expandable to a ChannelSpec."""

    name: str
    params: dict = field(default_factory=dict)


def expand_preset(p: Preset) -> ChannelSpec:
    """Expand a preset into its channel spec, validating parameter names."""
    try:
        builder = PRESETS[p.name]
    except KeyError:
        raise InvalidParams(
            f"unknown preset {p.name!r}; choose from {', '.join(PRESETS)}") from None
    unknown = set(p.params).difference(_param_names(builder))
    if unknown:
        raise InvalidParams(
            f"preset {p.name!r} does not take parameter(s) {sorted(unknown)}; "
            f"allowed: {sorted(_param_names(builder))}")
    return builder(**p.params)
