"""Exception types shared across the package."""

from __future__ import annotations


class BlochampError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(BlochampError, ValueError):
    """A model parameter or parameter combination is outside its validity range."""


class IntegrationError(BlochampError):
    """Base class for integration failures, carrying the state at failure."""

    def __init__(self, message: str, t: float | None = None,
                 tau: float | None = None, r=None):
        super().__init__(message)
        self.t = t
        self.tau = tau
        self.r = None if r is None else tuple(float(v) for v in r)


class ConeViolation(IntegrationError):
    """A trajectory left the positive-semidefinite cone beyond tolerance.

    Signals either a non-positive map or an integrator failure.
    """


class ApexReached(IntegrationError):
    """The trace collapsed below the apex cutoff during integration."""


class StepFailure(IntegrationError):
    """A run needs more steps than ``max_steps`` allows, or its state overflows.

    On an overflow, ``t``, ``tau`` and ``r`` are the state at the last grid
    time before its size passes 2^511, where |r|^2 no longer fits in a
    double.
    """


class BlowUp(IntegrationError):
    """The state diverges at a finite time: its trace normalization vanishes.

    ``t`` is that time t*; ``tau`` and ``r`` are the state at the last time
    of the blow-up scan before t*.
    """


class TargetUnreachable(BlochampError):
    """A gate plan cannot reach the requested target within its time budget."""
