"""Every threshold that decides a reported fact or raises an error.

Each name is stated once, with the decision it makes and the scale it is
measured against.  ``AffineGenerator.scale = ||A||_1``, with no floor, is
the one scale of a channel's generator: a test for "zero up to roundoff" on
A, its velocity or its eigenvalues multiplies by it, so rescaling every rate
of a channel (which only rescales time) leaves each flag and label unchanged.
Two sets of numerical constants are part of their algorithms and stay with
them: the degree of the Taylor polynomial behind every e^{At}
(``channels._TAYLOR_DEGREE``, whose remainder for |t| ||A||_1 <= 1 is below
a double's roundoff; longer times are squared), and the stopping rule and
the ITP constants of the scan's one root search (``dynamics._event_root``),
which finds the blow-up time, the pure surface and, in the one
``dynamics.radius_root`` call of each gate stage, the stage's radius, each
point read from the bracket start.  The verify criteria keep their own
pinned tolerances.
"""

# --- States on the PSD cone (pauli, dynamics) ---------------------------

# Absolute trace: states with a smaller tau are rejected (the apex is excluded).
APEX_TAU = 1e-9
# Relative to max(1, tau): |r| may exceed tau by this much and still be physical.
CONE_TOL = 1e-9
# Relative to tau: a trajectory halts with ConeViolation once |r|/tau > 1 + this.
CONE_RATIO_TOL = 1e-4
# Absolute on tau - |r|: a stop_on_surface run whose initial state is this
# close to the pure surface stops at once.
SURFACE_TOL = 1e-12
# Relative to t_end: sample times this close to t_end count as t_end.
TIME_WINDOW = 1e-12
# Absolute on an eigenvalue of rho = X/tau: roundoff below 0 counts as 0 in
# the entropy; anything more negative gives NaN.
EIG_ROUNDOFF = 1e-12
# Absolute on |tau - |r||: the default of is_pure.
PURE_TOL = 1e-9
# Relative to max(1, max |m_ij|): the default Hermiticity check of
# HermitianPauliVector.from_matrix and decompose.
HERMITIAN_TOL = 1e-12

# --- The generator (channels, analysis) ---------------------------------

# Relative to AffineGenerator.scale: Omega = 0 (trace_preserving), Omega
# proportional to I (pseudo_linear) and a zero velocity at the maximally
# mixed state (unital).  Absolute for dualize's g = 1, g being a pure number.
ROUNDOFF = 1e-12
# Relative to the largest singular value of A - lambda I: its null space.
# Absolute on the unit null vectors: whether they have tau != 0.
RANK_TOL = 1e-10
# A defective A splits a k-fold eigenvalue, and tilts its eigenvectors, by
# about eps**(1/k).  Relative to AffineGenerator.scale: within this a split
# eigenvalue pair is real.  Absolute on unit null spaces: within this a null
# space is one already found.
SPLIT_TOL = 1e-5
# Relative to AffineGenerator.scale: Jacobian real parts within this of 0 are
# marginal, neither stable nor unstable (a gate plan's center must be unstable).
MARGINAL_TOL = 1e-6
# Absolute on a unit fixed-line direction: its first component above this is
# made positive, so the reported sign does not follow roundoff.
LINE_SIGN_TOL = 1e-8
# Absolute speed: slowdown_exponent rejects a direction along which every
# probed speed is below this (the direction is exactly fixed).
SPEED_ZERO = 1e-14

# --- Reports (cli) ------------------------------------------------------

# Relative to max(1, tr/2), tr the Choi trace (2 for a trace-preserving map):
# the Choi matrix is completely positive when its least eigenvalue is at
# least -CP_TOL times that.
CP_TOL = 1e-10
# Absolute trace deviation: the stability report's deviation counts as
# monotone decaying when no grid step grows it by more than this, and the
# plane as attracting when the final deviation exceeds the initial one by no
# more than this.
MONOTONE_TOL = 1e-12
