"""Exact maximum-entropy transition kernels on the grid.

A short step from grid cell x is distributed as

    P(x' | x)  proportional to  exp( S(x') - (alpha/2) dl2(x', x) - beta dx.A(x) )

where S is the entropy field evaluated at the destination, dl2 is the squared
metric step length sum_a (x'_a - x_a)^2 / sigma_a^2 (minimum image on periodic
boxes), and the optional linear term couples the displacement to a vector
potential sampled at the source.  The multiplier alpha fixes the expected
squared step; large alpha means short steps.  build_exact_kernel(S, source,
alpha, A, beta) takes alpha directly, and solve_alpha finds the alpha that
hits a target squared step (the paper's step-length constraint).  The
Gaussian large-alpha limit has mean displacement
(sigma_a^2/alpha)(dS/dx_a - beta A_a) and per-axis variance sigma_a^2/alpha,
which is what the walker and density solvers use.

One bisection, `_bisect`, finds both roots of a decreasing moment here:
solve_alpha's log(alpha), to ALPHA_REL_TOL of the target, and the exponent
of the certificate's exponential tilts (the same maximum-entropy form), to
a bracket 1e-14 wide.  The module imports only numpy.

Everything here works with dense kernel rows: one source cell, probabilities
over every destination cell.  That is deliberate; exact rows are the oracle
the cheap Gaussian moments are audited against, so they are kept transparent
and are capped at dim <= 2 where dense rows stay affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaSolveError, KernelNotLocalizedError
from .fields import PERIODIC, ConfigSpace, PhysicalParams, ScalarField, VectorField
from .fokker_planck import drift_velocity

# Destinations whose exponent sits this many log-units below the row maximum
# carry relative weight < 3e-20 and are dropped.
EXPONENT_CUTOFF = 45.0

# Half-width (in natural-log units) of the alpha bisection window around the
# continuum guess alpha = dim / target.
ALPHA_BRACKET_HALF_WIDTH = 10.0

# The envelope must fall by at least this many log-units between the source
# and the farthest reachable displacement on every axis; otherwise the row
# wraps onto itself and the kernel is meaningless.
LOCALIZATION_MIN_DECAY = 3.0

# solve_alpha stops once the row's squared-step moment is this close to the
# target, relative to it.
ALPHA_REL_TOL = 1e-8

# The optimality certificate perturbs the row by exp(CERTIFICATE_AMPLITUDE g),
# g standard normal, and projects it back onto the constraints in at most
# CERTIFICATE_MAX_ITERATIONS rounds, each moment to CONSTRAINT_REL_TOL.
CERTIFICATE_AMPLITUDE = 0.1
CERTIFICATE_MAX_ITERATIONS = 50
CONSTRAINT_REL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One dense kernel row: distribution over destinations for one source."""

    space: ConfigSpace
    source: tuple
    probs: np.ndarray  # grid-shaped, sums to 1
    alpha: float
    beta: float
    vector_potential: VectorField | None = None


def _row_geometry(space: ConfigSpace, source: tuple, A: VectorField | None):
    """Displacement components destination - source (minimum image on a
    periodic box), metric step length, and EM linear term."""
    disp = space.min_image(np.stack([x - x[source] for x in space.meshes], axis=-1))
    comps = np.moveaxis(disp, -1, 0)
    dl2 = sum(d**2 / s for d, s in zip(comps, space.sigma_sq))
    if A is None:
        return comps, dl2, np.zeros(space.shape)
    return comps, dl2, sum(d * A.components[a][source] for a, d in enumerate(comps))


def _row_probs(entropy_values, dl2, em_lin, alpha, beta):
    logits = entropy_values - 0.5 * alpha * dl2 - beta * em_lin
    peak = logits.max()
    w = np.where(logits >= peak - EXPONENT_CUTOFF, np.exp(logits - peak), 0.0)
    return w / w.sum()


def _normalize_source(space, source):
    src = tuple(int(i) for i in np.atleast_1d(np.asarray(source, dtype=int)))
    if len(src) != space.dim:
        raise ValueError(f"source needs {space.dim} indices, got {len(src)}")
    if any(i < 0 or i >= n for i, n in zip(src, space.points)):
        raise ValueError(f"source {src} outside the grid")
    return src


def build_exact_kernel(
    S: ScalarField,
    source,
    alpha: float,
    A: VectorField | None = None,
    beta: float = 0.0,
) -> TransitionKernel:
    """Build one dense kernel row for the multiplier alpha.

    A nonzero beta couples the step to the vector potential A, which must
    then be given; with beta = 0, A is ignored.  To fix the expected squared
    step instead of alpha, pass solve_alpha(S, source, target_step_sq).
    """
    space = S.space
    if space.dim > 2:
        raise ValueError("exact kernel rows are limited to dim <= 2")
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    src = _normalize_source(space, source)
    if beta != 0.0 and A is None:
        raise ValueError("EM constraint given but no vector potential")
    A = A if beta != 0.0 else None

    # Localization: the Gaussian envelope alone must decay by a few e-folds
    # across the largest representable displacement on every axis.
    for a in range(space.dim):
        reach = 0.5 * space.extents[a] if space.boundary == PERIODIC else space.extents[a]
        decay = 0.5 * alpha * reach**2 / space.sigma_sq[a]
        if decay < LOCALIZATION_MIN_DECAY:
            raise KernelNotLocalizedError(
                f"kernel not localized: alpha={alpha:g} lets the envelope span axis {a}; "
                f"need alpha >= {2.0 * LOCALIZATION_MIN_DECAY * space.sigma_sq[a] / reach**2:g}"
            )

    _, dl2, em_lin = _row_geometry(space, src, A)
    probs = _row_probs(S.values, dl2, em_lin, alpha, beta)
    return TransitionKernel(
        space=space, source=src, probs=probs, alpha=alpha, beta=beta, vector_potential=A
    )


def kernel_mean_displacement(kernel: TransitionKernel) -> np.ndarray:
    comps, _, _ = _row_geometry(kernel.space, kernel.source, None)
    return np.array([float((kernel.probs * c).sum()) for c in comps])


def kernel_step_sq(kernel: TransitionKernel) -> float:
    _, dl2, _ = _row_geometry(kernel.space, kernel.source, None)
    return float((kernel.probs * dl2).sum())


def _bisect(gap, lo, hi, ftol=0.0, xtol=0.0):
    """Zero of a decreasing gap, gap(lo) >= 0 >= gap(hi): the midpoint once
    |gap| <= ftol there or [lo, hi] is at most xtol wide; 200 halvings at most."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        g = gap(mid)
        if abs(g) <= ftol:
            return mid
        lo, hi = (mid, hi) if g > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _step_sq_at_alpha(entropy_values, dl2, alpha):
    probs = _row_probs(entropy_values, dl2, np.zeros_like(dl2), alpha, 0.0)
    return float((probs * dl2).sum())


def solve_alpha(S: ScalarField, source, target_step_sq: float) -> float:
    """Find alpha so the exact row's expected squared step hits the target.

    The moment is strictly decreasing in alpha, so bisection on log(alpha)
    around the continuum guess alpha = dim/target is safe whenever the target
    is bracketed.  Unreachable targets raise with the achievable range.
    """
    space = S.space
    src = _normalize_source(space, source)
    _, dl2, _ = _row_geometry(space, src, None)

    positive = dl2[dl2 > 0]
    one_cell_floor = float(positive.min()) / 10.0 if positive.size else 0.0
    if target_step_sq < one_cell_floor:
        raise AlphaSolveError(
            f"target_step_sq={target_step_sq:g} is below one-cell resolution "
            f"({one_cell_floor:g}); refine the grid or ask for a larger step"
        )

    center = math.log(space.dim / target_step_sq)
    lo = center - ALPHA_BRACKET_HALF_WIDTH
    hi = center + ALPHA_BRACKET_HALF_WIDTH
    m_lo = _step_sq_at_alpha(S.values, dl2, math.exp(lo))  # largest reachable
    m_hi = _step_sq_at_alpha(S.values, dl2, math.exp(hi))  # smallest reachable
    if not (m_hi <= target_step_sq <= m_lo):
        raise AlphaSolveError(
            f"target_step_sq={target_step_sq:g} not bracketed; achievable range "
            f"on this grid is [{m_hi:g}, {m_lo:g}]",
            achievable=(m_hi, m_lo),
        )

    def gap(log_alpha):
        return _step_sq_at_alpha(S.values, dl2, math.exp(log_alpha)) - target_step_sq

    return math.exp(_bisect(gap, lo, hi, ftol=ALPHA_REL_TOL * target_step_sq))


def gaussian_step_moments(
    S: ScalarField,
    params: PhysicalParams,
    dt: float,
    A: VectorField | None = None,
):
    """Short-step limit: mean displacement field and per-axis variance.

    Returns (drift, covariance) where drift is a VectorField of expected
    displacements (eta/m_a)(dS/dx_a - beta A_a) dt and covariance is the
    per-axis array (eta/m_a) dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    drift = VectorField(S.space, drift_velocity(S, params, A).components * dt)
    cov = params.eta_over_m * dt
    return drift, cov


# ---------------------------------------------------------------------------
# optimality certificate


@dataclass(frozen=True)
class GibbsCertificate:
    trials: int
    skipped: int
    max_gap: float
    tolerance: float

    @property
    def passed(self):
        return self.max_gap <= self.tolerance


def _relative_entropy_objective(masses, entropy_values, log_cell_measure):
    """The variational objective: -sum p log(p / measure) + sum p S."""
    p = masses[masses > 0]
    s = entropy_values[masses > 0]
    return float((p * (s - np.log(p) + log_cell_measure)).sum())


def _tilt_to_moment(masses, quantity, target):
    """Multiply masses by exp(-delta * quantity) so the mean hits target.

    Only cells already carrying mass participate: a tilt cannot resurrect a
    zero cell, and keeping dead cells in the exponent lets the overflow
    guard normalize against a cell whose weight is exactly zero.
    """
    live = masses > 0.0
    p = masses[live]
    q = quantity[live] - target  # centering keeps the exponents small
    if q.min() >= 0.0 or q.max() <= 0.0:
        return None  # target outside the reachable span

    def moment_gap(delta):
        expo = -delta * q
        expo -= expo.max()  # overflow guard; drops out of the ratio
        w = p * np.exp(expo)
        return float((w * q).sum() / w.sum())

    lo, hi = -1.0, 1.0
    while not moment_gap(lo) >= 0.0 >= moment_gap(hi):  # the gap falls with delta
        lo *= 2.0
        hi *= 2.0
        if hi > 1e12:
            return None
    delta = _bisect(moment_gap, lo, hi, xtol=1e-14)
    expo = -delta * q
    expo -= expo.max()
    w = p * np.exp(expo)
    out = np.zeros_like(masses)
    out[live] = w / w.sum()
    return out


def gibbs_optimality_certificate(
    S: ScalarField,
    kernel: TransitionKernel,
    trials: int = 1000,
    rng_seed: int = 0,
    tolerance: float = 1e-9,
) -> GibbsCertificate:
    """Certify that the kernel maximizes the constrained relative entropy.

    Each trial multiplies the kernel row by exp(CERTIFICATE_AMPLITUDE * g)
    with iid standard-normal g, then alternates renormalization and
    exponential tilts until the squared-step moment (and the EM moment, if
    present) match the kernel's own.  Any admissible competitor must score
    at or below the kernel; the certificate reports the largest observed
    objective gap.  Trials whose projection fails to converge are skipped
    and counted.
    """
    space = kernel.space
    _, dl2, em_lin = _row_geometry(space, kernel.source, kernel.vector_potential)
    # each constraint as (per-cell quantity, the kernel's own mean of it); the
    # EM one only with an A, which build_exact_kernel drops when beta = 0
    quantities = [dl2] if kernel.vector_potential is None else [dl2, em_lin]
    constraints = [(f.ravel(), float((kernel.probs * f).sum())) for f in quantities]

    # gamma^(1/2) = prod 1/sigma_a; constant on this diagonal metric, so it
    # only shifts the objective by log of the invariant cell measure.
    gamma_sqrt = float(np.prod([1.0 / math.sqrt(s) for s in space.sigma_sq]))
    log_cell_measure = math.log(space.cell_volume * gamma_sqrt)

    base = _relative_entropy_objective(kernel.probs, S.values, log_cell_measure)

    rng = np.random.default_rng(rng_seed)
    max_gap = -math.inf
    skipped = 0
    flat_S = S.values.ravel()
    flat_p = kernel.probs.ravel()

    for _ in range(trials):
        g = rng.standard_normal(flat_p.shape)
        q = flat_p * np.exp(CERTIFICATE_AMPLITUDE * g)
        ok = False
        for _ in range(CERTIFICATE_MAX_ITERATIONS):
            q = q / q.sum()
            if all(abs(float((q * f).sum()) - mean) <= CONSTRAINT_REL_TOL * max(abs(mean), 1e-30)
                   for f, mean in constraints):
                ok = True
                break
            for f, mean in constraints:
                q = _tilt_to_moment(q, f, mean)
                if q is None:
                    break
            if q is None:
                break
        if not ok:
            skipped += 1
            continue
        gap = _relative_entropy_objective(q, flat_S, log_cell_measure) - base
        if gap > max_gap:
            max_gap = gap

    if max_gap == -math.inf:
        max_gap = math.nan
    return GibbsCertificate(trials=trials, skipped=skipped, max_gap=max_gap, tolerance=tolerance)
