"""Concave quadratic maximization over a scaled simplex.

This is the single numerical kernel behind allocation and every pricing
subproblem:

    maximize   c'w - q * w'Qw
    subject to sum(w) = M,  w >= 0,
               w_i = 0 for pinned coordinates,
               w_i <= u_i where per-coordinate caps are given.

The solver is a primal active-set method for convex QP (Nocedal & Wright,
Numerical Optimization, section 16.5).  A solve starts one projected-
gradient step from the greedy vertex (the maximizer of the linear term),
which on a market where most offers carry weight lands near the optimum's
face and on a sparse one stays next to the vertex.  A working set fixes
coordinates at zero or at their cap; on the remaining face the bordered
KKT system is solved with a proximal term that keeps it regular on a
singular face, a ratio test adds the lowest-index blocking bound, and at
the face optimum every bound with a wrong-signed multiplier is released
at once (a primal-dual active-set update, Hintermuller, Ito & Kunisch,
SIAM J. Optim. 13, 2002), so one face solve can free many coordinates.
On a flat face a step also takes the face solution of an index ramp, so
ties fill the lower index first.  The objective is concave (Q PSD,
q >= 0), so the KKT point it stops at is a global maximizer; a
projected-gradient certificate on the result confirms it.

``solve`` runs one problem.  ``solve_pinned_family`` runs the same method
on a family of copies of one problem that differ only in the coordinate
pinned to zero (the n pricing subproblems of a market), started at the
full optimum.  It factors the bordered KKT matrix K of the full
optimum's free face once; pinning a coordinate of that face is one more
border of K, so each row's first step is closed form (the optimum falls
by w_i^2 / (2 P_ii), P the top-left block of K^-1), and every later
working-set change borders K again, solved through the row's small Schur
complement; K and each complement carry the same proximal term, so they
are regular on singular faces too.  A family row releases one bound per
pass, the lowest-index one, and breaks no ties.  A row that the family
does not finish is solved by ``solve``.  Both run the method on the
problem divided by its gradient scale, so their steps do not depend on
the currency unit.

The helpers work on a vector or on a stack of rows, and a single solve is
their one-row case: one check of the pins and bounds (``_pin_mask``), one
projection (``_project``), one objective and gradient, and one KKT
certificate (``_kkt_terms``) serve ``solve``, ``check_kkt`` and every row
of ``solve_pinned_family``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, reduce
from typing import Optional

import numpy as np

SYM_TOL = 1e-10   # symmetry tolerance for Q, relative to max|Q|
PSD_TOL = 1e-8    # PSD slack, relative to the largest diagonal entry
# size of ``_active_set``'s push toward lower indices on a flat face (one
# whose optimum is not unique), relative to the largest linear coefficient
LEX_EPS = 1e-12
# multiplier tolerance (relative to the gradient scale) and curvature
# tolerance (relative to the face's largest curvature entry) of the
# degeneracy test, the latter also ``_active_set``'s bound for a flat face;
# neither has an absolute floor, so neither depends on the currency unit
DEGENERATE_TOL = 1e-9
# a family of fewer rows is solved one row at a time: on markets of 2 to 6
# offers one or two single solves take less time than one factorization
# and its passes, three or more take longer
FAMILY_MIN_ROWS = 3
# KKT tolerance, relative: a point is accepted once its KKT residual (see
# ``check_kkt``) is at most KKT_TOL, the stationarity part already divided
# by the problem's gradient scale.  The active-set method works on the
# problem divided by that scale: its path does not depend on the currency unit
KKT_TOL = 1e-9
# the active-set method releases a bound while its scaled multiplier is
# wrong by more than RELEASE_TOL: on a flat face, stopping with one wrong by
# e loses up to e times the gradient scale per unit of weight moved, and at
# KKT_TOL that reached 1e-4 of max|c| times the mass on call-count markets
RELEASE_TOL = 1e-3 * KKT_TOL
# face solves after the first that a solve may make (``QpSolution.iterations``,
# each of which may change several bounds; counted per row in a pinned
# family, one bound per pass) before it raises SolverConvergenceError
MAX_ITERATIONS = 100_000
# proximal term of ``_active_set``'s and ``_face_family``'s face systems,
# relative to the larger of the Lipschitz bound and 1 / mass at unit
# gradient scale (the floor keeps it from vanishing when the quadratic's
# share of the scale is tiny): it keeps every face system regular
PROX_TOL = 1e-14


class QpValidationError(ValueError):
    """Problem data violates the kernel's contract (dims, PSD, signs)."""


class InfeasibleProblemError(ValueError):
    """The constraint set is empty; the message names the cause."""


class SolverConvergenceError(RuntimeError):
    """More than MAX_ITERATIONS face solves after the first, or the result
    misses KKT_TOL."""


def _readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QpProblem:
    """Data for one simplex-constrained concave QP.

    Objective: c'w - q * w'Qw with c = ``linear`` and Q = ``quadratic``.
    ``mass`` is the required coordinate sum: 1 for fractional portfolios,
    the pool size for call-count problems.

    A problem built by hand holds read-only copies of its arrays and is
    checked once, when it is built, by a market's checks of the same data:
    malformed data raises one QpValidationError there, "code: message; ...".
    One built from a validated market or call-count instance
    (``market_problem``, ``qmap_problem``, through ``shared_problem``)
    shares the instance's private read-only arrays without copying them and
    is not checked again: the instance's checks cover the data's, and it
    hands over the bound on Q's largest eigenvalue and the max|Q| they
    found; a call-count problem computes its linear term, c - q b.  The
    pins and the caps' room are checked on every solve.
    """

    linear: np.ndarray
    quadratic: np.ndarray
    risk: float = 0.0
    mass: float = 1.0
    zero_set: frozenset = frozenset()
    caps: Optional[np.ndarray] = None
    # set when the data is checked (or by ``shared_problem``) and shared by
    # ``pinned`` copies: Q's largest-eigenvalue bound and the gradient scale
    _lam_bound: Optional[float] = field(default=None, init=False, repr=False,
                                        compare=False)
    _scale: Optional[float] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "linear", _readonly(self.linear))
        object.__setattr__(self, "quadratic", _readonly(self.quadratic))
        object.__setattr__(self, "zero_set", frozenset(self.zero_set))
        if self.caps is not None:
            object.__setattr__(self, "caps", _readonly(self.caps))
        c = self.linear
        if c.ndim != 1 or c.size == 0:
            raise QpValidationError(
                "dimension_mismatch: linear term must be a nonempty vector")
        n = c.shape[0]
        problems, scan = quadratic_problems(self.quadratic, n, "quadratic term", "Q",
                                            "non_finite_data", "asymmetric_matrix")
        if not np.all(np.isfinite(c)):
            problems.append(("non_finite_data", "linear term entries must be finite"))
        problems += risk_problems(self.risk)
        if self.mass <= 0 or not np.isfinite(self.mass):
            problems.append(("invalid_mass", f"mass must be positive, got {self.mass}"))
        problems += cap_problems(self.caps, n)
        if problems:
            raise QpValidationError("; ".join(map(": ".join, problems)))
        _seed(self, *scan)

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def pinned(self, i: int) -> "QpProblem":
        """This problem with coordinate i (alone) pinned to zero.

        A plain copy: it shares this problem's arrays, eigenvalue bound and
        gradient scale, so a family of pinned solves scans and factors the
        quadratic term once in all.  Its pin is checked when it is solved.
        """
        pinned = copy.copy(self)
        object.__setattr__(pinned, "zero_set", frozenset({int(i)}))
        return pinned


@dataclass(frozen=True)
class QpSolution:
    """A feasible point together with its optimality certificate; an
    allocation (``allocation.Allocation``) is one with the pool's call
    counts added.

    ``iterations`` counts the active-set method's face solves after its
    first, from its start one projected-gradient step from the greedy
    vertex.  Each added a blocking bound, released every bound with a
    wrong-signed multiplier (several in one solve), bound again the
    released ones its step would send straight back, or solved the same
    face again to shed the proximal term's error.  It is 0 when the start's
    face already holds the optimum and on the exact linear path, which
    also serves a single free coordinate.  ``problem`` is the solve's input;
    ``degenerate`` is computed from it on first read, so a solve whose
    caller only wants the optimum does not pay for it.  A point built
    without a solve reads NaN, 0, None and False.
    """

    weights: np.ndarray
    objective_value: float
    kkt_residual: float = math.nan
    iterations: int = 0
    problem: Optional[QpProblem] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))

    @cached_property
    def degenerate(self) -> bool:
        """True when the maximizer is not unique (see ``_detect_degenerate``)."""
        return self.problem is not None and _detect_degenerate(self.problem,
                                                               self.weights)


@dataclass(frozen=True)
class KktReport:
    """Feasibility and optimality diagnostics for a candidate point.

    ``stationarity`` is the projected-gradient mapping norm, which is zero
    exactly at KKT points and needs no active-set classification.
    ``residual`` is the maximum of the feasibility errors and the
    gradient-scaled stationarity; the candidate is an approximate KKT point
    iff ``residual <= tolerance``.
    """

    mass_error: float
    negativity: float
    pin_error: float
    cap_excess: float
    stationarity: float
    residual: float
    tolerance: float
    passed: bool


def objective_value(problem: QpProblem, w):
    """Evaluate c'w - q * w'Qw at w, or at each row of a stack."""
    w = np.asarray(w, dtype=float)
    # row by row dot products: a vector's is the same dot as w @ Q @ w
    quad = np.matmul((w @ problem.quadratic)[..., None, :], w[..., None])[..., 0, 0]
    val = w @ problem.linear - problem.risk * quad
    return float(val) if val.ndim == 0 else val


def gradient(problem: QpProblem, w) -> np.ndarray:
    """Gradient of the (maximization) objective at w, or at each row of a
    stack."""
    w = np.asarray(w, dtype=float)
    return problem.linear - 2.0 * problem.risk * (w @ problem.quadratic.T)


def psd_slack(matrix: np.ndarray) -> float:
    """Allowed negative-eigenvalue slack, relative to the largest diagonal."""
    diag_peak = float(np.max(np.diagonal(matrix), initial=0.0))
    return PSD_TOL * max(diag_peak, 0.0)


def project_to_simplex(point, mass: float = 1.0) -> np.ndarray:
    """Exact Euclidean projection onto {w >= 0, sum(w) = mass}.

    Already-feasible input is returned unchanged; anything else goes
    through ``_project``.  A non-finite entry or mass raises ValueError.
    """
    if not 0 < mass < math.inf:
        raise ValueError(f"projection mass must be positive and finite, got {mass}")
    v = np.asarray(point, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("point must be a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("point entries must be finite")
    if np.all(v >= 0.0) and float(v.sum()) == mass:
        return v.copy()
    return _project(v, mass)


def _project(v: np.ndarray, mass: float, caps: Optional[np.ndarray] = None,
             pinned: Optional[np.ndarray] = None) -> np.ndarray:
    """Euclidean projection of v, or of each row of a stack, onto
    {sum(w) = mass, 0 <= w <= caps, w = 0 where ``pinned``}.

    Capped rows go to ``_project_capped`` with an upper bound of 0 at
    their pins.  Uncapped rows are projected sort-based, their pins set to
    -inf: the shift that spreads a row's mass over its top j coordinates,
    (sum of the top j - mass) / j, rises while the next coordinate stays
    above it and falls after, so the largest such shift is the
    projection's.  A pin's shifts are -inf, so it gets 0.
    """
    if caps is not None:
        return _project_capped(v, mass, caps if pinned is None
                               else np.where(pinned, 0.0, caps))
    rows = np.atleast_2d(v if pinned is None else np.where(pinned, -np.inf, v))
    u = np.sort(rows, axis=1)[:, ::-1]
    tau = ((np.cumsum(u, axis=1) - mass) / np.arange(1, u.shape[1] + 1)).max(axis=1)
    return np.maximum(rows - tau[:, None], 0.0).reshape(np.shape(v))


def _project_capped(v: np.ndarray, mass: float, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of v onto {0 <= w <= caps, sum(w) = mass}.

    w_i(tau) = clip(v_i - tau, 0, u_i) makes a row's total a piecewise-
    linear nonincreasing function of tau, with a breakpoint where each
    coordinate starts to carry weight (v_i) and where it reaches its cap
    (v_i - u_i).  Sort each row's breakpoints in descending order, sweep
    the total across them with a cumulative sum, and interpolate on the
    segment where it reaches ``mass``: O(n log n) time and O(n) memory per
    row.  Caps above the mass cannot bind, so they are lowered to it, which
    keeps every breakpoint finite.  Rows whose caps sum to at most the mass
    go to their caps.  ``v`` is one vector or a stack of rows; ``caps``
    broadcasts against it.
    """
    rows = np.atleast_2d(v)
    r, n = rows.shape
    caps = np.minimum(caps, np.full((r, n), mass))
    breaks = np.concatenate([rows, rows - caps], axis=1)
    # tied breakpoints add nothing to the total, so their order does not matter
    order = np.argsort(-breaks, axis=1)
    at = np.arange(r)
    breaks = breaks.take(order + (2 * n) * at[:, None])
    # coordinates strictly inside their bounds just below each breakpoint
    slope = np.cumsum(np.where(order < n, 1.0, -1.0), axis=1)
    totals = np.zeros((r, 2 * n))
    np.cumsum(slope[:, :-1] * (breaks[:, :-1] - breaks[:, 1:]), axis=1,
              out=totals[:, 1:])
    m = np.argmax(totals >= mass, axis=1)   # 0 where the total stays short
    prev = np.maximum(m - 1, 0)   # the first breakpoint opens a coordinate
    tau = np.where(m > 0, breaks[at, prev]
                   - (mass - totals[at, prev]) / slope[at, prev],
                   breaks[:, -1])
    w = np.minimum(np.maximum(rows - tau[:, None], 0.0), caps)
    # one correction step on the active segment guards against roundoff
    count = np.count_nonzero((w > 0.0) & (w < caps), axis=1)
    gap = w.sum(axis=1) - mass
    fix = (count > 0) & (gap != 0.0)
    if np.any(fix):
        tau[fix] += gap[fix] / count[fix]
        w[fix] = np.minimum(np.maximum(rows[fix] - tau[fix, None], 0.0), caps[fix])
    return w.reshape(np.shape(v))


def quadratic_scan(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """(max|M|, max|M - M'|, PSD floor, lambda_max bound) of a square matrix.

    The one pass over a quadratic term, made by ``quadratic_problems``,
    which tests ``max|M - M'| <= SYM_TOL * max|M|`` and
    ``floor >= -psd_slack(M)`` on the result.  Floor and bound are those of
    the symmetric part S (M itself when it is exactly symmetric).

    The PSD test is one Cholesky factorization of S + psd_slack(M) I, built
    in the scan's one n x n buffer: when it exists, no eigenvalue of S is
    below -psd_slack(M), and that is the floor.  Only when it does not is
    the floor S's smallest eigenvalue, from ``eigvalsh``, so a rejected
    matrix is judged and reported by its exact minimum eigenvalue.  The
    bound is Gershgorin's, max_i sum_j |S_ij|, which no eigenvalue of S
    exceeds, taken from M's rows: |S_ij| <= |M_ij| + gap / 2.  When an
    entry is not finite the result is NaN throughout and nothing else is
    computed.
    """
    n = matrix.shape[0]
    if matrix.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    buf = np.abs(matrix)
    peak = float(buf.max())
    if not math.isfinite(peak):
        return math.nan, math.nan, math.nan, math.nan
    rows = float(buf.sum(axis=1).max())
    np.subtract(matrix, matrix.T, out=buf)
    gap = float(np.abs(buf, out=buf).max())
    bound = rows + 0.5 * n * gap
    if gap == 0.0:
        np.copyto(buf, matrix)
    else:
        np.multiply(np.add(matrix, matrix.T, out=buf), 0.5, out=buf)
    slack = psd_slack(matrix)
    buf.flat[::n + 1] += slack
    try:
        np.linalg.cholesky(buf)
        floor = -slack
    except np.linalg.LinAlgError:
        floor = float(np.linalg.eigvalsh(
            matrix if gap == 0.0 else 0.5 * (matrix + matrix.T))[0])
    return peak, gap, floor, bound


def quadratic_problems(matrix: np.ndarray, n: int, noun: str, symbol: str,
                       non_finite_code: str, asymmetric_code: str) -> tuple:
    """The named problems of a quadratic term over n offers, and its scan
    (max|M|, the bound on M's largest eigenvalue; None when the shape or an
    entry is bad): the one check of Sigma, A and Q, by one ``quadratic_scan``.
    """
    if matrix.shape != (n, n):
        return [("dimension_mismatch",
                 f"{noun} shape {matrix.shape} does not match {n} offers")], None
    peak, gap, floor, bound = quadratic_scan(matrix)
    if math.isnan(peak):
        return [(non_finite_code, f"{noun} entries must be finite")], None
    problems = []
    if gap > SYM_TOL * peak:
        i, j = np.unravel_index(int(np.argmax(np.abs(matrix - matrix.T))), (n, n))
        problems.append((asymmetric_code,
                         f"{symbol}[{i}][{j}]={float(matrix[i, j])!r} vs "
                         f"{symbol}[{j}][{i}]={float(matrix[j, i])!r} (gap {gap:.3e} "
                         f"> {SYM_TOL:.0e} * max|{symbol}| {peak:.3e})"))
    if floor < -psd_slack(matrix):
        problems.append(("not_positive_semidefinite", f"{noun} has min eigenvalue "
                         f"{floor:.6g}; input is rejected, not repaired"))
    return problems, (peak, bound)


def risk_problems(q: float) -> list:
    """The risk parameter's problem, if any: q must be finite and >= 0."""
    return [] if np.isfinite(q) and q >= 0 else [
        ("negative_risk_parameter", f"risk parameter q must be >= 0, got {q}")]


def cap_problems(caps: Optional[np.ndarray], n: int) -> list:
    """The caps' problem, if any: one finite, nonnegative cap per offer."""
    if caps is not None and caps.shape != (n,):
        return [("caps_dimension_mismatch",
                 f"caps shape {caps.shape} does not match {n} offers")]
    if caps is not None and (np.any(caps < 0) or not np.all(np.isfinite(caps))):
        return [("invalid_caps", "caps must be finite and nonnegative")]
    return []


def _seed(problem: QpProblem, peak: float, bound: float) -> None:
    """Store on ``problem`` the bound on Q's largest eigenvalue and the
    gradient scale computed from max|Q| (``peak``).

    The scale bounds the gradient's magnitude over the feasible set and,
    times the mass, the objective's: data whose bound overflows raises
    QpValidationError.  It is 1 for all-zero data, whose gradient is zero.
    """
    scale = float(np.max(np.abs(problem.linear), initial=0.0)) \
        + 2.0 * problem.risk * peak * problem.mass
    if not math.isfinite(scale * problem.mass):
        raise QpValidationError("problem data too large: the objective's scale overflows")
    object.__setattr__(problem, "_lam_bound", bound)
    object.__setattr__(problem, "_scale", scale or 1.0)


def shared_problem(scan: tuple, **data) -> QpProblem:
    """A problem over a validated instance's arrays, checked with it.

    ``data`` are ``QpProblem``'s arguments, whose arrays must be private
    and read-only, like the instance's own: they are shared, not copied.
    ``scan`` is the (max|Q|, lambda_max bound) that the instance's
    ``quadratic_problems`` found; the gradient scale is computed from it
    exactly as the constructor computes it, which is bypassed: the caller
    vouches that the instance's checks cover every check of the
    constructor.
    """
    problem = object.__new__(QpProblem)
    for f in fields(QpProblem):
        object.__setattr__(problem, f.name, data.get(f.name, f.default))
    _seed(problem, *scan)
    return problem


def _pin_mask(problem: QpProblem, pins) -> Optional[np.ndarray]:
    """Mask of the pinned coordinates, or None when nothing is pinned.

    ``pins`` holds each row's distinct pinned coordinates along its last
    axis: a vector gives one mask, an (R, k) array a stack of R.  This is
    the one check of pins and bounds: it raises QpValidationError for a pin
    out of range, and InfeasibleProblemError when a row pins every
    coordinate or the caps of its free coordinates cannot hold the mass.
    """
    n, mass, caps = problem.dimension, problem.mass, problem.caps
    pins = np.asarray(pins, dtype=int)
    pinned = None
    if pins.size:
        if pins.min() < 0 or pins.max() >= n:
            raise QpValidationError("zero_set index out of range")
        if pins.shape[-1] >= n:
            raise InfeasibleProblemError(
                "zero_set pins every coordinate; the mass constraint cannot be met"
            )
        pinned = np.zeros(pins.shape[:-1] + (n,), dtype=bool)
        # a vector's pins index the mask, each row of a stack its own row
        pinned[(np.arange(len(pins))[:, None],) * (pins.ndim - 1) + (pins,)] = True
    if caps is not None:
        room = caps.sum() - caps[pins].sum(axis=-1)
        if (room < mass * (1.0 - 1e-12)).any():
            raise InfeasibleProblemError(
                f"caps over free coordinates sum to {float(room.min()):.6g}, "
                f"below the required mass {mass:.6g}"
            )
    return pinned


def _kkt_terms(problem: QpProblem, W: np.ndarray,
               pinned: Optional[np.ndarray]) -> tuple:
    """The KKT certificate of each row of W, a vector or a stack of rows.

    ``pinned`` masks each row's coordinates pinned to zero (None when
    nothing is pinned).  Returns the mass error, negativity, pin error, cap
    excess and scaled stationarity of each row: floats for a vector, arrays
    for a stack.  The stationarity is the projected-gradient mapping norm
    max|W - P(W + eta grad)| / eta, zero exactly at KKT points, divided by
    the gradient scale; eta, the reciprocal of a bound on the gradient's
    Lipschitz constant but at most mass / gradient scale, shrinks as the
    currency unit grows, so the residual does not depend on it.  A row's
    residual is the largest of its terms; a non-finite weight makes the
    first term non-finite, so a vector's residual is not finite either.
    """
    mass, caps = problem.mass, problem.caps
    eta = 1.0 / max(2.0 * problem.risk * problem._lam_bound, problem._scale / mass)
    mapped = _project(W + eta * gradient(problem, W), mass, caps, pinned)
    return (np.abs(W.sum(axis=-1) - mass),
            (-W).max(axis=-1, initial=0.0),
            0.0 if pinned is None else np.abs(W).max(axis=-1, where=pinned, initial=0.0),
            0.0 if caps is None else (W - caps).max(axis=-1, initial=0.0),
            np.abs(W - mapped).max(axis=-1) / eta / problem._scale)


def check_kkt(problem: QpProblem, candidate) -> KktReport:
    """Report feasibility violations and optimality residuals at a point.

    ``report.passed`` is True exactly when the candidate is an approximate
    KKT point at tolerance ``KKT_TOL`` (hence, by concavity, an approximate
    global maximizer).  Raises the errors ``solve`` raises for the pins and
    caps, and QpValidationError for a candidate of the wrong shape.
    """
    w = np.asarray(candidate, dtype=float)
    if w.shape != (problem.dimension,):
        raise QpValidationError(
            f"candidate shape {w.shape} does not match dimension "
            f"{problem.dimension}"
        )
    pinned = _pin_mask(problem, sorted(problem.zero_set))
    terms = [float(t) for t in _kkt_terms(problem, w, pinned)]
    residual = max(terms)
    mass_error, negativity, pin_error, cap_excess, stationarity = terms
    return KktReport(
        mass_error=mass_error,
        negativity=negativity,
        pin_error=pin_error,
        cap_excess=cap_excess,
        stationarity=stationarity * problem._scale,
        residual=residual,
        tolerance=KKT_TOL,
        passed=residual <= KKT_TOL,
    )


def _greedy_linear(l: np.ndarray, mass: float | np.ndarray,
                   caps: Optional[np.ndarray]) -> np.ndarray:
    """Exact maximizer of l'w over the (capped) simplex, filled best first:
    in the stable order of -l each coordinate takes min(max(mass - the caps
    before it, 0), its cap).  Capped, l may be a stack and mass a column."""
    if caps is None:
        w = np.zeros_like(l)
        w[int(np.argmax(l))] = mass
        return w
    order = np.argsort(-l, axis=-1, kind="stable")
    u = np.take_along_axis(np.broadcast_to(caps, l.shape), order, axis=-1)
    before = np.zeros_like(u)   # the caps filled before each coordinate
    np.cumsum(u[..., :-1], axis=-1, out=before[..., 1:])
    w = np.empty_like(u)
    np.put_along_axis(w, order, np.minimum(np.maximum(mass - before, 0.0), u),
                      axis=-1)
    return w


def _detect_degenerate(problem: QpProblem, w: np.ndarray) -> bool:
    """True when the maximizer is non-unique within tolerance.

    The optimal set is a face of the feasible polytope; the maximizer is
    unique iff the quadratic form H has positive curvature on that face's
    sum-zero directions.  The face contains every non-pinned coordinate
    that carries weight or whose bound multiplier vanishes.  The smallest
    such curvature is the smallest eigenvalue of P H P + max|H| 11', P =
    I - 11'/k: the ones direction, 0 under P, is lifted to k max|H|, which
    is at least H's largest eigenvalue.  The test does not depend on H's
    scale, so H is Q's face block over its largest entry, without the risk
    weight, and neither overflows nor underflows; risk 0 or a zero block is
    flat.
    """
    g = gradient(problem, w) / problem._scale
    n = problem.dimension
    act_tol = 1e-8 * problem.mass / max(n, 1)

    mask = np.ones(n, dtype=bool)
    mask[list(problem.zero_set)] = False
    carrying = mask & (w > act_tol)
    lam = float(np.mean(g[carrying]))
    in_face = mask & (carrying | (np.abs(g - lam) <= DEGENERATE_TOL))
    if problem.caps is not None:
        at_cap = w >= problem.caps - act_tol
        in_face &= ~(at_cap & (g - lam > DEGENERATE_TOL))
    idx = np.flatnonzero(in_face)
    if idx.size < 2:
        return False
    H = problem.quadratic[np.ix_(idx, idx)]
    top = float(np.max(np.abs(H)))
    if problem.risk == 0.0 or top == 0.0:
        return True
    H = H / top
    H = H + H.T
    peak, col = float(np.max(np.abs(H))), H.mean(axis=0)
    centered = H - col - col[:, None] + (col.mean() + peak)
    return float(np.linalg.eigvalsh(centered)[0]) <= DEGENERATE_TOL * peak


def solve(problem: QpProblem) -> QpSolution:
    """Maximize the concave objective over the constrained simplex.

    Deterministic for fixed input; where the maximizer is not unique, the
    lower index is filled first (``_greedy_linear``, ``_active_set``).
    Raises InfeasibleProblemError when pins or caps empty the feasible set,
    QpValidationError for a pin out of range (and, when the problem was
    built, for malformed data), and SolverConvergenceError if the active
    set needs more than ``MAX_ITERATIONS`` face solves after its first or
    the result misses ``KKT_TOL``.
    """
    pinned = _pin_mask(problem, sorted(problem.zero_set))
    mass, q = problem.mass, problem.risk
    l, Q, caps = problem.linear / problem._scale, problem.quadratic, problem.caps
    if pinned is not None:
        free = ~pinned
        l, Q = l[free], Q[np.ix_(free, free)]
        caps = caps[free] if caps is not None else None

    if l.size == 1 or q == 0.0 or not Q.any():
        w, iterations = _greedy_linear(l, mass, caps), 0
    else:
        # at unit gradient scale, whatever the currency unit
        s = problem._scale
        w, iterations = _active_set(l, (2.0 * q / s) * Q, mass, caps,
                                    2.0 * q * problem._lam_bound / s)
    if pinned is not None:
        w_free, w = w, np.zeros(problem.dimension)
        w[free] = w_free

    residual = float(max(_kkt_terms(problem, w, pinned)))
    if not residual <= KKT_TOL:
        raise SolverConvergenceError(
            f"KKT residual {residual:.3e} above tolerance "
            f"{KKT_TOL:.1e} after {iterations} iterations"
        )
    return QpSolution(
        weights=w,
        objective_value=objective_value(problem, w),
        kkt_residual=residual,
        iterations=iterations,
        problem=problem,
    )


def _active_set(l: np.ndarray, H: np.ndarray, mass: float,
                caps: Optional[np.ndarray],
                lipschitz: float) -> tuple[np.ndarray, int]:
    """Maximize l'w - w'Hw/2 over {sum(w) = mass, 0 <= w <= caps}.

    Returns the maximizer and the number of face solves after the first.
    It starts from the greedy vertex moved by one projected-gradient step
    of length 1 / ``lipschitz`` (an upper bound on H's largest eigenvalue),
    shortened so that no entry moves by more than the mass.  The working
    set is ``_face_family``'s ``sign`` array: +1 at a zero bound, -1 at a
    cap, 0 on the face.  Each pass solves the bordered KKT system of the
    face with a proximal term delta I added to H (Rockafellar, SIAM J.
    Control Optim. 14, 1976), so the system is regular on every face,
    singular or not, and takes one step: the full step, or the step to the
    ratio test's nearest bound (lowest index first), which joins the
    working set.  A second right side, minus the index, breaks ties: where
    H's curvature along its solution x, -x'index / x'x - delta, is at most
    ``DEGENERATE_TOL`` times the face's largest entry (plus delta), the
    face is flat and the step adds ``LEX_EPS`` max|l| / n times x, the face
    solution of the ramp ``LEX_EPS`` max|l| (n, ..., 1) / n.  A full step
    leaves the face's stationarity off by delta times the step, so the
    face is solved again while that exceeds ``KKT_TOL``.  A face
    optimum may keep a multiplier error of ``RELEASE_TOL``: every bound
    with sign * (g - lambda) above it is released.  The next step must move
    each released coordinate off its bound: the ones it would send straight
    back are bound again and the face solved once more, and when none is
    left, only the lowest-index release is kept.  The gradient is
    recomputed once per step.
    """
    n = l.shape[0]
    upper = np.full(n, np.inf) if caps is None else caps
    delta = PROX_TOL * max(lipschitz, 1.0 / mass)
    push = LEX_EPS * float(np.abs(l).max()) / n   # the tie-break's size
    w = _greedy_linear(l, mass, caps)
    g = l - H @ w
    w += g / max(lipschitz, float(np.abs(g).max()) / mass)
    w = _project(w, mass, caps)
    sign = np.where(w <= 0.0, 1.0, -1.0 * (w >= upper))
    if sign.all():
        sign[sign < 0.0] = 0.0   # a vertex: let its caps move
    g = l - H @ w
    # the bounds released at the last face optimum, lowest index first, and
    # their signs before the release
    back = old = None

    for changes in range(MAX_ITERATIONS + 1):
        idx = np.flatnonzero(sign == 0)
        k = idx.size
        A = np.ones((k + 1, k + 1))
        A[:k, :k], A[k, k] = H.take(idx, 0).take(idx, 1), 0.0
        A.flat[:k * (k + 2):k + 2] += delta   # on the face block's diagonal
        rhs = np.zeros((k + 1, 2))
        rhs[:k, 0], rhs[k, 0], rhs[:k, 1] = g[idx], mass - w.sum(), -idx
        sol, x = np.linalg.solve(A, rhs).T
        d, x, peak = sol[:k], x[:k], A.diagonal()[:k].max()
        if x @ rhs[:k, 1] <= (DEGENERATE_TOL * peak + 2.0 * delta) * (x @ x):
            d += push * x   # a flat face: push its weight toward lower indices
        if back is not None:
            # a step that sends bounds just released straight back
            live = sign[back] == 0
            moves = np.zeros_like(live)
            moves[live] = old[live] * d[np.searchsorted(idx, back[live])] > 0.0
            if not np.array_equal(moves, live) and (live.sum() > 1 or not live[0]):
                keep = moves if moves.any() else np.arange(back.size) == 0
                sign[back] = np.where(keep, 0.0, old)
                continue
        back = None

        t = 1.0
        if k > 1:
            room = np.divide(np.where(d < 0.0, -w[idx], upper[idx] - w[idx]), d,
                             out=np.full(k, np.inf), where=d != 0.0)
            j = int(np.argmin(room))
            t = min(room[j], 1.0)
        w[idx] += t * d
        if t < 1.0:
            i = idx[j]
            w[i], sign[i] = (0.0, 1.0) if d[j] < 0.0 else (upper[i], -1.0)
        np.clip(w, 0.0, upper, out=w)
        g = l - H @ w
        if t < 1.0 or delta * float(np.abs(d).max()) > KKT_TOL:
            continue   # a bound added, or the proximal term's error: solve again
        wrong = sign * (g - sol[k]) > RELEASE_TOL
        if not np.any(wrong):
            return w, changes
        back = np.flatnonzero(wrong)
        old = sign[back]
        sign[back] = 0.0
    raise SolverConvergenceError(
        f"active set still changing after {MAX_ITERATIONS} face solves"
    )


def _warm_start(l: np.ndarray, H: np.ndarray, mass: float, upper: np.ndarray,
                warm: np.ndarray) -> np.ndarray:
    """One start per row of the bounds ``upper`` (inf where uncapped, 0
    where pinned), from the point ``warm``.

    The start keeps the warm working set: clip, then spread the missing
    mass over the warm face (coordinates strictly inside their bounds) by
    room to the bound, lowered to the mass, so the start stays inside it;
    only mass the face cannot take is handed out greedily by gradient, to
    every such row in one stacked fill.
    """
    W = np.minimum(np.maximum(warm, 0.0), upper)
    W *= mass / np.maximum(W.sum(axis=1, keepdims=True), mass)
    missing = np.maximum(mass - W.sum(axis=1, keepdims=True), 0.0)
    face = (W > 0.0) & (W < upper)
    room = np.where(face, np.minimum(upper, mass) - W, 0.0)
    spread = room.sum(axis=1, keepdims=True)
    take = np.minimum(missing, spread)
    W += room * (take / np.maximum(spread, np.finfo(float).tiny))
    over = np.flatnonzero(missing[:, 0] > take[:, 0])
    if over.size:
        W[over] += _greedy_linear(l - W[over] @ H.T, (missing - take)[over],
                                  upper[over] - W[over])
    return W


def solve_pinned_family(problem: QpProblem, pins,
                        warm_start: np.ndarray) -> np.ndarray:
    """Optimum of ``problem.pinned(i)`` for every i in ``pins``, from one
    factorization.

    Entry r is ``solve(problem.pinned(pins[r]))``'s objective value up to
    rounding, and the family raises the errors those solves would.  A
    family of at least ``FAMILY_MIN_ROWS`` rows runs ``_face_family`` from
    ``warm_start`` (the full optimum), each pin as an upper bound of 0:
    every face system is solved from one factorization of the warm start's
    face, and each row that finishes there meets the same KKT certificate
    as a single solve.  Every other row (a smaller family, a row that
    ``_face_family`` leaves unfinished or that misses the certificate) is
    solved by ``solve``.  The pins of ``problem`` itself are ignored, as by
    ``pinned``.
    """
    pins = np.asarray(pins, dtype=int).reshape(-1)
    n, mass, q = problem.dimension, problem.mass, problem.risk
    W = np.zeros((pins.size, n))
    done = np.zeros(pins.size, dtype=bool)
    if pins.size >= FAMILY_MIN_ROWS:
        pinned = _pin_mask(problem, pins[:, None])
        caps = np.full(n, np.inf) if problem.caps is None else problem.caps
        curvature = 2.0 * q / problem._scale   # at unit gradient scale
        W, done = _face_family(
            problem.linear / problem._scale, curvature * problem.quadratic, mass,
            caps, np.where(pinned, 0.0, caps), curvature * problem._lam_bound,
            np.asarray(warm_start, dtype=float))
        done &= reduce(np.maximum, _kkt_terms(problem, W, pinned)) <= KKT_TOL
    for r in np.flatnonzero(~done):
        W[r] = solve(problem.pinned(pins[r])).weights
    return objective_value(problem, W)


def _face_family(l: np.ndarray, H: np.ndarray, mass: float, caps: np.ndarray,
                 upper: np.ndarray, lipschitz: float,
                 warm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_active_set`` on a stack of rows started from ``warm``, every face
    system solved from one factorization.

    Row r maximizes l'w - w'Hw/2 over {sum(w) = mass, 0 <= w <= upper[r]}.
    Its pins are its zero upper bounds: a coordinate there cannot move, so
    its bound is never released.  It starts at ``_warm_start``'s point, then
    steps and blocks as ``_active_set`` does, with no tie-break, releasing
    only the lowest-index wrong-signed bound (one change per pass), and
    spreads the mass a step lost over its face.  Let F
    be the coordinates strictly inside ``caps`` at ``warm`` (at a vertex,
    its largest coordinate instead), K = [[H_FF + delta I, 1], [1', 0]] its
    bordered KKT matrix with ``_active_set``'s proximal term, and B the
    column [e_j; 0] for j in F and [H_Fj; 1] for j outside.  A row's face
    differs from F in a few coordinates C (its pin and the bounds it added
    in F, the coordinates it released outside F), so its bordered KKT system
    is K bordered by B_C: one solve of K against B serves every row, and
    each row solves only its Schur complement S = D_CC - B_C' K^-1 B_C,
    where D is H + delta I on the coordinates outside F and zero
    elsewhere.  For a pin i in F this is the closed form: the face optimum
    moves by -K^-1 e_i w_i / P_ii, with P the top-left block of K^-1, and
    the optimum falls by w_i^2 / (2 P_ii).  The systems of a pass are padded
    to the largest C and solved in one batch.

    Returns the rows and which of them finished: a step that does not move
    the bound a row just released (kept as an index and its old sign) off
    it, or more than ``MAX_ITERATIONS`` changes, leaves a row unfinished.
    """
    R, n = upper.shape
    delta = PROX_TOL * max(lipschitz, 1.0 / mass)
    W = _warm_start(l, H, mass, upper, warm)
    base = (warm > 0.0) & (warm < caps)
    if not base.any():
        # a vertex with every weighted coordinate at its cap: K would be
        # the singular [0], and one coordinate at its cap makes it regular
        base[int(np.argmax(warm))] = True
    F = np.flatnonzero(base)
    k = F.size
    # row j of Bt is B's column j; row n pads the change sets
    Bt = np.zeros((n + 1, k + 1))
    Bt[:n, :k], Bt[:n, k] = H[F].T, 1.0
    K = np.append(Bt[F], [np.append(np.ones(k), 0.0)], axis=0)
    K.flat[:k * (k + 2):k + 2] += delta   # on the face block's diagonal
    Bt[F] = np.eye(k + 1)[:k]
    # K^-1 B, and K^-1's border column for each row's mass residual
    Y = np.linalg.solve(K, np.column_stack([Bt[:n].T, np.eye(k + 1)[k]]))
    Yt = np.zeros((n + 1, k + 1))
    Yt[:n], border = Y[:, :n].T, Y[:, n]
    outside = np.append(~base, False)

    # +1 at a zero bound, -1 at a cap, 0 when free or pinned, as in
    # ``_active_set``
    sign = np.where(W <= 0.0, 1.0, -1.0 * (W >= upper))
    sign[(sign < 0.0) & sign.all(axis=1, keepdims=True)] = 0.0   # vertices
    free = sign == 0
    sign[upper == 0.0] = 0.0
    # the bound each row just released and its sign there (0: none)
    back, back_sign = np.zeros(R, dtype=int), np.zeros(R)
    G = l - W @ H.T
    out, ids, finished = W.copy(), np.arange(R), np.zeros(R, dtype=bool)
    for _ in range(MAX_ITERATIONS + 1):
        if ids.size == 0:
            break
        rows = np.arange(ids.size)
        changed = free != base
        # each row's change set C, padded with n to the largest
        C = np.sort(np.where(changed, np.arange(n), n), axis=1)[
            :, :int(changed.sum(axis=1).max())]
        Bc, Yc = Bt[C], Yt[C]
        # D_CC: H on the coordinates outside F, zero elsewhere and on the padding
        out_c, Cn = outside[C], np.minimum(C, n - 1)
        S = np.where(out_c[:, :, None] & out_c[:, None, :],
                     H[Cn[:, :, None], Cn[:, None, :]], 0.0) \
            - Bc @ Yc.transpose(0, 2, 1)
        # S's diagonals: 1 on the padding, delta on C outside F (C in F is fixed)
        S.reshape(ids.size, -1)[:, ::C.shape[1] + 1] += (C == n) + delta * out_c
        # K^-1 [g_F; 0] = g_F Yt[F], plus the mass residual's border column
        U = G[:, F] @ Yt[F] + (mass - W.sum(axis=1))[:, None] * border
        rhs = np.where(out_c, G[rows[:, None], Cn], 0.0) \
            - np.einsum("rck,rk->rc", Bc, U)
        x = np.linalg.solve(S, rhs[..., None])[..., 0]
        sol = U - np.einsum("rck,rc->rk", Yc, x)
        # sol on F, x on C outside F, 0 on C in F (held at its bound)
        step = np.zeros((ids.size, n + 1))
        step[:, F] = sol[:, :k]
        step[rows[:, None], C] = np.where(out_c, x, 0.0)
        # a step that puts the bound just released straight back ends its row
        usable = (back_sign * step[rows, back] > 0.0) | (back_sign == 0.0)
        D = np.where(usable[:, None], step[:, :n], 0.0)

        room = np.divide(np.where(D < 0.0, -W, upper - W), D,
                         out=np.full_like(D, np.inf), where=D != 0.0)
        j = np.argmin(room, axis=1)
        length = room[rows, j]
        blocked = (length < 1.0) & (free.sum(axis=1) > 1)
        W += np.where(blocked, length, 1.0)[:, None] * D
        b, jb = rows[blocked], j[blocked]
        down = D[b, jb] < 0.0
        W[b, jb] = np.where(down, 0.0, upper[b, jb])
        free[b, jb], sign[b, jb] = False, np.where(down, 1.0, -1.0)
        # a step keeps the mass only as well as K is conditioned
        W += free * ((mass - W.sum(axis=1)) / free.sum(axis=1))[:, None]
        np.clip(W, 0.0, upper, out=W)

        G = l - W @ H.T
        wrong = sign * (G - sol[:, k, None]) > RELEASE_TOL
        settled = usable & ~blocked
        release = settled & wrong.any(axis=1)
        r, i = rows[release], np.argmax(wrong[release], axis=1)
        back_sign[:] = 0.0
        back[r], back_sign[r] = i, sign[r, i]
        free[r, i], sign[r, i] = True, 0.0
        stop = settled & ~release
        out[ids[stop]], finished[ids[stop]] = W[stop], True
        keep = blocked | release
        if not np.all(keep):
            W, G, free, sign, back, back_sign, upper, ids = (
                a[keep] for a in (W, G, free, sign, back, back_sign, upper, ids))
    return out, finished
