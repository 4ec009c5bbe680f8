"""Concave quadratic maximization over a scaled simplex.

This is the single numerical kernel behind allocation and every pricing
subproblem:

    maximize   c'w - q * (w'Qw + b'w)
    subject to sum(w) = M,  w >= 0,
               w_i = 0 for pinned coordinates,
               w_i <= u_i where per-coordinate caps are given.

The solver is a primal active-set method for convex QP (Nocedal & Wright,
Numerical Optimization, section 16.5).  A working set fixes coordinates at
zero or at their cap; on the remaining face the bordered KKT system is
solved exactly, a ratio test adds the lowest-index blocking bound, and at
the face optimum the lowest-index bound with a wrong-signed multiplier is
released.  The objective is concave (Q PSD, q >= 0), so the KKT point it
stops at is a global maximizer; a projected-gradient certificate on the
result confirms it.

``solve`` runs one problem.  ``solve_pinned_family`` runs the same method
on a family of copies of one problem that differ only in the coordinate
pinned to zero (the n pricing subproblems of a market), warm-started at
the full optimum.  It factors the bordered KKT matrix K of the full
optimum's free face once; pinning a coordinate of that face is one more
border of K, so each row's first step is closed form (the optimum falls
by w_i^2 / (2 P_ii), P the top-left block of K^-1), and every later
working-set change borders K again, solved through the row's small Schur
complement.  The rows advance together and take the steps ``solve``
would take on its own; each is certified by the same test, and a row the
factorization cannot serve (a singular system or a downhill step) is
solved by ``solve`` from the same warm start.  Both run the method on the
problem divided by its gradient scale, so their steps do not depend on
the currency unit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

SYM_TOL = 1e-10   # absolute symmetry tolerance for Q
PSD_TOL = 1e-8    # PSD slack, relative to the largest diagonal entry
# a family of fewer rows is solved one row at a time: on markets of 2 to 6
# offers one or two single solves take less time than one factorization
# and its passes, three or more take longer
FAMILY_MIN_ROWS = 3


class QpValidationError(ValueError):
    """Problem data violates the kernel's contract (dims, PSD, signs)."""


class InfeasibleProblemError(ValueError):
    """The constraint set is empty; the message names the cause."""


class SolverConvergenceError(RuntimeError):
    """More than max_iterations working-set changes, or the result misses
    the KKT tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and limits for ``solve``.

    kkt_tol is relative: a point is accepted once the KKT residual (see
    ``check_kkt``) drops below kkt_tol, where the stationarity part of the
    residual is already scaled by the problem's gradient magnitude (at
    least 1).  The active-set method works on the problem divided by that
    magnitude without the floor and releases a bound while its multiplier
    is wrong by more than kkt_tol, so the path it takes and where it stops
    do not depend on the currency unit.  max_iterations caps the number of
    working-set changes (``QpSolution.iterations``, counted per row in a
    pinned family); a solve that needs more raises SolverConvergenceError.
    lex_eps sizes the lexicographic perturbation that breaks ties
    deterministically toward lower indices, relative to the largest
    linear coefficient; it is keyed to the original coordinate index, so
    the pinned subproblems of one market all share the same tie-break.
    """

    kkt_tol: float = 1e-9
    max_iterations: int = 100_000
    lex_eps: float = 1e-12
    degenerate_tol: float = 1e-9


DEFAULT_CONFIG = SolverConfig()


def _readonly(arr) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QpProblem:
    """Data for one simplex-constrained concave QP.

    Objective: c'w - q * (w'Qw + b'w) with c = ``linear``, Q = ``quadratic``,
    b = ``affine_linear`` (zero when omitted).  ``mass`` is the required
    coordinate sum: 1 for fractional portfolios, the pool size for
    call-count problems.
    """

    linear: np.ndarray
    quadratic: np.ndarray
    risk: float = 0.0
    mass: float = 1.0
    zero_set: frozenset = frozenset()
    caps: Optional[np.ndarray] = None
    affine_linear: Optional[np.ndarray] = None
    # (lambda_min, lambda_max) of ``quadratic`` and the gradient magnitude,
    # set once the data has been validated; ``pinned`` copies inherit both,
    # and a caller that has already decomposed ``quadratic`` (a validated
    # market) may seed the spectrum
    _spectrum: Optional[tuple] = field(default=None, init=False, repr=False,
                                       compare=False)
    _scale: Optional[float] = field(default=None, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "linear", _readonly(self.linear))
        object.__setattr__(self, "quadratic", _readonly(self.quadratic))
        object.__setattr__(self, "zero_set", frozenset(self.zero_set))
        if self.caps is not None:
            object.__setattr__(self, "caps", _readonly(self.caps))
        if self.affine_linear is not None:
            object.__setattr__(self, "affine_linear", _readonly(self.affine_linear))

    @property
    def dimension(self) -> int:
        return self.linear.shape[0]

    def pinned(self, i: int) -> "QpProblem":
        """This problem with coordinate i (alone) pinned to zero.

        The copy shares this problem's arrays, validation, spectrum and
        gradient scale: a family of pinned solves makes one
        eigendecomposition in all.
        """
        _validate_problem(self)
        pinned = copy.copy(self)
        object.__setattr__(pinned, "zero_set", frozenset({int(i)}))
        return pinned


@dataclass(frozen=True)
class QpSolution:
    """A feasible point together with its optimality certificate.

    ``iterations`` counts the active-set method's working-set changes; it
    is 0 when the start was already optimal and on the exact linear and
    single-coordinate paths.  ``problem`` and ``config`` are the solve's
    inputs; ``degenerate`` is computed from them on first read, so a solve
    whose caller only wants the optimum does not pay for it.
    """

    weights: np.ndarray
    objective_value: float
    kkt_residual: float
    iterations: int
    problem: QpProblem = field(repr=False, compare=False)
    config: SolverConfig = field(repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))

    @cached_property
    def degenerate(self) -> bool:
        """True when the maximizer is not unique (see ``_detect_degenerate``)."""
        return _detect_degenerate(self.problem, self.weights, self.config)


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


def objective_value(problem: QpProblem, w) -> float:
    """Evaluate c'w - q * (w'Qw + b'w)."""
    w = np.asarray(w, dtype=float)
    val = float(problem.linear @ w) - problem.risk * float(w @ problem.quadratic @ w)
    if problem.affine_linear is not None:
        val -= problem.risk * float(problem.affine_linear @ w)
    return val


def gradient(problem: QpProblem, w) -> np.ndarray:
    """Gradient of the (maximization) objective at w."""
    w = np.asarray(w, dtype=float)
    g = problem.linear - 2.0 * problem.risk * (problem.quadratic @ w)
    if problem.affine_linear is not None:
        g = g - problem.risk * problem.affine_linear
    return g


def extreme_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the symmetric part, from one eigvalsh."""
    eig = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
    return float(eig[0]), float(eig[-1])


def psd_slack(matrix: np.ndarray) -> float:
    """Allowed negative-eigenvalue slack, relative to the largest diagonal."""
    diag_peak = float(np.max(np.diagonal(matrix), initial=0.0))
    return PSD_TOL * max(diag_peak, 0.0)


def project_to_simplex(point, mass: float = 1.0) -> np.ndarray:
    """Exact Euclidean projection onto {w >= 0, sum(w) = mass}.

    Sort-based: find the largest set of coordinates whose uniformly shifted
    values stay positive.  Already-feasible input is returned unchanged.
    """
    if mass <= 0:
        raise ValueError(f"projection mass must be positive, got {mass}")
    v = np.asarray(point, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("point must be a nonempty vector")
    if np.all(v >= 0.0) and float(v.sum()) == mass:
        return v.copy()
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    counts = np.arange(1, v.size + 1, dtype=float)
    rho = int(np.nonzero(u + (mass - css) / counts > 0.0)[0][-1])
    tau = (css[rho] - mass) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


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
    caps = np.minimum(np.broadcast_to(caps, rows.shape), mass)
    r, n = rows.shape
    breaks = np.concatenate([rows, rows - caps], axis=1)
    # tied breakpoints add nothing to the total, so their order does not matter
    order = np.argsort(-breaks, axis=1)
    breaks = np.take_along_axis(breaks, order, axis=1)
    # coordinates strictly inside their bounds just below each breakpoint
    slope = np.cumsum(np.where(order < n, 1.0, -1.0), axis=1)
    totals = np.zeros((r, 2 * n))
    np.cumsum(slope[:, :-1] * (breaks[:, :-1] - breaks[:, 1:]), axis=1,
              out=totals[:, 1:])
    m = np.argmax(totals >= mass, axis=1)   # 0 where the total stays short
    at = np.arange(r)
    prev = np.maximum(m - 1, 0)   # the first breakpoint opens a coordinate
    tau = np.where(m > 0, breaks[at, prev]
                   - (mass - totals[at, prev]) / slope[at, prev],
                   breaks[:, -1])
    w = np.clip(rows - tau[:, None], 0.0, caps)
    # one correction step on the active segment guards against roundoff
    count = np.count_nonzero((w > 0.0) & (w < caps), axis=1)
    gap = w.sum(axis=1) - mass
    fix = (count > 0) & (gap != 0.0)
    if np.any(fix):
        tau[fix] += gap[fix] / count[fix]
        w[fix] = np.clip(rows[fix] - tau[fix, None], 0.0, caps[fix])
    return w.reshape(np.shape(v))


def _validate_problem(problem: QpProblem) -> tuple[float, float]:
    """Check the data; return (lambda_min, lambda_max) of the quadratic term.

    A pinned copy carries the spectrum and scale of its already checked
    parent and differs from it only in the pins, so only those are checked
    again.  A seeded spectrum skips the eigendecomposition alone.
    """
    c, Q = problem.linear, problem.quadratic
    n = c.shape[0]
    if problem._scale is None:
        if c.ndim != 1 or n == 0:
            raise QpValidationError("linear term must be a nonempty vector")
        if Q.shape != (n, n):
            raise QpValidationError(
                f"quadratic term shape {Q.shape} does not match dimension {n}"
            )
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(Q))):
            raise QpValidationError("problem data must be finite")
        if problem.risk < 0 or not np.isfinite(problem.risk):
            raise QpValidationError(f"risk weight must be >= 0, got {problem.risk}")
        if problem.mass <= 0 or not np.isfinite(problem.mass):
            raise QpValidationError(f"mass must be positive, got {problem.mass}")
        if np.max(np.abs(Q - Q.T), initial=0.0) > SYM_TOL:
            raise QpValidationError("quadratic term must be symmetric")
        if problem._spectrum is None:
            spectrum = extreme_eigenvalues(Q)
            if spectrum[0] < -psd_slack(Q):
                raise QpValidationError(
                    f"quadratic term is not positive semidefinite "
                    f"(min eigenvalue {spectrum[0]:.3e})"
                )
            object.__setattr__(problem, "_spectrum", spectrum)
        if problem.caps is not None:
            u = problem.caps
            if u.shape != (n,):
                raise QpValidationError("caps must match the problem dimension")
            if np.any(u < 0) or not np.all(np.isfinite(u)):
                raise QpValidationError("caps must be finite and nonnegative")
        if problem.affine_linear is not None and problem.affine_linear.shape != (n,):
            raise QpValidationError("affine_linear must match the problem dimension")
        scale = float(np.max(np.abs(c), initial=0.0))
        scale += 2.0 * problem.risk * float(np.max(np.abs(Q), initial=0.0)) * problem.mass
        if problem.affine_linear is not None:
            scale += problem.risk * float(np.max(np.abs(problem.affine_linear),
                                                 initial=0.0))
        object.__setattr__(problem, "_scale", scale)
    if any(i < 0 or i >= n for i in problem.zero_set):
        raise QpValidationError("zero_set index out of range")
    return problem._spectrum


def _gradient_scale(problem: QpProblem) -> float:
    """Bound on the gradient's magnitude over the feasible set, at least 1;
    computed with the spectrum by ``_validate_problem``."""
    return max(1.0, problem._scale)


def _free_mask(problem: QpProblem) -> np.ndarray:
    mask = np.ones(problem.dimension, dtype=bool)
    for i in problem.zero_set:
        mask[i] = False
    return mask


def _mapping_residual(problem: QpProblem, w: np.ndarray, eta: float) -> float:
    """Norm of w - P(w + eta * grad), divided by eta; zero iff KKT."""
    trial = w + eta * gradient(problem, w)
    mask = _free_mask(problem)
    if problem.caps is not None:
        proj = _project_capped(trial[mask], problem.mass, problem.caps[mask])
    else:
        proj = project_to_simplex(trial[mask], problem.mass)
    mapped = np.zeros(problem.dimension)
    mapped[mask] = proj
    return float(np.max(np.abs(w - mapped))) / eta


def _mapping_step(problem: QpProblem, lam_max: float) -> float:
    """The reciprocal of the gradient's Lipschitz constant; ``lam_max`` is
    the largest eigenvalue of the quadratic term."""
    return 1.0 / max(2.0 * problem.risk * max(lam_max, 0.0), 1.0)


def _kkt_terms(problem: QpProblem, w: np.ndarray, tol: float,
               lam_max: float) -> KktReport:
    scale = _gradient_scale(problem)

    mass_error = abs(float(w.sum()) - problem.mass)
    negativity = max(0.0, -float(np.min(w, initial=0.0)))
    pins = sorted(problem.zero_set)
    pin_error = float(np.max(np.abs(w[pins]), initial=0.0)) if pins else 0.0
    if problem.caps is not None:
        cap_excess = max(0.0, float(np.max(w - problem.caps, initial=0.0)))
    else:
        cap_excess = 0.0

    stationarity = _mapping_residual(problem, w, _mapping_step(problem, lam_max))

    residual = max(mass_error, negativity, pin_error, cap_excess,
                   stationarity / scale)
    return KktReport(
        mass_error=mass_error,
        negativity=negativity,
        pin_error=pin_error,
        cap_excess=cap_excess,
        stationarity=stationarity,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def _kkt_residuals(problem: QpProblem, W: np.ndarray, pinned: np.ndarray,
                   lam_max: float) -> np.ndarray:
    """``_kkt_terms``'s residual at each row of W, where row r has the
    coordinates ``pinned[r]`` pinned to zero; one projection call maps
    every row."""
    mass = problem.mass
    eta = _mapping_step(problem, lam_max)
    G = problem.linear - 2.0 * problem.risk * (W @ problem.quadratic.T)
    if problem.affine_linear is not None:
        G -= problem.risk * problem.affine_linear
    upper = np.where(pinned, 0.0, mass if problem.caps is None else problem.caps)
    mapped = _project_capped(W + eta * G, mass, upper)
    terms = [np.abs(W.sum(axis=1) - mass),
             -np.min(W, axis=1, initial=0.0),
             np.max(np.abs(np.where(pinned, W, 0.0)), axis=1),
             np.max(np.abs(W - mapped), axis=1) / (eta * _gradient_scale(problem))]
    if problem.caps is not None:
        terms.append(np.max(W - problem.caps, axis=1, initial=0.0))
    return np.maximum.reduce(terms)


def check_kkt(problem: QpProblem, candidate,
              tol: float = DEFAULT_CONFIG.kkt_tol) -> KktReport:
    """Report feasibility violations and optimality residuals at a point.

    ``report.passed`` is True exactly when the candidate is an approximate
    KKT point at tolerance ``tol`` (hence, by concavity, an approximate
    global maximizer).
    """
    lam_max = _validate_problem(problem)[1]
    w = np.asarray(candidate, dtype=float)
    if w.shape != (problem.dimension,):
        raise QpValidationError(
            f"candidate shape {w.shape} does not match dimension "
            f"{problem.dimension}"
        )
    return _kkt_terms(problem, w, tol, lam_max)


def _lex_perturbation(n: int, scale: float, eps: float) -> np.ndarray:
    # strictly decreasing in the original index: lower index wins exact ties
    return eps * scale * (np.arange(n, 0, -1, dtype=float) / n)


def _greedy_linear(l: np.ndarray, mass: float,
                   caps: Optional[np.ndarray]) -> np.ndarray:
    """Exact maximizer of l'w over the (capped) simplex: fill best first."""
    w = np.zeros_like(l)
    if caps is None:
        w[int(np.argmax(l))] = mass
        return w
    remaining = mass
    for i in np.argsort(-l, kind="stable"):
        take = min(float(caps[i]), remaining)
        w[i] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return w


def _sum_zero_basis(k: int) -> np.ndarray:
    """Orthonormal basis (k x k-1) of the sum-zero directions in R^k.

    The Householder reflector I - v v'/v_0 with v = 1/sqrt(k) + e_0 maps
    the unit ones vector to -e_0, so its other k - 1 columns are
    orthonormal and orthogonal to the ones vector.
    """
    v = np.full(k, 1.0 / np.sqrt(k))
    v[0] += 1.0
    return np.eye(k)[:, 1:] - np.outer(v, v[1:] / v[0])


def _detect_degenerate(problem: QpProblem, w: np.ndarray,
                       config: SolverConfig) -> bool:
    """True when the maximizer is non-unique within tolerance.

    The optimal set is a face of the feasible polytope; the maximizer is
    unique iff the quadratic form has positive curvature on that face's
    sum-zero directions.  The face contains every non-pinned coordinate
    that carries weight or whose bound multiplier vanishes.
    """
    g = gradient(problem, w)
    scale = _gradient_scale(problem)
    tol = config.degenerate_tol * scale
    n = problem.dimension
    act_tol = 1e-8 * problem.mass / max(n, 1)

    mask = _free_mask(problem)
    carrying = mask & (w > act_tol)
    if not np.any(carrying):
        return False
    lam = float(np.mean(g[carrying]))
    in_face = mask & (carrying | (np.abs(g - lam) <= tol))
    if problem.caps is not None:
        at_cap = w >= problem.caps - act_tol
        in_face &= ~(at_cap & (g - lam > tol))
    idx = np.flatnonzero(in_face)
    if idx.size < 2:
        return False
    if problem.risk == 0.0:
        return True
    H = 2.0 * problem.risk * problem.quadratic[np.ix_(idx, idx)]
    basis = _sum_zero_basis(idx.size)
    reduced = basis.T @ H @ basis
    lo = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    return lo <= config.degenerate_tol * max(1.0, float(np.max(np.abs(H), initial=0.0)))


def _shifted_linear(problem: QpProblem, config: SolverConfig) -> np.ndarray:
    """The linear term the active set works with: c plus the lexicographic
    tie-break, minus q b."""
    c_scale = float(np.max(np.abs(problem.linear), initial=0.0))
    l = problem.linear + _lex_perturbation(problem.dimension, c_scale, config.lex_eps)
    if problem.affine_linear is not None:
        l = l - problem.risk * problem.affine_linear
    return l


def solve(problem: QpProblem, config: SolverConfig = DEFAULT_CONFIG,
          warm_start: Optional[np.ndarray] = None) -> QpSolution:
    """Maximize the concave objective over the constrained simplex.

    Deterministic for fixed input; exact ties in the linear term are broken
    toward the lower index.  Raises InfeasibleProblemError when pins or
    caps empty the feasible set, QpValidationError for malformed data, and
    SolverConvergenceError if the active set needs more than
    ``config.max_iterations`` working-set changes or the result misses the
    KKT tolerance.  A warm start (the full optimum, for pinned solves) only
    picks the starting face; it does not change the optimum.
    """
    lam_max = _validate_problem(problem)[1]
    n = problem.dimension
    mass = problem.mass
    free = _free_mask(problem)
    n_free = int(free.sum())
    if n_free == 0:
        raise InfeasibleProblemError(
            "zero_set pins every coordinate; the mass constraint cannot be met"
        )
    caps_free = problem.caps[free] if problem.caps is not None else None
    if caps_free is not None and float(caps_free.sum()) < mass * (1.0 - 1e-12):
        raise InfeasibleProblemError(
            f"caps over free coordinates sum to {float(caps_free.sum()):.6g}, "
            f"below the required mass {mass:.6g}"
        )

    q = problem.risk
    l = _shifted_linear(problem, config)[free]
    Q = problem.quadratic[np.ix_(free, free)]
    quad_active = q > 0.0 and float(np.max(np.abs(Q), initial=0.0)) > 0.0

    if n_free == 1:
        if caps_free is not None and float(caps_free[0]) < mass * (1.0 - 1e-12):
            raise InfeasibleProblemError(
                "the single free coordinate's cap is below the required mass"
            )
        w_red, iterations = np.array([mass]), 0
    elif not quad_active:
        w_red, iterations = _greedy_linear(l, mass, caps_free), 0
    else:
        # at unit gradient scale, whatever the currency unit
        s = problem._scale
        w_red, iterations = _active_set(
            l / s, (2.0 * q / s) * Q, mass, caps_free, config.kkt_tol,
            config.max_iterations,
            warm_start[free] if warm_start is not None else None,
        )

    w = np.zeros(n)
    w[free] = w_red
    report = _kkt_terms(problem, w, config.kkt_tol, lam_max)
    if not report.passed:
        raise SolverConvergenceError(
            f"KKT residual {report.residual:.3e} above tolerance "
            f"{config.kkt_tol:.1e} after {iterations} iterations"
        )
    return QpSolution(
        weights=w,
        objective_value=objective_value(problem, w),
        kkt_residual=report.residual,
        iterations=iterations,
        problem=problem,
        config=config,
    )


def _active_set(l: np.ndarray, H: np.ndarray, mass: float,
                caps: Optional[np.ndarray], tol: float, max_iterations: int,
                warm: Optional[np.ndarray]) -> tuple[np.ndarray, int]:
    """Maximize l'w - w'Hw/2 over {sum(w) = mass, 0 <= w <= caps}.

    Returns the maximizer and the number of working-set changes.  Each
    pass solves the bordered KKT system for the step to the optimum of the
    face left free by the working set; a singular face takes
    ``_lstsq_step``.  ``tol`` is the multiplier error a face optimum may
    keep.
    """
    n = l.shape[0]
    upper = np.full(n, np.inf) if caps is None else caps
    if warm is None:
        w = _greedy_linear(l, mass, caps)
    else:
        w = _warm_start(l, H, mass, upper, warm)
    at_zero = w <= 0.0
    at_cap = (w >= upper) & ~at_zero
    if np.all(at_zero | at_cap):
        at_cap[:] = False   # a vertex: let its positive coordinates move

    for changes in range(max_iterations + 1):
        idx = np.flatnonzero(~(at_zero | at_cap))
        k = idx.size
        g = l - H @ w
        A = np.zeros((k + 1, k + 1))
        A[:k, :k] = H[np.ix_(idx, idx)]
        A[:k, k] = A[k, :k] = 1.0
        rhs = np.append(g[idx], mass - w.sum())
        limit = 1.0
        try:
            sol = np.linalg.solve(A, rhs)
            # on a numerically singular face LU can return a huge downhill step
            usable = bool(np.all(np.isfinite(sol))) and \
                float(g[idx] @ sol[:k]) >= -tol * float(np.abs(sol[:k]).sum())
        except np.linalg.LinAlgError:
            usable = False
        if not usable:
            sol, limit = _lstsq_step(A, rhs, k, tol)
        d = sol[:k]

        if k > 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(d < 0.0, w[idx] / -d, (upper[idx] - w[idx]) / d)
            room[d == 0.0] = np.inf
            j = int(np.argmin(room))
            if room[j] < limit:
                w[idx] += room[j] * d
                i = idx[j]
                if d[j] < 0.0:
                    w[i], at_zero[i] = 0.0, True
                else:
                    w[i], at_cap[i] = upper[i], True
                np.clip(w, 0.0, upper, out=w)
                continue
        w[idx] += d
        np.clip(w, 0.0, upper, out=w)

        g = l - H @ w
        lam = sol[k]
        wrong = (at_zero & (g - lam > tol)) | (at_cap & (lam - g > tol))
        if not np.any(wrong):
            return w, changes
        i = int(np.argmax(wrong))
        at_zero[i] = at_cap[i] = False
    raise SolverConvergenceError(
        f"active set still changing after {max_iterations} working-set changes"
    )


def _warm_start(l: np.ndarray, H: np.ndarray, mass: float, upper: np.ndarray,
                warm: np.ndarray) -> np.ndarray:
    """The active set's start from ``warm`` under the bounds ``upper`` (inf
    where uncapped, 0 where pinned); a stack of bound rows gives one start
    per row.

    The start keeps the warm working set: clip, then spread the missing
    mass over the warm face (coordinates strictly inside their bounds), by
    room to the cap or evenly when uncapped, so the start stays inside it;
    only mass the face cannot take is handed out greedily by gradient.
    """
    W = np.minimum(np.maximum(warm, 0.0), upper)
    W *= mass / np.maximum(W.sum(axis=-1, keepdims=True), mass)
    missing = np.maximum(mass - W.sum(axis=-1, keepdims=True), 0.0)
    face = (W > 0.0) & (W < upper)
    room = np.where(face, upper - W, 0.0)
    spread = room.sum(axis=-1, keepdims=True)
    if np.isinf(spread).any():
        # uncapped: each face coordinate could take the whole mass, equal shares
        room = face * mass
        spread = room.sum(axis=-1, keepdims=True)
    take = np.minimum(missing, spread)
    W += room * (take / np.maximum(spread, np.finfo(float).tiny))
    rows, short = W.reshape(-1, l.size), (missing - take).reshape(-1)
    for r in np.flatnonzero(short > 0.0):
        rows[r] += _greedy_linear(l - H @ rows[r], float(short[r]),
                                  np.broadcast_to(upper, rows.shape)[r] - rows[r])
    return W


def _lstsq_step(A: np.ndarray, rhs: np.ndarray, k: int,
                tol: float) -> tuple[np.ndarray, float]:
    """Step and step limit for a face system that LU cannot use.

    A consistent singular system gives its least-squares solution (limit
    1).  An inconsistent one has no face optimum; its least-squares
    residual r = [d; s] satisfies A r = 0, so d is a zero-curvature ascent
    direction (d'Hd = 0, g'd = |r|^2), followed to the first blocking bound
    (limit inf).
    """
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    resid = rhs - A @ sol
    if float(np.max(np.abs(resid[:k]))) > tol:
        return resid, np.inf
    return sol, 1.0


def solve_pinned_family(problem: QpProblem, pins, warm_start: np.ndarray,
                        config: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Optimum of ``problem.pinned(i)`` for every i in ``pins``, from one
    factorization.

    Entry r is ``solve(problem.pinned(pins[r]), config, warm_start)``'s
    objective value up to rounding, and the family raises the errors those
    solves would.  A family of fewer than ``FAMILY_MIN_ROWS`` rows is
    solved one row at a time by ``solve``.  Otherwise the rows with
    curvature run ``_face_family``: they start, step, block and release as
    ``solve`` would, but every face system is solved from one factorization
    of the warm start's face, and each row that finishes there meets the
    same KKT certificate.  Every other row (no curvature, a singular
    system, a downhill step, the budget spent or the certificate missed) is
    solved by ``solve`` itself, from the same warm start.  The pins of
    ``problem`` itself are ignored, as by ``pinned``.
    """
    lam_max = _validate_problem(problem)[1]
    n, mass, q = problem.dimension, problem.mass, problem.risk
    pins = np.asarray(pins, dtype=int).reshape(-1)
    if pins.size < FAMILY_MIN_ROWS:
        return np.array([solve(problem.pinned(i), config, warm_start).objective_value
                         for i in pins])
    if np.any((pins < 0) | (pins >= n)):
        raise QpValidationError("zero_set index out of range")
    pinned = np.zeros((pins.size, n), dtype=bool)
    pinned[np.arange(pins.size), pins] = True
    caps = np.full(n, np.inf) if problem.caps is None else problem.caps
    upper = np.where(pinned, 0.0, caps)
    if problem.caps is not None:
        room = upper.sum(axis=1)
        short = np.flatnonzero(room < mass * (1.0 - 1e-12))
        if short.size:
            raise InfeasibleProblemError(
                f"caps over free coordinates sum to {float(room[short[0]]):.6g}, "
                f"below the required mass {mass:.6g}"
            )

    W = np.zeros((pins.size, n))
    done = np.zeros(pins.size, dtype=bool)
    # a row whose free face has no curvature is linear: ``solve``'s greedy fill
    nonzero = problem.quadratic != 0.0
    outside = (np.count_nonzero(nonzero) - nonzero[pins].sum(axis=1)
               - nonzero[:, pins].sum(axis=0) + nonzero[pins, pins])
    curved = (q > 0.0) & (outside > 0)
    if np.any(curved):
        s = problem._scale
        W[curved], done[curved] = _face_family(
            _shifted_linear(problem, config) / s, (2.0 * q / s) * problem.quadratic,
            mass, caps, upper[curved], pinned[curved], config.kkt_tol,
            config.max_iterations, np.asarray(warm_start, dtype=float))
        done &= _kkt_residuals(problem, W, pinned, lam_max) <= config.kkt_tol
    for r in np.flatnonzero(~done):
        W[r] = solve(problem.pinned(pins[r]), config, warm_start).weights
    values = W @ problem.linear - q * np.einsum("ij,ij->i", W @ problem.quadratic, W)
    if problem.affine_linear is not None:
        values -= q * (W @ problem.affine_linear)
    return values


def _face_family(l: np.ndarray, H: np.ndarray, mass: float, caps: np.ndarray,
                 upper: np.ndarray, pinned: np.ndarray, tol: float,
                 max_iterations: int, warm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_active_set`` from ``warm`` on a stack of rows, every face system
    solved from one factorization.

    Row r maximizes l'w - w'Hw/2 over {sum(w) = mass, 0 <= w <= upper[r]}
    with the coordinates ``pinned[r]`` never released; it starts, steps,
    blocks and releases as ``_active_set`` would, one working-set change per
    pass.  Let F be the coordinates strictly inside ``caps`` at ``warm``,
    K = [[H_FF, 1], [1', 0]] its bordered KKT matrix, and B the column
    [e_j; 0] for j in F and [H_Fj; 1] for j outside.  A row's face differs
    from F in a few coordinates C (its pin and the bounds it added in F,
    the coordinates it released outside F), so its bordered KKT system is
    K bordered by B_C: one solve of K against B serves every row, and each
    row solves only its Schur complement S = D_CC - B_C' K^-1 B_C, where D
    is H on the coordinates outside F and zero elsewhere.  For a pin i in
    F this is the closed form: the face optimum moves by
    -K^-1 e_i w_i / P_ii, with P the top-left block of K^-1, and the
    optimum falls by w_i^2 / (2 P_ii).  The systems of a pass are padded to
    the largest C and solved in one batch.

    Returns the rows and which of them finished: a singular K or Schur
    complement, a downhill step or more than ``max_iterations`` changes
    leaves a row unfinished.
    """
    R, n = upper.shape
    W = _warm_start(l, H, mass, upper, warm)
    finished = np.zeros(R, dtype=bool)
    base = (warm > 0.0) & (warm < caps)
    F = np.flatnonzero(base)
    k = F.size
    # row j of Bt is B's column j; row n pads the change sets
    Bt = np.zeros((n + 1, k + 1))
    Bt[:n, :k], Bt[:n, k] = H[F].T, 1.0
    K = np.append(Bt[F], [np.append(np.ones(k), 0.0)], axis=0)
    Bt[F] = np.eye(k + 1)[:k]
    try:
        # K^-1 B, and K^-1's border column for each row's mass residual
        Y = np.linalg.solve(K, np.column_stack([Bt[:n].T, np.eye(k + 1)[k]]))
    except np.linalg.LinAlgError:
        return W, finished
    Yt = np.zeros((n + 1, k + 1))
    Yt[:n], border = Y[:, :n].T, Y[:, n]
    outside = np.append(~base, False)
    # D: H on the coordinates outside F, zero elsewhere, with the padding
    Dp = np.zeros((n + 1, n + 1))
    Dp[:n, :n] = H
    Dp[~outside] = Dp[:, ~outside] = 0.0

    at_zero = W <= 0.0
    at_cap = (W >= upper) & ~at_zero
    at_cap[np.all(at_zero | at_cap, axis=1)] = False   # vertices: let them move
    free = ~(at_zero | at_cap)
    # +1 at a zero bound, -1 at a cap, 0 when free or pinned: a bound is
    # released while sign * (g - lambda) > tol
    sign = (at_zero & ~pinned) - at_cap * 1.0
    Z = np.zeros((n, k + 1))
    Z[F] = Yt[F]   # K^-1 [g_F; 0] = g Z
    G = l - W @ H.T
    out, ids = W.copy(), np.arange(R)
    for _ in range(max_iterations + 1):
        if ids.size == 0:
            break
        rows = np.arange(ids.size)
        changed = free != base
        # each row's change set C, padded with n to the largest
        C = np.sort(np.where(changed, np.arange(n), n), axis=1)[
            :, :int(changed.sum(axis=1).max())]
        Bc, Yc = Bt[C], Yt[C]
        S = Dp[C[:, :, None], C[:, None, :]] - Bc @ Yc.transpose(0, 2, 1)
        # an identity block on the padding: S's diagonals, flattened
        S.reshape(ids.size, -1)[:, ::C.shape[1] + 1] += C == n
        U = G @ Z + (mass - W.sum(axis=1))[:, None] * border
        rhs = np.where(outside[C], G[rows[:, None], np.minimum(C, n - 1)], 0.0) \
            - np.einsum("rck,rk->rc", Bc, U)
        try:
            x = np.linalg.solve(S, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular complement fails the batch: drop its row
            x = np.full_like(rhs, np.nan)
            ok = np.linalg.det(S) != 0.0
            x[ok] = np.linalg.solve(S[ok], rhs[ok][..., None])[..., 0]
        sol = U - np.einsum("rck,rc->rk", Yc, x)
        step = np.zeros((ids.size, n + 1))
        step[:, F] = sol[:, :k]
        step[rows[:, None], C] = x
        D = np.where(free, step[:, :n], 0.0)
        # on a numerically singular face the step can be huge and downhill;
        # a step of rounding noise (a face of one coordinate) is not
        usable = np.einsum("ij,ij->i", G, D) >= -tol * (np.abs(D).sum(axis=1) + mass)
        D[~usable] = 0.0

        room = np.divide(np.where(D < 0.0, -W, upper - W), D,
                         out=np.full_like(D, np.inf), where=D != 0.0)
        j = np.argmin(room, axis=1)
        length = room[rows, j]
        blocked = usable & (length < 1.0) & (free.sum(axis=1) > 1)
        W += np.where(blocked, length, 1.0)[:, None] * D
        b, jb = rows[blocked], j[blocked]
        down = D[b, jb] < 0.0
        W[b, jb] = np.where(down, 0.0, upper[b, jb])
        free[b, jb], sign[b, jb] = False, np.where(down, 1.0, -1.0)
        np.clip(W, 0.0, upper, out=W)

        G = l - W @ H.T
        wrong = sign * (G - sol[:, k, None]) > tol
        settled = usable & ~blocked
        release = settled & wrong.any(axis=1)
        r, i = rows[release], np.argmax(wrong[release], axis=1)
        free[r, i], sign[r, i] = True, 0.0
        stop = settled & ~release
        out[ids[stop]], finished[ids[stop]] = W[stop], True
        keep = blocked | release
        if not np.all(keep):
            W, G, free, sign, upper, ids = (
                a[keep] for a in (W, G, free, sign, upper, ids))
    return out, finished
