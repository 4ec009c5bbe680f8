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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

SYM_TOL = 1e-10   # absolute symmetry tolerance for Q
PSD_TOL = 1e-8    # PSD slack, relative to the largest diagonal entry


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
    least 1).  The active-set method releases a bound while its multiplier
    is wrong by more than kkt_tol times that magnitude without the floor,
    so when it stops does not depend on the currency unit.  max_iterations
    caps the number of working-set changes (``QpSolution.iterations``); a
    solve that needs more raises SolverConvergenceError.
    lex_eps sizes the lexicographic perturbation that breaks ties
    deterministically toward lower indices; it is keyed to the original
    coordinate index, so the pinned subproblems of one market all share
    the same tie-break.
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
    # (lambda_min, lambda_max) of ``quadratic``, set once the data has been
    # validated; ``pinned`` copies inherit it, so they skip both
    _spectrum: Optional[tuple] = field(default=None, init=False, repr=False,
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

        The copy keeps the quadratic term, so it shares this problem's
        validation and spectrum: a family of pinned solves makes one
        eigendecomposition in all.
        """
        _validate_problem(self)
        copy = replace(self, zero_set=frozenset({int(i)}))
        object.__setattr__(copy, "_spectrum", self._spectrum)
        return copy


@dataclass(frozen=True)
class QpSolution:
    """A feasible point together with its optimality certificate.

    ``iterations`` counts the active-set method's working-set changes; it
    is 0 when the start was already optimal and on the exact linear and
    single-coordinate paths.
    """

    weights: np.ndarray
    objective_value: float
    kkt_residual: float
    iterations: int
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))


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


def min_eigenvalue(matrix: np.ndarray) -> float:
    sym = 0.5 * (matrix + matrix.T)
    return float(np.linalg.eigvalsh(sym)[0])


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
    """Euclidean projection onto {0 <= w <= caps, sum(w) = mass}.

    w_i(tau) = clip(v_i - tau, 0, u_i) makes the total a piecewise-linear
    nonincreasing function of tau; scan its breakpoints for the segment
    where the total crosses ``mass`` and interpolate exactly.
    """
    breaks = np.unique(np.concatenate([v, v - caps]))
    totals = np.clip(v[None, :] - breaks[:, None], 0.0, caps[None, :]).sum(axis=1)
    idx = int(np.searchsorted(-totals, -mass, side="left"))
    if idx == 0:
        tau = breaks[0]
    else:
        idx = min(idx, breaks.size - 1)
        s_lo, s_hi = totals[idx - 1], totals[idx]
        if s_lo == s_hi:
            tau = breaks[idx - 1]
        else:
            tau = breaks[idx - 1] + (s_lo - mass) * (breaks[idx] - breaks[idx - 1]) / (s_lo - s_hi)
    w = np.clip(v - tau, 0.0, caps)
    # one correction step on the active segment guards against roundoff
    slope = float(np.count_nonzero((w > 0.0) & (w < caps)))
    gap = float(w.sum()) - mass
    if slope > 0.0 and gap != 0.0:
        w = np.clip(v - (tau + gap / slope), 0.0, caps)
    return w


def _validate_problem(problem: QpProblem) -> tuple[float, float]:
    """Check the data; return (lambda_min, lambda_max) of the quadratic term.

    A pinned copy carries the spectrum of its already checked parent and
    differs from it only in the pins, so only those are checked again.
    """
    c, Q = problem.linear, problem.quadratic
    n = c.shape[0]
    if problem._spectrum is None:
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
        eig = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        if eig[0] < -psd_slack(Q):
            raise QpValidationError(
                f"quadratic term is not positive semidefinite "
                f"(min eigenvalue {eig[0]:.3e})"
            )
        if problem.caps is not None:
            u = problem.caps
            if u.shape != (n,):
                raise QpValidationError("caps must match the problem dimension")
            if np.any(u < 0) or not np.all(np.isfinite(u)):
                raise QpValidationError("caps must be finite and nonnegative")
        if problem.affine_linear is not None and problem.affine_linear.shape != (n,):
            raise QpValidationError("affine_linear must match the problem dimension")
        object.__setattr__(problem, "_spectrum", (float(eig[0]), float(eig[-1])))
    if any(i < 0 or i >= n for i in problem.zero_set):
        raise QpValidationError("zero_set index out of range")
    return problem._spectrum


def _gradient_scale(problem: QpProblem, floor: float = 1.0) -> float:
    q, Q, c = problem.risk, problem.quadratic, problem.linear
    scale = float(np.max(np.abs(c), initial=0.0))
    scale += 2.0 * q * float(np.max(np.abs(Q), initial=0.0)) * problem.mass
    if problem.affine_linear is not None:
        scale += q * float(np.max(np.abs(problem.affine_linear), initial=0.0))
    return max(floor, scale)


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


def _kkt_terms(problem: QpProblem, w: np.ndarray, tol: float,
               lam_max: float) -> KktReport:
    """``lam_max`` is the largest eigenvalue of the quadratic term; the
    mapping step is the reciprocal of the gradient's Lipschitz constant."""
    scale = _gradient_scale(problem)

    mass_error = abs(float(w.sum()) - problem.mass)
    negativity = max(0.0, -float(np.min(w, initial=0.0)))
    pins = sorted(problem.zero_set)
    pin_error = float(np.max(np.abs(w[pins]), initial=0.0)) if pins else 0.0
    if problem.caps is not None:
        cap_excess = max(0.0, float(np.max(w - problem.caps, initial=0.0)))
    else:
        cap_excess = 0.0

    eta = 1.0 / max(2.0 * problem.risk * max(lam_max, 0.0), 1.0)
    stationarity = _mapping_residual(problem, w, eta)

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
    ones = np.ones((idx.size, 1))
    basis = np.linalg.qr(ones, mode="complete")[0][:, 1:]
    reduced = basis.T @ H @ basis
    lo = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    return lo <= config.degenerate_tol * max(1.0, float(np.max(np.abs(H), initial=0.0)))


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
    c_scale = max(1.0, float(np.max(np.abs(problem.linear), initial=0.0)))
    l_full = problem.linear + _lex_perturbation(n, c_scale, config.lex_eps)
    if problem.affine_linear is not None:
        l_full = l_full - q * problem.affine_linear
    l = l_full[free]
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
        w_red, iterations = _active_set(
            l, 2.0 * q * Q, mass, caps_free,
            config.kkt_tol * _gradient_scale(problem, floor=0.0),
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
        degenerate=_detect_degenerate(problem, w, config),
    )


def _active_set(l: np.ndarray, H: np.ndarray, mass: float,
                caps: Optional[np.ndarray], tol: float, max_iterations: int,
                warm: Optional[np.ndarray]) -> tuple[np.ndarray, int]:
    """Maximize l'w - w'Hw/2 over {sum(w) = mass, 0 <= w <= caps}.

    Returns the maximizer and the number of working-set changes.  Each
    pass solves the bordered KKT system for the step to the optimum of the
    face left free by the working set.  A singular, inconsistent system
    has no face optimum; its least-squares residual r = [d; s] satisfies
    A r = 0, so d is a zero-curvature ascent direction (d'Hd = 0,
    g'd = |r|^2), followed to the first blocking bound.  ``tol`` is the
    multiplier error a face optimum may keep.
    """
    n = l.shape[0]
    upper = np.full(n, np.inf) if caps is None else caps
    if warm is None:
        w = _greedy_linear(l, mass, caps)
    else:
        # clip and hand the missing mass out by gradient: projecting instead
        # would spread mass onto every zero coordinate and leave the warm face
        w = np.minimum(np.maximum(warm, 0.0), upper)
        if w.sum() > mass:
            w *= mass / w.sum()
        w += _greedy_linear(l - H @ w, max(mass - float(w.sum()), 0.0),
                            None if caps is None else upper - w)
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
            sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            resid = rhs - A @ sol
            if float(np.max(np.abs(resid[:k]))) > tol:
                sol, limit = resid, np.inf
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
