"""Outcome selection: the winning portfolio over the offer simplex.

Two equivalent formulations are supported: fractional weights w over
{w >= 0, sum(w) = 1} maximizing w'mu - q w'Sigma w, and call counts k over
{k >= 0, sum(k) = m} maximizing c'k - q (k'Ak + b'k).  With A = Sigma,
b = 0 and m = 1 the two coincide coordinate for coordinate.

The call-count program is solved literally as stated; its objective is not
scale-invariant in m, so rescaling (per-call versus per-pool variance
units) is left to the caller.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import qp
from .market import MAX_POOL_SIZE, DiagnosticsError, MarketInstance
from .qp import SYM_TOL, QpProblem, psd_slack, quadratic_scan


class QmapValidationError(DiagnosticsError):
    """A call-count instance violates its invariants."""

    prefix = "invalid call-count instance"


class TransformUndefinedError(ValueError):
    """The min-form substitution divides by the risk parameter."""


@dataclass(frozen=True)
class Allocation(qp.QpSolution):
    """A kernel solve's optimum with the pool apportioned to it.

    ``weights`` live on the scaled simplex (fractions for portfolio
    markets, call counts for the count formulation); ``call_counts`` is
    the deterministic integer apportionment of the pool.
    """

    call_counts: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        k = np.array(self.call_counts, dtype=int, copy=True)
        k.setflags(write=False)
        object.__setattr__(self, "call_counts", k)


@dataclass(frozen=True)
class QmapInstance:
    """Call-count program data: quadratic A, affine b, returns c, risk q, pool m.

    A and b express uncertainty and randomness, c the expected revenue per
    ad call.  In max form the objective is c'k - q (k'Ak + b'k); the min
    form k'Ak + b'k - q c'k enters through ``min_form_to_max_form``.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray
    c_vector: np.ndarray
    q: float
    m: int
    # (max|A|, a bound on its largest eigenvalue), found by validate_qmap's
    # checks and handed to the kernel problem; ``replace`` drops it
    _scan: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        for name in ("a_matrix", "b_vector", "c_vector"):
            object.__setattr__(self, name, qp._readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.c_vector.shape[0]


def validate_qmap(instance: QmapInstance) -> QmapInstance:
    """Check finite data, dimensions, symmetry and PSD of A, q >= 0, m > 0.

    These are the only checks of the instance's data, made once: the
    instance keeps max|A| and the bound on A's largest eigenvalue found
    here, so the kernel problem built from it checks and factors nothing
    again, and validating it a second time returns it as it is.
    """
    if instance._scan is not None:
        return instance
    A, b, c = instance.a_matrix, instance.b_vector, instance.c_vector
    if c.ndim != 1:   # the offers are counted along c's one axis
        got = "a scalar" if c.ndim == 0 else f"shape {c.shape}"
        raise QmapValidationError([("dimension_mismatch",
                                    f"c_vector must be a vector, got {got}")])
    problems = []
    peak = lam_bound = None
    n = instance.n
    if n == 0:
        problems.append(("empty_instance", "c_vector must be nonempty"))
    elif not np.all(np.isfinite(c)):
        problems.append(("non_finite_data", "c_vector entries must be finite"))
    if A.shape != (n, n):
        problems.append(("dimension_mismatch",
                         f"A shape {A.shape} does not match {n} offers"))
    else:
        peak, gap, floor, lam_bound = quadratic_scan(A)
        if math.isnan(peak):
            problems.append(("non_finite_data", "A entries must be finite"))
        elif gap > SYM_TOL * peak:
            problems.append(("asymmetric_matrix", "A must be symmetric"))
        elif floor < -psd_slack(A):
            problems.append(("not_positive_semidefinite",
                             f"A has min eigenvalue {floor:.6g}"))
    if b.shape != (n,):
        problems.append(("dimension_mismatch",
                         f"b shape {b.shape} does not match {n} offers"))
    elif not np.all(np.isfinite(b)):
        problems.append(("non_finite_data", "b_vector entries must be finite"))
    if not np.isfinite(instance.q) or instance.q < 0:
        problems.append(("negative_risk_parameter",
                         f"q must be >= 0, got {instance.q}"))
    if (not isinstance(instance.m, (int, np.integer))
            or isinstance(instance.m, bool)
            or not 0 < instance.m <= MAX_POOL_SIZE):
        problems.append(("invalid_pool_size",
                         f"m must be a positive integer of at most 2**53, "
                         f"got {instance.m!r}"))
    if problems:
        raise QmapValidationError(problems)
    object.__setattr__(instance, "_scan", (peak, lam_bound))
    return instance


def apportion(weights, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` indivisible calls.

    Deterministic and total-preserving: floors first, then hands the
    leftover units to the largest fractional remainders (lowest index on
    ties).  ``weights`` need not be normalized but must be finite.  A total
    above ``MAX_POOL_SIZE``, which floats cannot count, raises ValueError
    (near it, a rounded floor can still miss the total by a call or two).
    """
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    w = np.maximum(w, 0.0)
    total = int(total)
    if not 0 <= total <= MAX_POOL_SIZE:
        raise ValueError(f"total must lie in [0, 2**53], got {total}")
    mass = float(w.sum())
    if mass <= 0.0:
        raise ValueError("weights must have positive mass")
    raw = w * (total / mass)
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = raw - base
        order = np.argsort(-frac, kind="stable")
        base[order[:leftover]] += 1
    return base


def portfolio_objective(market: MarketInstance, w) -> float:
    """w'mu - q w'Sigma w for a validated market."""
    w = np.asarray(w, dtype=float)
    return float(w @ market.mu) - market.q * float(w @ market.sigma @ w)


def qmap_objective(instance: QmapInstance, k, min_form: bool = False) -> float:
    """Max-form objective c'k - q (k'Ak + b'k); min form when requested."""
    k = np.asarray(k, dtype=float)
    quad = float(k @ instance.a_matrix @ k) + float(instance.b_vector @ k)
    if min_form:
        return quad - instance.q * float(instance.c_vector @ k)
    return float(instance.c_vector @ k) - instance.q * quad


def _instance_problem(instance, **data) -> QpProblem:
    """The kernel problem over a validated instance's data, validated with
    it; an instance that was not validated is refused."""
    if instance._scan is None:
        raise ValueError(f"{type(instance).__name__} must be validated first")
    return qp.shared_problem(instance._scan, **data)


def market_problem(market: MarketInstance) -> QpProblem:
    """The portfolio program of a market as a kernel problem.

    The market owns the checks of its data: a problem built from a market
    that ``validate_market`` returned shares the market's read-only mu,
    Sigma and caps without copying them, and arrives validated, with the
    max|Sigma| and eigenvalue bound that validation found.  So a market is
    scanned and factored once, however many problems are built from it, and
    only the pins of each are checked.  A market that did not come from
    ``validate_market`` raises ValueError.
    """
    return _instance_problem(market, linear=market.mu, quadratic=market.sigma,
                             risk=market.q, mass=1.0, caps=market.caps)


def solve_allocation(problem: QpProblem, total: int) -> Allocation:
    """Solve a kernel problem and apportion ``total`` calls to its optimum."""
    solution = qp.solve(problem)
    return Allocation(
        weights=solution.weights,
        objective_value=solution.objective_value,
        kkt_residual=solution.kkt_residual,
        iterations=solution.iterations,
        problem=solution.problem,
        call_counts=apportion(solution.weights, total),
    )


def allocate(market: MarketInstance) -> Allocation:
    """Maximize w'mu - q w'Sigma w over the feasible weight simplex.

    With q = 0 all calls go to the offer with the highest expected value
    (lowest index on ties).  The market must already be validated.
    """
    return solve_allocation(market_problem(market), market.pool_size)


def qmap_problem(instance: QmapInstance) -> QpProblem:
    """The max-form call-count program as a kernel problem, whose linear
    term is c - q b, a read-only array computed here.

    As ``market_problem`` does for a market, the problem of an instance
    that ``validate_qmap`` passed shares A and its validation; an instance
    it did not pass raises ValueError.
    """
    linear = instance.c_vector
    if instance._scan is not None:   # fold only data the checks passed
        linear = qp._readonly(linear - instance.q * instance.b_vector)
    return _instance_problem(instance, linear=linear, quadratic=instance.a_matrix,
                             risk=instance.q, mass=float(instance.m))


def qmap_allocate(instance: QmapInstance) -> Allocation:
    """Maximize c'k - q (k'Ak + b'k) over {k >= 0, sum(k) = m}."""
    validate_qmap(instance)
    return solve_allocation(qmap_problem(instance), instance.m)


def min_form_to_max_form(min_form: QmapInstance) -> QmapInstance:
    """Rewrite the min form as the equivalent max-form instance.

    min k'Ak + b'k - q c'k has the same optimizers as
    max c'k - (1/q) (k'Ak + b'k): divide by q and flip the sign.  The
    substitution needs q > 0; a risk-less min form has no max-form
    counterpart through this route.
    """
    validate_qmap(min_form)
    if min_form.q == 0.0:
        raise TransformUndefinedError(
            "the min-form substitution divides by q, which is 0; "
            "state the problem in max form directly"
        )
    if not math.isfinite(1.0 / min_form.q):
        raise TransformUndefinedError(
            f"the min-form substitution divides by q, and 1/q overflows "
            f"for q = {min_form.q!r}"
        )
    max_form = copy.copy(min_form)   # the same A, b and c, checked once
    object.__setattr__(max_form, "q", 1.0 / min_form.q)
    return max_form
