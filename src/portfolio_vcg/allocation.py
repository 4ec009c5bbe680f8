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

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import qp
from .market import MarketInstance
from .qp import DEFAULT_CONFIG, QpProblem, SolverConfig, extreme_eigenvalues, psd_slack


class QmapValidationError(ValueError):
    """A call-count instance violates its invariants."""

    def __init__(self, diagnostics: Sequence[tuple[str, str]]):
        self.diagnostics = [tuple(d) for d in diagnostics]
        detail = "; ".join(f"{code}: {message}" for code, message in self.diagnostics)
        super().__init__(f"invalid call-count instance: {detail}")


class TransformUndefinedError(ValueError):
    """The min-form substitution divides by the risk parameter."""


@dataclass(frozen=True)
class Allocation:
    """A feasible outcome with its achieved objective value.

    ``weights`` live on the scaled simplex (fractions for portfolio
    markets, call counts for the count formulation); ``call_counts`` is
    the deterministic integer apportionment of the pool.  Solver
    diagnostics ride along for audit output.  ``solution`` is the kernel
    solve behind the allocation, if any; ``degenerate`` is read from it on
    first use, so an allocation whose flag nobody reads does not pay for
    it.
    """

    weights: np.ndarray
    call_counts: np.ndarray
    objective_value: float
    kkt_residual: float = float("nan")
    iterations: int = 0
    solution: Optional[qp.QpSolution] = field(default=None, repr=False,
                                              compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float, copy=True)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        k = np.array(self.call_counts, dtype=int, copy=True)
        k.setflags(write=False)
        object.__setattr__(self, "call_counts", k)

    @property
    def degenerate(self) -> bool:
        """True when the solve's maximizer is not unique (False without one)."""
        return self.solution is not None and self.solution.degenerate


@dataclass(frozen=True)
class QmapInstance:
    """Call-count program data: quadratic A, affine b, returns c, risk q, pool m.

    A and b express uncertainty and randomness, c the expected revenue per
    ad call.  In max form the objective is c'k - q (k'Ak + b'k); the min
    form k'Ak + b'k - q c'k is accepted only through ``qmap_transform``.
    """

    a_matrix: np.ndarray
    b_vector: np.ndarray
    c_vector: np.ndarray
    q: float
    m: int
    # (lambda_min, lambda_max) of A, found by validate_qmap's PSD check and
    # handed to the kernel problem; ``replace`` drops it
    _spectrum: Optional[tuple] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        for name in ("a_matrix", "b_vector", "c_vector"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.c_vector.shape[0]


def validate_qmap(instance: QmapInstance) -> QmapInstance:
    """Check dimensions, PSD of A, q >= 0 and m > 0.

    The instance keeps the extreme eigenvalues of A found here, so the
    kernel problem built from it does not decompose A again.
    """
    problems = []
    spectrum = instance._spectrum
    n = instance.n
    if n == 0:
        problems.append(("empty_instance", "c_vector must be nonempty"))
    if instance.a_matrix.shape != (n, n):
        problems.append(("dimension_mismatch",
                         f"A shape {instance.a_matrix.shape} does not match "
                         f"{n} offers"))
    elif np.max(np.abs(instance.a_matrix - instance.a_matrix.T), initial=0.0) > qp.SYM_TOL:
        problems.append(("asymmetric_matrix", "A must be symmetric"))
    else:
        spectrum = spectrum or extreme_eigenvalues(instance.a_matrix)
        if spectrum[0] < -psd_slack(instance.a_matrix):
            problems.append(("not_positive_semidefinite",
                             f"A has min eigenvalue {spectrum[0]:.6g}"))
    if instance.b_vector.shape != (n,):
        problems.append(("dimension_mismatch",
                         f"b shape {instance.b_vector.shape} does not match "
                         f"{n} offers"))
    if not np.isfinite(instance.q) or instance.q < 0:
        problems.append(("negative_risk_parameter",
                         f"q must be >= 0, got {instance.q}"))
    if not isinstance(instance.m, (int, np.integer)) or instance.m <= 0:
        problems.append(("invalid_pool_size",
                         f"m must be a positive integer, got {instance.m!r}"))
    if problems:
        raise QmapValidationError(problems)
    object.__setattr__(instance, "_spectrum", spectrum)
    return instance


def apportion(weights, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` indivisible calls.

    Deterministic and total-preserving: floors first, then hands the
    leftover units to the largest fractional remainders (lowest index on
    ties).  ``weights`` need not be normalized.
    """
    w = np.asarray(weights, dtype=float)
    w = np.maximum(w, 0.0)
    total = int(total)
    if total < 0:
        raise ValueError("total must be nonnegative")
    mass = float(w.sum())
    if mass <= 0.0:
        raise ValueError("weights must have positive mass")
    raw = w * (total / mass)
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        frac = raw - base
        order = np.lexsort((np.arange(w.size), -frac))
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


def market_problem(market: MarketInstance,
                   zero_set: frozenset = frozenset()) -> QpProblem:
    """The portfolio program of a market as a kernel problem.

    The problem takes the spectrum of Sigma that ``validate_market`` found,
    so a validated market is decomposed once, not once per problem.
    """
    problem = QpProblem(
        linear=market.mu,
        quadratic=market.sigma,
        risk=market.q,
        mass=1.0,
        zero_set=zero_set,
        caps=market.caps,
    )
    object.__setattr__(problem, "_spectrum", market._spectrum)
    return problem


def solve_allocation(problem: QpProblem, total: int,
                     config: SolverConfig = DEFAULT_CONFIG) -> Allocation:
    """Solve a kernel problem and apportion ``total`` calls to its optimum."""
    solution = qp.solve(problem, config)
    return Allocation(
        weights=solution.weights,
        call_counts=apportion(solution.weights, total),
        objective_value=solution.objective_value,
        kkt_residual=solution.kkt_residual,
        iterations=solution.iterations,
        solution=solution,
    )


def allocate(market: MarketInstance,
             config: SolverConfig = DEFAULT_CONFIG) -> Allocation:
    """Maximize w'mu - q w'Sigma w over the feasible weight simplex.

    With q = 0 all calls go to the offer with the highest expected value
    (lowest index on ties).  The market must already be validated.
    """
    if market.mu is None:
        raise ValueError("market must be validated before allocation")
    return solve_allocation(market_problem(market), market.pool_size, config)


def qmap_problem(instance: QmapInstance,
                 zero_set: frozenset = frozenset()) -> QpProblem:
    """The max-form call-count program as a kernel problem.

    The problem takes the spectrum of A that ``validate_qmap`` found, as
    ``market_problem`` does for Sigma.
    """
    problem = QpProblem(
        linear=instance.c_vector,
        quadratic=instance.a_matrix,
        risk=instance.q,
        mass=float(instance.m),
        zero_set=zero_set,
        affine_linear=instance.b_vector,
    )
    object.__setattr__(problem, "_spectrum", instance._spectrum)
    return problem


def qmap_allocate(instance: QmapInstance,
                  config: SolverConfig = DEFAULT_CONFIG) -> Allocation:
    """Maximize c'k - q (k'Ak + b'k) over {k >= 0, sum(k) = m}."""
    validate_qmap(instance)
    return solve_allocation(qmap_problem(instance), instance.m, config)


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
    max_form = replace(min_form, q=1.0 / min_form.q)
    object.__setattr__(max_form, "_spectrum", min_form._spectrum)   # same A
    return max_form


def qmap_transform(min_form: QmapInstance) -> QpProblem:
    """Kernel problem for the max form equivalent to a min-form instance.

    Raises TransformUndefinedError when the min form carries q = 0.  The
    returned problem's optimizer set equals the min form's.
    """
    return qmap_problem(min_form_to_max_form(min_form))
