"""Generalized VCG charges for portfolio allocations.

Each offer pays the harm its participation causes the others: the optimum
of the market with the offer pinned to zero, minus everyone else's value
at the chosen allocation.  A synthetic risk-aversion participant makes the
outcome selection equal portfolio optimization; its "charge" is the
expected revenue the publisher forgoes by not being risk-neutral.  That
charge is bookkeeping: nobody pays it, and publisher revenue is the sum of
the offer prices alone.

Offer prices can be negative: an offer whose covariance strongly reduces
portfolio variance is rewarded, never so much that any participant's
payoff turns negative.

The pinned subproblems are independent pure computations with identical
solver configuration and tie-breaking.  A schedule prices zero-weight
offers at 0 without a solve and prices the weighted offers from one
factorization of the full optimum's face (``qp.solve_pinned_family``).
Pinning an offer i on that face borders its KKT matrix K once more, so
the pinned optimum is often closed form, f* - w_i^2 / (2 P_ii) with P
the top-left block of K^-1: an offer that hedges the others' risk is
costly to remove, has a small P_ii and pays less.  Rows that need more
working-set changes solve small Schur complements of K, and a row the
factorization cannot serve, or a family of one or two rows, is solved
alone; every row reaches the optimum a separate solve would and meets
the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qp
from .allocation import (  # noqa: F401  (allocate is re-exported)
    Allocation,
    QmapInstance,
    allocate,
    apportion,
    market_problem,
    qmap_problem,
    solve_allocation,
    validate_qmap,
)
from .market import PER_RESPONSE, MarketInstance
from .qp import DEFAULT_CONFIG, QpProblem, SolverConfig


class QmapPricingError(ValueError):
    """Pricing is undefined for the given call-count instance."""


@dataclass(frozen=True)
class PriceSchedule:
    """VCG prices for one market, plus audit and conversion columns.

    ``offer_prices[i]`` is the per-allocation charge for offer i and
    ``risk_charge`` the (reported, unbilled) charge to the risk-aversion
    participant; it is None for call-count schedules, which define no such
    charge.  ``per_ad_call`` divides each price by the offer's ad-call
    volume and is NaN where the rounded allocation is below one call;
    ``per_response`` further divides by the response rate and is NaN for
    offers that do not pay per response.  ``restricted_objectives[i]`` is
    the optimum with offer i removed, retained for audit.
    """

    offer_prices: np.ndarray
    risk_charge: Optional[float]
    publisher_revenue: float
    per_ad_call: np.ndarray
    per_response: np.ndarray
    restricted_objectives: np.ndarray
    allocation: Allocation

    def __post_init__(self):
        for name in ("offer_prices", "per_ad_call", "per_response",
                     "restricted_objectives"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _pinned_optimum(problem: QpProblem, alloc: Allocation, i: int,
                    config: SolverConfig) -> float:
    """Offer i's pinned optimum, solved only when the answer is not known.

    If w*_i = 0 the full optimum stays feasible with offer i pinned, and
    pinning can only lower the optimum, so the two are equal and offer i
    pays exactly 0.
    """
    if alloc.weights[i] == 0.0:
        return alloc.objective_value
    return qp.solve(problem.pinned(i), config, warm_start=alloc.weights).objective_value


def _vcg_prices(problem: QpProblem, alloc: Allocation, values: np.ndarray,
                config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every offer's VCG charge and pinned optimum.

    ``values`` holds each offer's own per-unit value (mu, or c for the
    call-count program), so offer i's share of the chosen objective is
    w_i * values[i] and the others' value is the rest.  Zero-weight offers
    take the shortcut of ``_pinned_optimum``; the weighted offers' pinned
    problems are priced together from one factorization of the
    allocation's face, warm-started at the allocation, by
    ``qp.solve_pinned_family``, and share ``problem``'s validation and
    eigendecomposition.
    """
    pinned = np.full(problem.dimension, alloc.objective_value)
    weighted = np.flatnonzero(alloc.weights)
    pinned[weighted] = qp.solve_pinned_family(problem, weighted, alloc.weights, config)
    others = alloc.objective_value - alloc.weights * values
    return pinned - others, pinned


def restricted_objective(market: MarketInstance, i: int,
                         config: SolverConfig = DEFAULT_CONFIG,
                         warm_start: Optional[np.ndarray] = None) -> float:
    """Optimum of the market with offer i pinned to zero.

    This is the pivot term in every offer's price; it depends only on the
    other participants' valuations.
    """
    pinned = market_problem(market).pinned(i)
    return qp.solve(pinned, config, warm_start=warm_start).objective_value


def price_offer(market: MarketInstance, alloc: Allocation, i: int,
                config: SolverConfig = DEFAULT_CONFIG) -> float:
    """VCG charge for offer i: pinned optimum minus the others' value.

    The others' value at the chosen allocation is the full objective minus
    offer i's own slice w_i * mu_i.  Requires ``alloc = allocate(market)``.
    """
    i = int(i)
    if not 0 <= i < market.n:
        raise IndexError(f"offer index {i} out of range for {market.n} offers")
    pinned = _pinned_optimum(market_problem(market), alloc, i, config)
    others_at_optimum = alloc.objective_value - float(alloc.weights[i] * market.mu[i])
    return pinned - others_at_optimum


def price_risk_participant(market: MarketInstance, alloc: Allocation,
                           config: SolverConfig = DEFAULT_CONFIG) -> float:
    """Expected revenue the publisher forgoes due to risk aversion.

    Removing the risk participant makes the objective linear, so the
    risk-neutral optimum is the greedy fill, exact with or without caps;
    the charge is that optimum minus the expected revenue of the actual
    allocation.  Always nonnegative.  ``config`` is unused.
    """
    risk_neutral = float(market.mu @ qp._greedy_linear(market.mu, 1.0, market.caps))
    return risk_neutral - float(alloc.weights @ market.mu)


def price_schedule(market: MarketInstance,
                   config: SolverConfig = DEFAULT_CONFIG) -> PriceSchedule:
    """Allocate once, run the n pinned solves, and assemble all charges.

    The allocation and every pinned solve share one kernel problem, hence
    one validation and one eigendecomposition.
    """
    if market.mu is None:
        raise ValueError("market must be validated before pricing")
    problem = market_problem(market)
    alloc = solve_allocation(problem, market.pool_size, config)
    n = market.n
    prices, pinned = _vcg_prices(problem, alloc, market.mu, config)

    per_ad_call = np.full(n, np.nan)
    per_response = np.full(n, np.nan)
    for i, offer in enumerate(market.offers):
        if alloc.call_counts[i] < 1:
            continue  # a price per call is meaningless without a call
        per_ad_call[i] = prices[i] / (alloc.weights[i] * market.pool_size)
        if offer.basis == PER_RESPONSE and offer.response_rate > 0.0:
            per_response[i] = per_ad_call[i] / offer.response_rate

    return PriceSchedule(
        offer_prices=prices,
        risk_charge=price_risk_participant(market, alloc, config),
        publisher_revenue=float(prices.sum()),
        per_ad_call=per_ad_call,
        per_response=per_response,
        restricted_objectives=pinned,
        allocation=alloc,
    )


def qmap_prices(instance: QmapInstance,
                config: SolverConfig = DEFAULT_CONFIG) -> PriceSchedule:
    """VCG offer prices for the max-form call-count program.

    p_i = [optimum with k_i = 0] - [c'k* - q(k*'Ak* + b'k*) - c_i k*_i].
    No risk-participant charge is defined for this formulation, so
    ``risk_charge`` is None.  Per-call conversions divide by the call
    counts themselves; response rates are unknown here, so the
    per-response column is entirely NaN.
    """
    validate_qmap(instance)
    n = instance.n
    if n < 2:
        raise QmapPricingError(
            f"pricing requires at least 2 offers, got {n}: removing the "
            "only offer empties the market"
        )
    problem = qmap_problem(instance)
    alloc = solve_allocation(problem, instance.m, config)
    prices, pinned = _vcg_prices(problem, alloc, instance.c_vector, config)

    per_ad_call = np.full(n, np.nan)
    counts = apportion(alloc.weights, instance.m)
    positive = counts >= 1
    per_ad_call[positive] = prices[positive] / alloc.weights[positive]

    return PriceSchedule(
        offer_prices=prices,
        risk_charge=None,
        publisher_revenue=float(prices.sum()),
        per_ad_call=per_ad_call,
        per_response=np.full(n, np.nan),
        restricted_objectives=pinned,
        allocation=alloc,
    )
