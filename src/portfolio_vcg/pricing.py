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

Every charge takes one route, ``_vcg_prices``: a single offer's price
(``price_offer``) and the schedules of both formulations, the portfolio
(``price_schedule``) and the call-count (``qmap_prices``) one, which
share one assembly of the allocation, the charges and the price per ad
call.  The pinned subproblems are independent pure computations with the
same solver tolerances and no tie-break.  Zero-weight offers are
priced at 0 without a solve, and the weighted offers from one
factorization of the full optimum's face (``qp.solve_pinned_family``).
Pinning an offer i on that face borders its KKT matrix K once more, so
the pinned optimum is often closed form, f* - w_i^2 / (2 P_ii) with P
the top-left block of K^-1: an offer that hedges the others' risk is
costly to remove, has a small P_ii and pays less.  Rows that need more
working-set changes solve small Schur complements of K, singular faces
included; a row the family does not finish, or a family of one or two
rows, is solved by ``qp.solve``.  Every row reaches the optimum that
solve reaches and meets the same certificate.
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
    market_problem,
    qmap_problem,
    solve_allocation,
    validate_qmap,
)
from .market import PER_RESPONSE, MarketInstance
from .qp import QpProblem


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
            object.__setattr__(self, name, qp._readonly(getattr(self, name)))


def _vcg_prices(problem: QpProblem, alloc: Allocation, values: np.ndarray,
                offers: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The VCG charges and pinned optima of ``offers`` (every offer when None).

    ``values`` holds each offer's own per-unit value (mu, or c for the
    call-count program), so offer i's share of the chosen objective is
    w_i * values[i] and the others' value is the rest.  If w_i = 0 the
    full optimum stays feasible with offer i pinned, and pinning can only
    lower the optimum, so the two are equal and offer i pays exactly 0
    without a solve.  The weighted offers' pinned problems are priced
    together from one factorization of the allocation's face, warm-started
    at the allocation, by ``qp.solve_pinned_family``, and share
    ``problem``'s validation and eigenvalue bound.
    """
    if offers is None:
        offers = np.arange(problem.dimension)
    pinned = np.full(offers.size, alloc.objective_value)
    weighted = alloc.weights[offers] != 0.0
    pinned[weighted] = qp.solve_pinned_family(problem, offers[weighted],
                                              alloc.weights)
    others = alloc.objective_value - alloc.weights[offers] * values[offers]
    return pinned - others, pinned


def price_offer(market: MarketInstance, alloc: Allocation, i: int) -> float:
    """VCG charge for offer i: pinned optimum minus the others' value.

    The others' value at the chosen allocation is the full objective minus
    offer i's own slice w_i * mu_i.  Requires ``alloc = allocate(market)``.
    """
    i = int(i)
    if not 0 <= i < market.n:
        raise IndexError(f"offer index {i} out of range for {market.n} offers")
    prices, _ = _vcg_prices(market_problem(market), alloc, market.mu, np.array([i]))
    return float(prices[0])


def price_risk_participant(market: MarketInstance, alloc: Allocation) -> float:
    """Expected revenue the publisher forgoes due to risk aversion.

    Removing the risk participant makes the objective linear, so the
    risk-neutral optimum is the greedy fill, exact with or without caps;
    the charge is that optimum minus the expected revenue of the actual
    allocation.  Always nonnegative.
    """
    risk_neutral = float(market.mu @ qp._greedy_linear(market.mu, 1.0, market.caps))
    return risk_neutral - float(alloc.weights @ market.mu)


def _charges(problem: QpProblem, total: int,
             values: np.ndarray) -> tuple[Allocation, np.ndarray, np.ndarray, np.ndarray]:
    """Allocate ``total`` calls, then price every offer by ``_vcg_prices``.

    Returns the allocation, the prices, the pinned optima and the price
    per ad call: each price over the offer's share of the ``total`` calls,
    w_i * (total / mass), NaN where the rounded allocation is below one
    call, since a price per call is meaningless without a call.
    """
    alloc = solve_allocation(problem, total)
    prices, pinned = _vcg_prices(problem, alloc, values)
    per_ad_call = np.full(problem.dimension, np.nan)
    sold = alloc.call_counts >= 1
    per_ad_call[sold] = prices[sold] / (alloc.weights[sold] * (total / problem.mass))
    return alloc, prices, pinned, per_ad_call


def price_schedule(market: MarketInstance) -> PriceSchedule:
    """Allocate once, price every offer, and assemble all charges.

    The allocation and every pinned solve share one kernel problem, hence
    one validation and one factorization of Sigma.
    """
    alloc, prices, pinned, per_ad_call = _charges(
        market_problem(market), market.pool_size, market.mu)
    per_response = np.full(market.n, np.nan)
    for i, offer in enumerate(market.offers):
        if offer.basis == PER_RESPONSE and offer.response_rate > 0.0:
            per_response[i] = per_ad_call[i] / offer.response_rate
    return PriceSchedule(
        offer_prices=prices,
        risk_charge=price_risk_participant(market, alloc),
        publisher_revenue=float(prices.sum()),
        per_ad_call=per_ad_call,
        per_response=per_response,
        restricted_objectives=pinned,
        allocation=alloc,
    )


def qmap_prices(instance: QmapInstance) -> PriceSchedule:
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
    alloc, prices, pinned, per_ad_call = _charges(
        qmap_problem(instance), instance.m, instance.c_vector)
    return PriceSchedule(
        offer_prices=prices,
        risk_charge=None,
        publisher_revenue=float(prices.sum()),
        per_ad_call=per_ad_call,
        per_response=np.full(n, np.nan),
        restricted_objectives=pinned,
        allocation=alloc,
    )
