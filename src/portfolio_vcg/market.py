"""Auction input model: offers, covariance, risk parameter, pool size.

An offer's expected value is its bid for pay-per-ad-call offers and
bid * response_rate for pay-per-response offers; in the portfolio
formulation this is the expected total revenue if the offer received the
entire pool (callers holding per-call values multiply by the pool size
before building the market).  Validation rejects rather than repairs:
a covariance matrix that fails the PSD check is returned to the caller,
because silently clipping eigenvalues would change prices.

All types are immutable after validation and safe to share across
concurrent tasks.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .qp import SYM_TOL, _readonly, psd_slack, quadratic_scan

PER_AD_CALL = "per_ad_call"
PER_RESPONSE = "per_response"
# the largest pool: calls are apportioned in float arithmetic, which counts
# whole calls exactly only up to 2**53
MAX_POOL_SIZE = 2**53


class DiagnosticsError(ValueError):
    """Input data violates its invariants.

    ``diagnostics`` holds one (code, message) pair per violated invariant
    so a caller can report every problem at once, after ``prefix``.
    """

    prefix = "invalid input"

    def __init__(self, diagnostics: Sequence[tuple[str, str]]):
        self.diagnostics = [tuple(d) for d in diagnostics]
        detail = "; ".join(f"{code}: {message}" for code, message in self.diagnostics)
        super().__init__(f"{self.prefix}: {detail}")


class MarketValidationError(DiagnosticsError):
    """A market violates its invariants."""

    prefix = "invalid market"


@dataclass(frozen=True)
class Offer:
    """One advertiser's bid: money per payment event, plus payment basis.

    ``response_rate`` is required for per-response offers and fixed at 1
    for per-ad-call offers (passing it explicitly as 1.0 is accepted).
    """

    id: str
    bid: float
    basis: str = PER_AD_CALL
    response_rate: Optional[float] = None


@dataclass(frozen=True)
class MarketInstance:
    """The full auction input: offers, covariance, risk parameter, pool.

    ``mu`` is set only by ``validate_market`` and ``replace_offer``; a raw
    instance carries None.  ``caps`` optionally bounds each offer's
    fraction of the pool (extra linear constraints on the feasible set).
    """

    offers: tuple
    sigma: np.ndarray
    q: float
    pool_size: int
    caps: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = field(default=None, init=False)
    # (max|sigma|, a bound on its largest eigenvalue), found by
    # validate_market's checks and handed to the kernel problem; ``replace``
    # drops it
    _scan: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self):
        object.__setattr__(self, "offers", tuple(self.offers))
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        if self.caps is not None:
            object.__setattr__(self, "caps", _readonly(self.caps))

    @property
    def n(self) -> int:
        return len(self.offers)


def offer_problems(offer: Offer) -> list:
    """Diagnostics for a single offer; empty when the offer is valid."""
    problems = []
    basis, bid, rate = offer.basis, offer.bid, offer.response_rate
    if basis not in (PER_AD_CALL, PER_RESPONSE):
        problems.append(("unknown_basis",
                         f"offer {offer.id!r}: basis must be {PER_AD_CALL!r} or "
                         f"{PER_RESPONSE!r}, got {basis!r}"))
    if not math.isfinite(bid) or bid < 0:
        problems.append(("negative_bid",
                         f"offer {offer.id!r}: bid must be finite and >= 0, got {bid}"))
    if basis == PER_RESPONSE:
        if rate is None:
            problems.append(("missing_response_rate",
                             f"offer {offer.id!r}: per-response offers require a "
                             "response_rate"))
        elif not math.isfinite(rate) or not 0.0 <= rate <= 1.0:
            problems.append(("response_rate_out_of_range",
                             f"offer {offer.id!r}: response_rate must be in [0, 1], "
                             f"got {rate}"))
    elif rate is not None and rate != 1.0:
        problems.append(("response_rate_conflicts_with_basis",
                         f"offer {offer.id!r}: per-ad-call offers have response_rate "
                         f"fixed at 1, got {rate}"))
    return problems


def _value(offer: Offer) -> float:
    """Expected revenue of an offer that ``offer_problems`` passed."""
    if offer.basis == PER_RESPONSE:
        return float(offer.bid) * float(offer.response_rate)
    return float(offer.bid)


def expected_value(offer: Offer) -> float:
    """Expected revenue of the offer: bid times response rate.

    The rate is the stated one for per-response offers and 1 for
    per-ad-call offers.  Raises MarketValidationError for invalid offers,
    in particular a per-response offer missing its response_rate.
    """
    problems = offer_problems(offer)
    if problems:
        raise MarketValidationError(problems)
    return _value(offer)


def validate_market(raw: MarketInstance) -> MarketInstance:
    """Check every market invariant and derive the expected-value vector.

    Returns a new instance with ``mu`` populated, or raises
    MarketValidationError carrying one named diagnostic per violated
    invariant (dimension mismatch, asymmetry, PSD failure, n < 2, q < 0,
    a pool size outside the integers 1 to 2**53, per-offer problems,
    infeasible caps, caps that leave no feasible allocation once one offer
    is removed for its price).

    These are the only checks of the market's data: each offer is checked
    once, and Sigma is scanned and factored once (``quadratic_scan``:
    finite entries, max|Sigma - Sigma'| <= SYM_TOL * max|Sigma|, the PSD
    check by Cholesky).  The result shares the raw instance's arrays, keeps
    max|Sigma| and the scan's bound on Sigma's largest eigenvalue, and
    hands all three to its kernel problems.
    """
    problems = []
    n = raw.n
    if n < 2:
        problems.append(("too_few_offers",
                         f"pricing requires at least 2 offers, got {n}"))

    mu = np.zeros(n)
    seen_ids = set()
    for i, offer in enumerate(raw.offers):
        if offer.id in seen_ids:
            problems.append(("duplicate_offer_id",
                             f"offer id {offer.id!r} appears more than once"))
        seen_ids.add(offer.id)
        offer_issues = offer_problems(offer)
        problems.extend(offer_issues)
        if not offer_issues:
            mu[i] = _value(offer)

    sigma = raw.sigma
    peak = lam_bound = None
    if sigma.shape != (n, n):
        problems.append(("dimension_mismatch",
                         f"covariance shape {sigma.shape} does not match "
                         f"{n} offers"))
    else:
        peak, gap, floor, lam_bound = quadratic_scan(sigma)
        if math.isnan(peak):
            problems.append(("non_finite_covariance",
                             "covariance entries must be finite"))
        else:
            if gap > SYM_TOL * peak:
                i, j = np.unravel_index(int(np.argmax(np.abs(sigma - sigma.T))),
                                        sigma.shape)
                problems.append(("asymmetric_covariance",
                                 f"sigma[{i}][{j}]={float(sigma[i, j])!r} vs "
                                 f"sigma[{j}][{i}]={float(sigma[j, i])!r} "
                                 f"(gap {gap:.3e} > {SYM_TOL:.0e} * max|sigma| "
                                 f"{peak:.3e})"))
            if floor < -psd_slack(sigma):
                problems.append(("not_positive_semidefinite",
                                 f"covariance has min eigenvalue {floor:.6g}; "
                                 "input is rejected, not repaired"))

    if not np.isfinite(raw.q) or raw.q < 0:
        problems.append(("negative_risk_parameter",
                         f"risk parameter q must be >= 0, got {raw.q}"))
    if (not isinstance(raw.pool_size, (int, np.integer))
            or isinstance(raw.pool_size, bool)
            or not 0 < raw.pool_size <= MAX_POOL_SIZE):
        problems.append(("invalid_pool_size",
                         f"pool_size must be a positive integer of at most "
                         f"2**53, got {raw.pool_size!r}"))
    if raw.caps is not None:
        caps = raw.caps
        if caps.shape != (n,):
            problems.append(("caps_dimension_mismatch",
                             f"caps shape {caps.shape} does not match {n} offers"))
        elif np.any(caps < 0) or not np.all(np.isfinite(caps)):
            problems.append(("invalid_caps",
                             "caps must be finite and nonnegative"))
        elif float(caps.sum()) < 1.0 - 1e-12:
            problems.append(("infeasible_caps",
                             f"caps sum to {float(caps.sum()):.6g} < 1; "
                             "no feasible allocation"))
        elif n >= 2 and float(caps.sum() - caps.max()) < 1.0 - 1e-12:
            # each price pins one offer to zero; the largest cap is the
            # one the others can least afford to lose
            i = int(np.argmax(caps))
            problems.append(("infeasible_without_offer",
                             f"without offer {raw.offers[i].id!r} the other "
                             f"caps sum to {float(caps.sum() - caps[i]):.6g} "
                             "< 1; no feasible allocation to price it against"))

    if problems:
        raise MarketValidationError(problems)
    mu.setflags(write=False)
    market = copy.copy(raw)
    object.__setattr__(market, "mu", mu)
    object.__setattr__(market, "_scan", (peak, lam_bound))
    return market


def replace_offer(market: MarketInstance, i: int, offer: Offer) -> MarketInstance:
    """The validated market with offer i replaced by ``offer``.

    Only the new offer is validated (its own fields and the uniqueness of
    its id): Sigma, q, the pool and the caps stay as validated, and the
    market keeps what its validation found of Sigma.
    """
    if not 0 <= i < market.n:
        raise IndexError(f"offer index {i} out of range for {market.n} offers")
    if any(other.id == offer.id for j, other in enumerate(market.offers) if j != i):
        raise MarketValidationError([("duplicate_offer_id",
                                      f"offer id {offer.id!r} appears more than once")])
    offers = list(market.offers)
    offers[i] = offer
    mu = market.mu.copy()
    mu[i] = expected_value(offer)
    changed = copy.copy(market)
    object.__setattr__(changed, "offers", tuple(offers))
    object.__setattr__(changed, "mu", _readonly(mu))
    return changed


def make_market(offers: Sequence[Offer], sigma, q: float, pool_size: int,
                caps=None) -> MarketInstance:
    """Build and validate a market in one step."""
    return validate_market(MarketInstance(
        offers=tuple(offers),
        sigma=np.asarray(sigma, dtype=float),
        q=float(q),
        pool_size=pool_size,
        caps=None if caps is None else np.asarray(caps, dtype=float),
    ))


def market_from_mu(mu, sigma, q: float, pool_size: int = 1000,
                   caps=None) -> MarketInstance:
    """Market whose expected values equal ``mu``, via per-ad-call offers."""
    offers = [Offer(id=f"offer_{i}", bid=float(v)) for i, v in enumerate(mu)]
    return make_market(offers, sigma, q, pool_size, caps=caps)
