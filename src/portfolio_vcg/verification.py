"""Empirical certification of the mechanism's properties.

Each check pits the implementation against an independent oracle or a
directly computable criterion on concrete markets:

* truthfulness: reporting the true expected value is a dominant strategy
  (a deviating bidder's payoff, measured at TRUE values, never improves);
* individual rationality: no participating offer pays more than the value
  it receives;
* second-price limit: with q = 0 the mechanism degenerates to
  winner-take-all at the second-highest expected value;
* oracle agreement: the solver's optimum matches exhaustive grid search.

Randomized suites draw markets from a fixed-seed generator, so every
report is reproducible from its seed.  Trials are independent pure
computations; reports aggregate by trial index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allocation import Allocation, allocate, apportion
from .market import MarketInstance, Offer, PER_RESPONSE, market_from_mu, replace_offer
from .pricing import PriceSchedule, price_offer, price_schedule

EPS_PRICE = 1e-6          # an order of magnitude above solver-induced price noise
TIE_TOL = 1e-9            # expected-value gap below which a q=0 market counts as tied
RESTRICTION_TOL = 1e-9    # slack for "full optimum >= pinned optimum"
MAX_RETAINED = 5          # counterexamples kept per report
MAX_LATTICE_POINTS = 30_000_000


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check or randomized suite.

    ``worst_margin`` is the most negative slack observed; every margin is
    oriented so the property holds iff margin >= -EPS_PRICE (the oracle
    suite's own ``tol`` in its place), so a comfortable pass has a large
    positive worst_margin.  ``skipped`` counts trials excluded by
    preconditions (e.g. tied q=0 markets);
    ``restriction_violations`` counts failures of the side condition that
    the full optimum dominates every pinned optimum.  ``counterexamples``
    retains up to a handful of violating instances for reproduction.
    """

    property: str
    trials: int
    violations: int
    worst_margin: float
    seed: Optional[int] = None
    skipped: int = 0
    restriction_violations: int = 0
    counterexamples: tuple = ()

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.restriction_violations == 0


class _ReportBuilder:
    def __init__(self, name: str, eps: float, seed: Optional[int] = None):
        self.name = name
        self.eps = eps
        self.seed = seed
        self.trials = 0
        self.violations = 0
        self.skipped = 0
        self.restriction_violations = 0
        self.worst = math.inf
        self.examples: list = []

    def record(self, margin: float, example) -> None:
        """Count one trial; ``example`` is a zero-argument callable that
        builds the counterexample, called only when one is retained."""
        self.trials += 1
        self.worst = min(self.worst, margin)
        if margin < -self.eps:
            self.violations += 1
            if len(self.examples) < MAX_RETAINED:
                self.examples.append(example())

    def skip(self) -> None:
        self.skipped += 1

    def check_restriction(self, schedule: PriceSchedule) -> None:
        gaps = schedule.allocation.objective_value - schedule.restricted_objectives
        if float(np.min(gaps, initial=0.0)) < -RESTRICTION_TOL:
            self.restriction_violations += 1

    def build(self) -> PropertyReport:
        return PropertyReport(
            property=self.name,
            trials=self.trials,
            violations=self.violations,
            worst_margin=self.worst,
            seed=self.seed,
            skipped=self.skipped,
            restriction_violations=self.restriction_violations,
            counterexamples=tuple(self.examples),
        )


def utility(market: MarketInstance, schedule: PriceSchedule, i: int) -> float:
    """Bidder i's payoff: value of the received allocation minus the price.

    The value is computed at the TRUE expected value mu_i, regardless of
    what was reported to produce the schedule.
    """
    i = int(i)
    if not 0 <= i < market.n:
        raise IndexError(f"offer index {i} out of range for {market.n} offers")
    return float(schedule.allocation.weights[i] * market.mu[i]
                 - schedule.offer_prices[i])


def _market_summary(market: MarketInstance) -> dict:
    return {
        "mu": [float(v) for v in market.mu],
        "sigma": [[float(v) for v in row] for row in market.sigma],
        "q": float(market.q),
        "pool_size": int(market.pool_size),
    }


def _with_reported_value(market: MarketInstance, i: int,
                         reported: float) -> MarketInstance:
    """The market with offer i's bid adjusted to report ``reported``; the
    rest of the validated market is kept (``replace_offer``)."""
    offer = market.offers[i]
    if offer.basis == PER_RESPONSE:
        if offer.response_rate == 0.0:
            if reported != 0.0:
                raise ValueError(
                    "an offer with zero response rate cannot report a "
                    "nonzero expected value"
                )
            new_bid = offer.bid
        else:
            new_bid = reported / offer.response_rate
        changed = Offer(offer.id, new_bid, offer.basis, offer.response_rate)
    else:
        changed = Offer(offer.id, reported, offer.basis)
    return replace_offer(market, i, changed)


def check_truthfulness(market: MarketInstance, i: int,
                       deltas: Sequence[float],
                       schedule: Optional[PriceSchedule] = None) -> PropertyReport:
    """Compare bidder i's truthful payoff against each reporting deviation.

    For each delta, the market is re-run with offer i reporting
    mu_i + delta while everyone else stays truthful; the bidder's payoff
    under the deviated outcome is evaluated at the TRUE mu_i.  A violation
    is a deviation that beats truth-telling by more than EPS_PRICE.  Every delta
    must keep the reported value nonnegative.  A deviated market keeps the
    market's validated Sigma and its eigenvalue bound, so pricing it
    factors nothing again.
    """
    if schedule is None:
        schedule = price_schedule(market)
    builder = _ReportBuilder("truthfulness", EPS_PRICE)
    builder.check_restriction(schedule)
    _record_deviations(builder, market, schedule, int(i), deltas)
    return builder.build()


def _record_deviations(builder: _ReportBuilder, market: MarketInstance,
                       schedule: PriceSchedule, i: int,
                       deltas: Sequence[float]) -> None:
    """Record one truthfulness trial per delta; ``schedule`` is the
    truthful market's, whose restriction the caller checks once."""
    u_truth = utility(market, schedule, i)
    true_mu = float(market.mu[i])
    for delta in deltas:
        reported = true_mu + float(delta)
        if reported < 0:
            raise ValueError(
                f"delta {delta} drives the reported value below zero"
            )
        deviated = _with_reported_value(market, i, reported)
        dev_alloc = allocate(deviated)
        dev_price = price_offer(deviated, dev_alloc, i)
        u_dev = float(dev_alloc.weights[i]) * true_mu - dev_price
        builder.record(u_truth - u_dev, lambda: {
            **_market_summary(market),
            "bidder": i,
            "delta": float(delta),
            "u_truth": u_truth,
            "u_dev": u_dev,
        })


def check_individual_rationality(
        market: MarketInstance,
        schedule: Optional[PriceSchedule] = None) -> PropertyReport:
    """Assert every offer's payoff from participating is >= -EPS_PRICE."""
    if schedule is None:
        schedule = price_schedule(market)
    builder = _ReportBuilder("individual_rationality", EPS_PRICE)
    builder.check_restriction(schedule)
    for i in range(market.n):
        builder.record(utility(market, schedule, i), lambda: {
            **_market_summary(market),
            "bidder": i,
            "price": float(schedule.offer_prices[i]),
        })
    return builder.build()


def check_second_price_limit(market: MarketInstance) -> PropertyReport:
    """With q = 0: winner-take-all at the second-highest expected value.

    Requires a risk-neutral market; markets whose top expected value is
    tied (within TIE_TOL) are skipped and counted, since the limit is
    stated for a unique maximum.  Margins are the negated deviations from
    the predicted schedule, so the check passes iff every deviation is at
    most EPS_PRICE.
    """
    if market.q != 0.0:
        raise ValueError(f"second-price limit requires q = 0, got q={market.q}")
    builder = _ReportBuilder("second_price_limit", EPS_PRICE)
    _record_second_price(builder, market)
    return builder.build()


def _record_second_price(builder: _ReportBuilder, market: MarketInstance) -> None:
    """Record one second-price trial of a q = 0 market, or skip it when its
    top expected value is tied."""
    order = np.argsort(-market.mu, kind="stable")
    winner, runner_up = int(order[0]), int(order[1])
    if market.mu[winner] - market.mu[runner_up] <= TIE_TOL:
        builder.skip()
        return

    schedule = price_schedule(market)
    builder.check_restriction(schedule)
    weights = schedule.allocation.weights
    expected = np.zeros(market.n)
    expected[winner] = 1.0
    allocation_err = float(np.max(np.abs(weights - expected)))
    price_err = abs(float(schedule.offer_prices[winner]) - float(market.mu[runner_up]))
    others = np.delete(schedule.offer_prices, winner)
    others_err = float(np.max(np.abs(others), initial=0.0))
    risk_err = abs(float(schedule.risk_charge))
    worst_err = max(allocation_err, price_err, others_err, risk_err)
    builder.record(-worst_err, lambda: {
        **_market_summary(market),
        "winner": winner,
        "winner_price": float(schedule.offer_prices[winner]),
        "second_mu": float(market.mu[runner_up]),
    })


@functools.lru_cache(maxsize=8)
def _simplex_lattice(n: int, resolution: int) -> np.ndarray:
    """All integer vectors of length n >= 2 summing to ``resolution``.

    Built once per (n, resolution) and shared, so the array is read-only:
    the oracle suite's n = 3 trials reuse one 501,501-point lattice.
    """
    count = math.comb(resolution + n - 1, n - 1)
    if count > MAX_LATTICE_POINTS:
        raise ValueError(
            f"lattice would hold {count} points; coarsen the step"
        )
    if n == 2:
        k = np.arange(resolution + 1, dtype=np.int64)
        lattice = np.stack([k, resolution - k], axis=1)
    else:
        blocks = []
        for first in range(resolution + 1):
            tail = _simplex_lattice(n - 1, resolution - first)
            head = np.full((tail.shape[0], 1), first, dtype=np.int64)
            blocks.append(np.hstack([head, tail]))
        lattice = np.vstack(blocks)
    lattice.setflags(write=False)
    return lattice


def brute_force_allocate(market: MarketInstance, step: float) -> Allocation:
    """Exhaustive search over the simplex lattice of the given step.

    Independent of the solver: evaluates the portfolio objective at every
    lattice point and returns the best one.  Restricted to n <= 4 (the
    lattice explodes beyond that).
    """
    if market.mu is None:
        raise ValueError("market must be validated first")
    if market.n > 4:
        raise ValueError(f"grid oracle supports n <= 4, got n={market.n}")
    if not 0 < step <= 1:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    resolution = max(1, round(1.0 / step))
    lattice = _simplex_lattice(market.n, resolution)
    weights = lattice.astype(float) / resolution
    if market.caps is not None:
        feasible = np.all(weights <= market.caps[None, :] + 1e-12, axis=1)
        weights = weights[feasible]
        if weights.shape[0] == 0:
            raise ValueError("no lattice point satisfies the caps")
    # w'Sigma w row by row: one product with Sigma, then a row-wise dot
    risk = np.einsum("ij,ij->i", weights @ market.sigma, weights)
    values = weights @ market.mu - market.q * risk
    best = int(np.argmax(values))
    w = weights[best]
    return Allocation(
        weights=w,
        call_counts=apportion(w, market.pool_size),
        objective_value=float(values[best]),
    )


def random_market(rng: np.random.Generator, n: Optional[int] = None,
                  q: Optional[float] = None,
                  normalize_sigma: bool = False) -> MarketInstance:
    """Draw a market: mu ~ U[0,5], Sigma = G'G + 1e-6 I, q log-uniform, 1000 calls.

    With ``normalize_sigma`` the covariance is scaled to unit spectral
    norm, which keeps the objective's curvature commensurate with grid
    oracles.  Deterministic given the generator state.
    """
    if n is None:
        n = int(rng.integers(2, 7))
    mu = rng.uniform(0.0, 5.0, n)
    g = rng.standard_normal((n, n))
    sigma = g.T @ g + 1e-6 * np.eye(n)
    if normalize_sigma:
        sigma = sigma / float(np.linalg.eigvalsh(sigma)[-1])
    if q is None:
        q = float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
    return market_from_mu(mu, sigma, q)


def run_truthfulness_suite(trials: int = 1000, seed: int = 42) -> PropertyReport:
    """Randomized (market, bidder, delta) trials of dominant-strategy truth-telling.

    Deviations are drawn from [-mu_i, +5], so reported values stay valid
    bids.  Each trial re-prices the deviated market through the full
    pipeline.
    """
    rng = np.random.default_rng(seed)
    builder = _ReportBuilder("truthfulness", EPS_PRICE, seed=seed)
    while builder.trials < trials:
        market = random_market(rng)
        schedule = price_schedule(market)
        builder.check_restriction(schedule)
        for i in range(market.n):
            if builder.trials >= trials:
                break
            delta = float(rng.uniform(-market.mu[i], 5.0))
            _record_deviations(builder, market, schedule, i, [delta])
    return builder.build()


def run_ir_suite(trials: int = 1000, seed: int = 42) -> PropertyReport:
    """Randomized individual-rationality trials; one market per trial.

    Each trial asserts every offer's payoff >= -EPS_PRICE and,
    additionally, that the risk participant's charge is >= -EPS_PRICE.
    """
    rng = np.random.default_rng(seed)
    builder = _ReportBuilder("individual_rationality", EPS_PRICE, seed=seed)
    for _ in range(trials):
        market = random_market(rng)
        schedule = price_schedule(market)
        builder.check_restriction(schedule)
        margins = [utility(market, schedule, i) for i in range(market.n)]
        margins.append(float(schedule.risk_charge))
        builder.record(min(margins), lambda: {
            **_market_summary(market),
            "prices": [float(p) for p in schedule.offer_prices],
            "risk_charge": float(schedule.risk_charge),
        })
    return builder.build()


def run_second_price_suite(trials: int = 500, seed: int = 42) -> PropertyReport:
    """Randomized q = 0 markets against the direct second-price computation."""
    rng = np.random.default_rng(seed)
    builder = _ReportBuilder("second_price_limit", EPS_PRICE, seed=seed)
    while builder.trials < trials:
        _record_second_price(builder, random_market(rng, q=0.0))
    return builder.build()


def run_oracle_suite(trials: int = 100, seed: int = 42, step: float = 1e-3,
                     tol: float = 1e-4) -> PropertyReport:
    """Solver optimum versus exhaustive lattice search on small markets.

    Uses n in {2, 3} with unit-spectral-norm covariance so the lattice
    spacing resolves the tolerance; margins are -|solve - grid|.
    """
    rng = np.random.default_rng(seed)
    builder = _ReportBuilder("oracle_agreement", tol, seed=seed)
    for trial in range(trials):
        n = 2 + trial % 2
        market = random_market(rng, n=n, normalize_sigma=True)
        schedule = price_schedule(market)
        builder.check_restriction(schedule)
        oracle = brute_force_allocate(market, step)
        diff = abs(schedule.allocation.objective_value - oracle.objective_value)
        builder.record(-diff, lambda: {
            **_market_summary(market),
            "solver_objective": schedule.allocation.objective_value,
            "grid_objective": oracle.objective_value,
        })
    return builder.build()


SUITES = {
    "truthfulness": run_truthfulness_suite,
    "ir": run_ir_suite,
    "second_price": run_second_price_suite,
    "oracle": run_oracle_suite,
}


def run_property_suite(name: str, trials: int, seed: int = 42) -> list[PropertyReport]:
    """Run one named suite, or all of them, returning the reports.

    The grid-search suite is capped at 200 trials regardless of the
    requested count; each of its trials is an exhaustive lattice sweep.
    """
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(
            f"unknown property {name!r}; choose from "
            f"{sorted(SUITES)} or 'all'"
        )
    return [SUITES[key](trials=min(trials, 200) if key == "oracle" else trials,
                        seed=seed)
            for key in names]
