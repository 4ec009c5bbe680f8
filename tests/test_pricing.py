from dataclasses import replace

import numpy as np
import pytest

from portfolio_vcg import (
    Offer,
    QmapInstance,
    QmapPricingError,
    QmapValidationError,
    allocate,
    make_market,
    market_from_mu,
    price_offer,
    price_risk_participant,
    price_schedule,
    qmap_prices,
    solve,
    utility,
)
from portfolio_vcg.allocation import market_problem, qmap_problem
from portfolio_vcg.verification import brute_force_allocate, random_market

FIXTURE = dict(mu=[1.0, 0.8], sigma=np.eye(2), q=0.5, pool=1000)


@pytest.fixture(scope="module")
def fixture_schedule():
    market = market_from_mu(FIXTURE["mu"], FIXTURE["sigma"], FIXTURE["q"],
                            FIXTURE["pool"])
    return market, price_schedule(market)


class TestPriceOffer:
    def test_two_asset_fixture(self, fixture_schedule):
        market, schedule = fixture_schedule
        alloc = schedule.allocation
        # pinned optima: drop offer 1 -> 0.8 - 0.5 = 0.3; drop 2 -> 1 - 0.5 = 0.5
        assert price_offer(market, alloc, 0) == pytest.approx(0.24, abs=1e-9)
        assert price_offer(market, alloc, 1) == pytest.approx(0.16, abs=1e-9)

    def test_risk_neutral_second_price(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        alloc = allocate(market)
        assert price_offer(market, alloc, 0) == pytest.approx(1.0, abs=1e-9)
        assert price_offer(market, alloc, 1) == pytest.approx(0.0, abs=1e-9)

    def test_irrelevant_offer_pays_nothing(self):
        # offer 3 has zero value and huge variance: it never enters, and
        # pinning it does not move the optimum
        market = market_from_mu([1.0, 0.8, 0.0],
                                np.diag([1.0, 1.0, 100.0]), 0.5, 100)
        alloc = allocate(market)
        assert alloc.weights[2] == pytest.approx(0.0, abs=1e-12)
        assert price_offer(market, alloc, 2) == pytest.approx(0.0, abs=1e-9)

    def test_index_out_of_range(self, fixture_schedule):
        market, schedule = fixture_schedule
        with pytest.raises(IndexError):
            price_offer(market, schedule.allocation, 2)


class TestRiskParticipant:
    def test_fixture_charge(self, fixture_schedule):
        market, schedule = fixture_schedule
        charge = price_risk_participant(market, schedule.allocation)
        assert charge == pytest.approx(0.08, abs=1e-9)

    def test_risk_neutral_market_forgoes_nothing(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        assert price_risk_participant(market, allocate(market)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_equal_values_forgo_nothing(self):
        for q in [0.0, 0.5, 3.0]:
            market = market_from_mu([1.0, 1.0], np.eye(2), q, 100)
            charge = price_risk_participant(market, allocate(market))
            assert charge == pytest.approx(0.0, abs=1e-9)

    def test_never_negative(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            market = random_market(rng)
            charge = price_risk_participant(market, allocate(market))
            assert charge >= -1e-9


class TestPriceSchedule:
    def test_fixture_schedule_fields(self, fixture_schedule):
        market, schedule = fixture_schedule
        np.testing.assert_allclose(schedule.offer_prices, [0.24, 0.16],
                                   atol=1e-9)
        assert schedule.risk_charge == pytest.approx(0.08, abs=1e-9)
        assert schedule.publisher_revenue == pytest.approx(0.40, abs=1e-9)
        np.testing.assert_allclose(schedule.per_ad_call, [0.0004, 0.0004],
                                   atol=1e-12)
        np.testing.assert_allclose(schedule.restricted_objectives, [0.3, 0.5],
                                   atol=1e-9)
        # pay-per-ad-call offers have no per-response price
        assert np.all(np.isnan(schedule.per_response))

    def test_per_response_division(self):
        offers = [Offer("a", 10.0, "per_response", 0.1), Offer("b", 0.8)]
        market = make_market(offers, np.eye(2), 0.5, 1000)
        schedule = price_schedule(market)
        assert schedule.per_response[0] == pytest.approx(
            schedule.per_ad_call[0] / 0.1, abs=1e-12)
        assert schedule.per_response[0] == pytest.approx(0.004, abs=1e-9)
        assert np.isnan(schedule.per_response[1])

    def test_zero_allocation_offer_has_no_per_call_price(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        schedule = price_schedule(market)
        assert np.isnan(schedule.per_ad_call[1])
        assert schedule.offer_prices[1] == pytest.approx(0.0, abs=1e-9)

    def test_revenue_is_sum_of_offer_prices(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            schedule = price_schedule(random_market(rng))
            assert schedule.publisher_revenue == pytest.approx(
                float(schedule.offer_prices.sum()), abs=1e-9)

    def test_prices_never_exceed_received_value(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            market = random_market(rng)
            schedule = price_schedule(market)
            for i in range(market.n):
                value = schedule.allocation.weights[i] * market.mu[i]
                assert schedule.offer_prices[i] <= value + 1e-6

    def test_full_optimum_dominates_every_pinned_optimum(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            schedule = price_schedule(random_market(rng))
            full = schedule.allocation.objective_value
            assert np.all(schedule.restricted_objectives <= full + 1e-9)


class TestRiskReducingOffersAreRewarded:
    # Anticorrelated returns with strong risk aversion: the low-value offer
    # hedges the portfolio, so its VCG price turns negative while every
    # participant still walks away with nonnegative payoff.
    MU = [1.0, 0.1]
    SIGMA = np.array([[1.0, -0.9], [-0.9, 1.0]])
    Q = 1.0

    def test_negative_price_with_ir_intact(self):
        market = market_from_mu(self.MU, self.SIGMA, self.Q, 1000)
        schedule = price_schedule(market)
        # closed form: w1* = 4.7/7.6, pinned optima h1 = -0.9, h2 = 0
        assert schedule.offer_prices[1] == pytest.approx(-0.5151315789473684,
                                                         abs=1e-9)
        assert schedule.offer_prices[1] < 0
        for i in range(market.n):
            assert utility(market, schedule, i) >= -1e-6
        assert schedule.risk_charge >= -1e-9

    def test_sign_confirmed_by_grid_oracle(self):
        from portfolio_vcg import portfolio_objective
        market = market_from_mu(self.MU, self.SIGMA, self.Q, 1000)
        schedule = price_schedule(market)
        full = brute_force_allocate(market, 1e-4)
        # pinning w2 = 0 leaves a single feasible point: all weight on offer 1
        pinned_optimum = portfolio_objective(market, np.array([1.0, 0.0]))
        others = full.objective_value - full.weights[1] * self.MU[1]
        oracle_price = pinned_optimum - others
        assert schedule.offer_prices[1] == pytest.approx(oracle_price, abs=1e-3)
        assert oracle_price < 0


class TestCappedMarkets:
    def test_caps_change_allocation_and_keep_ir(self):
        market = market_from_mu([2.0, 1.0, 0.5], np.eye(3), 0.2, 1000,
                                caps=[0.5, 0.6, 1.0])
        schedule = price_schedule(market)
        assert np.all(schedule.allocation.weights <= [0.5, 0.6, 1.0])
        oracle = brute_force_allocate(market, 1e-3)
        assert schedule.allocation.objective_value >= \
            oracle.objective_value - 1e-9
        for i in range(market.n):
            assert utility(market, schedule, i) >= -1e-6
        assert schedule.risk_charge >= -1e-9

    def test_capped_risk_neutral_benchmark(self):
        # with caps the forgone-revenue benchmark is the capped greedy fill
        market = market_from_mu([2.0, 1.0, 0.5], np.eye(3), 0.5, 1000,
                                caps=[0.6, 0.7, 1.0])
        schedule = price_schedule(market)
        greedy = 0.6 * 2.0 + 0.4 * 1.0
        expected = greedy - float(schedule.allocation.weights @ market.mu)
        assert schedule.risk_charge == pytest.approx(expected, abs=1e-9)


class TestQmapPrices:
    def test_linear_case_reduces_to_second_price(self):
        inst = QmapInstance(a_matrix=np.zeros((2, 2)), b_vector=np.zeros(2),
                            c_vector=np.array([2.0, 1.0]), q=1.0, m=1)
        schedule = qmap_prices(inst)
        np.testing.assert_allclose(schedule.offer_prices, [1.0, 0.0], atol=1e-9)
        assert schedule.risk_charge is None

    def test_unit_pool_matches_portfolio_prices(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.5, m=1)
        schedule = qmap_prices(inst)
        np.testing.assert_allclose(schedule.offer_prices, [0.24, 0.16],
                                   atol=1e-9)

    def test_affine_term_belongs_to_the_risk_participant(self):
        # b enters through the (n+1)-st valuation, so the winner's price
        # includes the variance-side externality: with effective values
        # (1.9, 0.9) the pinned optimum is 0.9 and the others' value at the
        # optimum is -q b'k* = -0.1, giving p1 = 1.0 (not 0.9)
        inst = QmapInstance(a_matrix=np.zeros((2, 2)),
                            b_vector=np.array([0.1, 0.1]),
                            c_vector=np.array([2.0, 1.0]), q=1.0, m=1)
        schedule = qmap_prices(inst)
        np.testing.assert_allclose(schedule.allocation.weights, [1.0, 0.0],
                                   atol=0)
        assert schedule.offer_prices[0] == pytest.approx(1.0, abs=1e-9)
        assert schedule.offer_prices[1] == pytest.approx(0.0, abs=1e-9)
        # grid oracle over the same formula
        grid = np.linspace(0.0, 1.0, 10_001)
        points = np.stack([grid, 1.0 - grid], axis=1)
        from portfolio_vcg import qmap_objective
        values = np.array([qmap_objective(inst, k) for k in points])
        restricted = float(values[grid == 0.0].max())
        best = float(values.max())
        k_star = points[int(np.argmax(values))]
        others = best - inst.c_vector[0] * k_star[0]
        assert schedule.offer_prices[0] == pytest.approx(restricted - others,
                                                         abs=1e-3)

    def test_single_offer_rejected(self):
        inst = QmapInstance(a_matrix=np.eye(1), b_vector=np.zeros(1),
                            c_vector=np.array([1.0]), q=0.5, m=1)
        with pytest.raises(QmapPricingError, match="2 offers"):
            qmap_prices(inst)

    def test_invalid_instance_reported_before_its_size(self):
        inst = QmapInstance(a_matrix=np.eye(1), b_vector=np.zeros(1),
                            c_vector=np.array([1.0]), q=-0.5, m=1)
        with pytest.raises(QmapValidationError, match="negative_risk_parameter"):
            qmap_prices(inst)

    def test_per_call_prices_divide_by_counts(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.5, m=1000)
        schedule = qmap_prices(inst)
        weights = schedule.allocation.weights
        for i in range(2):
            assert schedule.per_ad_call[i] == pytest.approx(
                schedule.offer_prices[i] / weights[i], abs=1e-12)
        assert np.all(np.isnan(schedule.per_response))


def _shortcut_markets(rng, kind):
    """Seeded markets in which several offers get zero weight."""
    if kind == "degenerate":
        # rank-1 Sigma = 11': the risk term is constant on the simplex, so
        # the three tied offers form a flat optimal face
        yield market_from_mu([1.0, 1.0, 1.0, 0.2], np.ones((4, 4)), 0.5, 1000)
        return
    for _ in range(15):
        n = int(rng.integers(4, 12))
        mu = rng.uniform(0.0, 5.0, n)
        rank = int(rng.integers(1, n)) if kind == "rank_deficient" else n
        g = rng.standard_normal((rank, n))
        sigma = g.T @ g + (1e-6 * np.eye(n) if kind != "rank_deficient" else 0.0)
        q = float(np.exp(rng.uniform(np.log(1e-3), np.log(1.0))))
        # n >= 4 caps of at least 0.35: any three of them cover the pool
        caps = rng.uniform(0.35, 0.8, n) if kind == "capped" else None
        yield market_from_mu(mu, sigma, q, 1000, caps=caps)


def _qmap_instances(rng):
    for _ in range(10):
        n, m = int(rng.integers(4, 12)), int(rng.integers(10, 200))
        g = rng.standard_normal((n, n))
        yield QmapInstance(a_matrix=g.T @ g, b_vector=rng.uniform(0.0, 1.0, n),
                           c_vector=rng.uniform(0.0, 5.0, n),
                           q=float(rng.uniform(0.01, 1.0)) / m, m=m)


MARKET_KINDS = ("uncapped", "capped", "rank_deficient", "degenerate")


class TestZeroWeightShortcut:
    # w*_i = 0 keeps the full optimum feasible with offer i pinned, and
    # pinning can only lower the optimum: the pinned optimum is the full one

    @staticmethod
    def assert_exact(schedule):
        alloc = schedule.allocation
        zero = np.flatnonzero(alloc.weights == 0.0)
        for i in zero:
            assert schedule.offer_prices[i] == 0.0
            assert schedule.restricted_objectives[i] == alloc.objective_value
        return zero.size

    @pytest.mark.parametrize("kind", MARKET_KINDS)
    def test_price_schedule_is_exact(self, kind):
        rng = np.random.default_rng(53)
        unpriced = 0
        for market in _shortcut_markets(rng, kind):
            schedule = price_schedule(market)
            if kind == "degenerate":
                assert schedule.allocation.degenerate
            unpriced += self.assert_exact(schedule)
            for i in np.flatnonzero(schedule.allocation.weights == 0.0):
                assert price_offer(market, schedule.allocation, i) == 0.0
        assert unpriced > 0

    def test_qmap_prices_are_exact(self):
        rng = np.random.default_rng(59)
        assert sum(self.assert_exact(qmap_prices(inst))
                   for inst in _qmap_instances(rng)) > 0

    @pytest.mark.parametrize("kind", MARKET_KINDS + ("qmap",))
    def test_shortcut_matches_a_forced_pinned_solve(self, kind):
        rng = np.random.default_rng(61)
        if kind == "qmap":
            cases = [(qmap_prices(inst), qmap_problem(inst), inst.c_vector, inst.m)
                     for inst in _qmap_instances(rng)]
        else:
            cases = [(price_schedule(market), market_problem(market), market.mu, 1.0)
                     for market in _shortcut_markets(rng, kind)]
        checked = 0
        for schedule, problem, values, mass in cases:
            tol = 1e-12 * float(np.max(np.abs(values))) * mass
            for i in np.flatnonzero(schedule.allocation.weights == 0.0):
                forced = solve(replace(problem, zero_set=frozenset({int(i)})))
                assert abs(forced.objective_value
                           - schedule.restricted_objectives[i]) <= tol
                checked += 1
        assert checked > 0

    def test_one_eigendecomposition_per_problem_family(self, monkeypatch):
        # full-size eigvalsh calls in one schedule: the allocation's solve
        # and the pinned family's shared spectrum, whatever n and however
        # many offers carry weight
        real_eigvalsh = np.linalg.eigvalsh
        rng = np.random.default_rng(67)
        counts = []
        for n in (8, 30, 90):
            market = market_from_mu(rng.uniform(1.0, 1.5, n),
                                    np.diag(rng.uniform(0.5, 1.5, n)), 5.0, 1000)
            calls = []

            def counting(a, *args, **kwargs):
                if np.shape(a) == (n, n):
                    calls.append(n)
                return real_eigvalsh(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            schedule = price_schedule(market)
            monkeypatch.setattr(np.linalg, "eigvalsh", real_eigvalsh)
            assert np.count_nonzero(schedule.allocation.weights) >= n // 2
            counts.append(len(calls))
        assert max(counts) <= 3
        assert len(set(counts)) == 1
