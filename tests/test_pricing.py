from dataclasses import replace

import numpy as np
import pytest

from portfolio_vcg import (
    Offer,
    check_truthfulness,
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
from portfolio_vcg import allocation, qp
from portfolio_vcg import market as market_module
from portfolio_vcg.allocation import market_problem, qmap_problem, solve_allocation
from portfolio_vcg.pricing import _vcg_prices
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

    @staticmethod
    def face_p(market, weights) -> np.ndarray:
        """diag(P), P the top-left block of K^-1 for the bordered KKT
        matrix K of the optimum's face (every offer carries weight here)."""
        n = market.n
        assert np.all(weights > 0.0)
        K = np.zeros((n + 1, n + 1))
        K[:n, :n] = 2.0 * market.q * market.sigma
        K[:n, n] = K[n, :n] = 1.0
        return np.diag(np.linalg.inv(K))[:n]

    @pytest.mark.parametrize("third", (False, True))
    def test_paid_offer_has_the_smallest_p_ii(self, third):
        # pinning offer i lowers the optimum by w_i^2 / (2 P_ii), so
        # p_i = w_i mu_i - w_i^2 / (2 P_ii): the hedge is costly to remove
        # and pays least.  On the two-offer fixture both offers are paid
        # and P_11 = P_22; a third offer, correlated with the first, leaves
        # the hedge the only paid offer, with the strictly smallest P_ii.
        mu, sigma = self.MU, self.SIGMA
        if third:
            mu = self.MU + [0.9]
            sigma = np.array([[1.0, -0.9, 0.2], [-0.9, 1.0, 0.0], [0.2, 0.0, 1.0]])
        market = market_from_mu(mu, sigma, self.Q, 1000)
        schedule = price_schedule(market)
        w = schedule.allocation.weights
        P = self.face_p(market, w)
        np.testing.assert_allclose(schedule.offer_prices,
                                   w * market.mu - w ** 2 / (2.0 * P),
                                   rtol=0, atol=1e-12)
        paid = np.flatnonzero(schedule.offer_prices < 0)
        assert 1 in paid
        assert np.all(P[paid] <= P.min() * (1.0 + 1e-12))
        if third:
            assert paid.tolist() == [1]
            assert P[1] < np.delete(P, 1).min()


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

    def test_caps_that_do_not_bind_leave_prices_unchanged(self):
        # caps of 1.5, above the mass of 1, against no caps: the capped and
        # uncapped routes of the greedy fill, the projection, the active set,
        # the pinned family and the degeneracy flag reach the same answer
        rng = np.random.default_rng(233)
        for trial in range(100):
            n = int(rng.integers(2, 21))
            mu = rng.uniform(0.0, 5.0, n)
            if trial % 3 == 0:
                mu = np.round(mu)   # ties
            g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            sigma = g.T @ g + (1e-6 * np.eye(n) if trial % 2 else 0.0)
            q = 0.0 if trial % 5 == 0 else \
                float(np.exp(rng.uniform(np.log(1e-3), np.log(10))))
            plain = price_schedule(market_from_mu(mu, sigma, q))
            capped = price_schedule(market_from_mu(mu, sigma, q, caps=np.full(n, 1.5)))
            tol = 1e-12 * float(np.max(mu))
            np.testing.assert_allclose(capped.offer_prices, plain.offer_prices,
                                       rtol=0, atol=tol)
            assert abs(capped.risk_charge - plain.risk_charge) <= tol
            assert capped.allocation.degenerate == plain.allocation.degenerate


class TestAddedOffer:
    def test_offer_without_weight_anywhere_leaves_the_other_prices(self):
        # an uncorrelated offer worth at most half the smallest mu, with 1-10
        # times the largest variance: where it carries no weight in the full
        # optimum nor in any pinned one, every optimum and so every other
        # price is unchanged.  Each optimum is certified to KKT_TOL only,
        # hence the bound (worst gap 1.4e-12 of max mu).
        rng = np.random.default_rng(19)
        qualified = 0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            mu = rng.uniform(0.0, 5.0, n)
            g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            sigma = g.T @ g + 1e-6 * np.eye(n)
            q = float(np.exp(rng.uniform(np.log(1e-3), np.log(10))))
            caps = rng.uniform(1.0 / (n - 1), 1.0, n) if rng.uniform() < 0.4 else None
            wide_sigma = np.zeros((n + 1, n + 1))
            wide_sigma[:n, :n] = sigma
            wide_sigma[n, n] = rng.uniform(1.0, 10.0) * float(np.diag(sigma).max())
            wide = market_from_mu(np.append(mu, rng.uniform(0.0, 0.5) * mu.min()),
                                  wide_sigma, q,
                                  caps=None if caps is None else np.append(caps, 1.0))
            problem = market_problem(wide)
            if solve(problem).weights[n] != 0.0 or any(
                    solve(problem.pinned(i)).weights[n] != 0.0 for i in range(n)):
                continue
            qualified += 1
            plain = price_schedule(market_from_mu(mu, sigma, q, caps=caps))
            added = price_schedule(wide)
            tol = qp.KKT_TOL * float(np.max(mu))
            np.testing.assert_allclose(added.offer_prices[:n], plain.offer_prices,
                                       rtol=0, atol=tol)
            assert abs(added.risk_charge - plain.risk_charge) <= tol
        assert qualified >= 50


def permuted_market(seed: int) -> tuple:
    """(mu, sigma, q, caps, permutation) of a market of 2-50 offers with a
    low-rank factor covariance plus a diagonal and q log-uniform on
    [1e-3, 100]; odd seeds are capped, with every pinned market feasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 51))
    mu = rng.uniform(0.0, 5.0, n)
    g = rng.standard_normal((max(1, n // 3), n)) / np.sqrt(n)
    sigma = g.T @ g + np.diag(rng.uniform(0.05, 1.0, n))
    q = float(np.exp(rng.uniform(np.log(1e-3), np.log(100.0))))
    caps = None
    if seed % 2:
        caps = rng.uniform(1.5 / n, 4.0 / n, n)
        caps *= max(1.0, 1.05 / (caps.sum() - caps.max()))
    return mu, sigma, q, caps, rng.permutation(n)


class TestOfferOrder:
    def test_permuting_the_offers_permutes_the_prices(self):
        # the optima agree to rounding, and so do the weights: the tie-break
        # acts only on a flat face, where the optimum is not unique, so it
        # does not move a unique optimum with the offers' order (worst gap
        # 4.6e-15 of max mu)
        for seed in range(300):
            mu, sigma, q, caps, perm = permuted_market(seed)
            plain = price_schedule(market_from_mu(mu, sigma, q, caps=caps))
            moved = price_schedule(market_from_mu(
                mu[perm], sigma[np.ix_(perm, perm)], q,
                caps=None if caps is None else caps[perm]))
            tol = 1e-12 * float(np.max(mu))
            np.testing.assert_allclose(moved.offer_prices, plain.offer_prices[perm],
                                       rtol=0, atol=tol, err_msg=f"seed {seed}")
            assert abs(moved.risk_charge - plain.risk_charge) <= tol

    def test_near_collinear_tied_offers_pay_alike(self):
        # two offers with tied mu whose returns correlate at 1 - gap: each
        # market is its own permutation, so the two prices must agree.  The
        # optimum (1/2, 1/2) is unique, but its face's sum-zero curvature h
        # (at unit gradient scale) is small, and the proximal term leaves the
        # weights, and so the prices, about 1e-14 / h apart (gap times h from
        # 1e-14 to 2e-14 measured); a tilt of every problem's linear term by
        # LEX_EPS max|c| put them up to 5e-13 / h apart
        for gap in (1e-5, 1e-6, 1e-7, 1e-8):
            sigma = np.array([[1.0, 1.0 - gap], [1.0 - gap, 1.0]])
            for q in (0.01, 1.0, 100.0):
                market = market_from_mu([1.0, 1.0], sigma, q)
                h = 2.0 * q * gap / market_problem(market)._scale
                prices = price_schedule(market).offer_prices
                assert abs(prices[0] - prices[1]) <= 1e-13 / h, (gap, q)


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

    @staticmethod
    def forced_solve_gaps(kind, weighted):
        """Each pinned optimum of the schedule minus a forced cold solve of
        the pinned problem, relative to max|values| x mass, over the offers
        with (``weighted``) or without weight."""
        rng = np.random.default_rng(61)
        if kind == "qmap":
            cases = [(qmap_prices(inst), qmap_problem(inst), inst.c_vector, inst.m)
                     for inst in _qmap_instances(rng)]
        else:
            cases = [(price_schedule(market), market_problem(market), market.mu, 1.0)
                     for market in _shortcut_markets(rng, kind)]
        gaps = []
        for schedule, problem, values, mass in cases:
            scale = float(np.max(np.abs(values))) * mass
            offers = (schedule.allocation.weights != 0.0) == weighted
            for i in np.flatnonzero(offers):
                forced = solve(replace(problem, zero_set=frozenset({int(i)})))
                gaps.append(abs(forced.objective_value
                                - schedule.restricted_objectives[i]) / scale)
        return gaps

    @pytest.mark.parametrize("kind", MARKET_KINDS + ("qmap",))
    def test_shortcut_matches_a_forced_pinned_solve(self, kind):
        gaps = self.forced_solve_gaps(kind, weighted=False)
        assert gaps and max(gaps) <= 1e-12

    @pytest.mark.parametrize("kind", MARKET_KINDS + ("qmap",))
    def test_warm_pinned_solve_matches_a_forced_cold_solve(self, kind):
        # the warm start keeps the full optimum's face; the optimum it
        # reaches is the cold one
        gaps = self.forced_solve_gaps(kind, weighted=True)
        assert gaps and max(gaps) <= 1e-12

    @staticmethod
    def eigvalsh_shapes(monkeypatch) -> list:
        """Record the shape of every eigvalsh call from here on."""
        real, shapes = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return shapes

    def test_psd_market_makes_no_full_size_eigvalsh(self, monkeypatch):
        # building and pricing one market: the PSD check of validation
        # factors Sigma, and the allocation and the pinned family share one
        # problem that reuses the scan's eigenvalue bound, whatever n and
        # however many offers carry weight
        shapes = self.eigvalsh_shapes(monkeypatch)
        rng = np.random.default_rng(67)
        for n in (8, 30, 90):
            mu = rng.uniform(1.0, 1.5, n)
            sigma = np.diag(rng.uniform(0.5, 1.5, n))
            shapes.clear()
            schedule = price_schedule(market_from_mu(mu, sigma, 5.0, 1000))
            assert np.count_nonzero(schedule.allocation.weights) >= n // 2
            assert (n, n) not in shapes

    def test_non_psd_data_makes_one_full_size_eigvalsh(self, monkeypatch):
        # a failed factorization falls back to one eigvalsh, whose minimum
        # eigenvalue the diagnostic names
        shapes = self.eigvalsh_shapes(monkeypatch)
        rng = np.random.default_rng(151)
        for n in (8, 30, 90):
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
            values = rng.uniform(0.5, 1.5, n)
            values[n // 2] = -0.1
            raw = basis @ np.diag(values) @ basis.T
            sigma = 0.5 * (raw + raw.T)
            lowest = float(np.linalg.eigvalsh(sigma)[0])
            shapes.clear()
            with pytest.raises(market_module.MarketValidationError) as err:
                market_from_mu(rng.uniform(1.0, 1.5, n), sigma, 5.0, 1000)
            assert shapes == [(n, n)]
            assert err.value.diagnostics == [(
                "not_positive_semidefinite",
                f"covariance has min eigenvalue {lowest:.6g}; "
                "input is rejected, not repaired")]
            shapes.clear()
            with pytest.raises(QmapValidationError) as err:
                qmap_prices(QmapInstance(a_matrix=sigma, b_vector=np.zeros(n),
                                         c_vector=np.ones(n), q=0.1, m=100))
            assert shapes == [(n, n)]
            assert err.value.diagnostics == [(
                "not_positive_semidefinite", f"A has min eigenvalue {lowest:.6g}")]

    def test_one_check_of_the_data_per_market(self, monkeypatch):
        # make_market checks each offer once and scans Sigma once; the kernel
        # problems share the market's arrays and its validation, so pricing
        # the market, and a truthfulness deviation, scan Sigma no more
        real_problems, real_scan = market_module.offer_problems, qp.quadratic_scan
        checked, scans = [], []

        def counting_problems(offer):
            checked.append(offer.id)
            return real_problems(offer)

        def counting_scan(matrix):
            scans.append(matrix.shape)
            return real_scan(matrix)

        monkeypatch.setattr(market_module, "offer_problems", counting_problems)
        for module in (market_module, allocation, qp):
            monkeypatch.setattr(module, "quadratic_scan", counting_scan)
        rng = np.random.default_rng(71)
        for n in (8, 30, 90):
            offers = [Offer(f"o{i}", float(v)) if i % 2 else
                      Offer(f"o{i}", float(v) / 0.5, "per_response", 0.5)
                      for i, v in enumerate(rng.uniform(1.0, 1.5, n))]
            sigma = np.diag(rng.uniform(0.5, 1.5, n))
            checked.clear()
            scans.clear()
            market = make_market(offers, sigma, 5.0, 1000)
            schedule = price_schedule(market)
            assert sorted(checked) == sorted(offer.id for offer in offers)
            assert scans == [(n, n)]
            problem = schedule.allocation.problem
            assert np.shares_memory(problem.quadratic, market.sigma)
            assert np.shares_memory(problem.linear, market.mu)
            deltas = [-0.2, 0.1, 0.3]
            checked.clear()
            report = check_truthfulness(market, 1, deltas, schedule=schedule)
            assert report.trials == len(deltas) and report.violations == 0
            assert scans == [(n, n)]
            assert len(checked) == len(deltas)   # the deviating offer alone

    def test_psd_qmap_schedule_makes_no_full_size_eigvalsh(self, monkeypatch):
        # validate_qmap's PSD check factors A, and the kernel problem reuses
        # the scan's eigenvalue bound
        shapes = self.eigvalsh_shapes(monkeypatch)
        rng = np.random.default_rng(131)
        for n in (8, 30, 90):
            g = rng.standard_normal((n, n))
            instance = QmapInstance(a_matrix=g.T @ g / n, b_vector=rng.uniform(0.0, 1.0, n),
                                    c_vector=rng.uniform(4.0, 5.0, n), q=0.1 / 5000,
                                    m=5000)
            shapes.clear()
            schedule = qmap_prices(instance)
            assert np.count_nonzero(schedule.allocation.weights) >= 2
            assert (n, n) not in shapes


def _unit_markets(rng):
    """20 markets of 30 offers, every second one capped at 1.5/n."""
    n = 30
    for k in range(20):
        mu = rng.uniform(4.0, 5.0, n)
        f = rng.standard_normal((n, 3)) * (2.0 / np.sqrt(n))
        sigma = f @ f.T + np.diag(rng.uniform(0.5, 1.5, n))
        sigma /= np.linalg.eigvalsh(sigma)[-1]
        yield mu, sigma, (np.full(n, 1.5 / n) if k % 2 else None)


class TestCurrencyUnit:
    def test_prices_scale_with_the_unit(self):
        # the same markets in a unit s: mu s, Sigma s^2, q / s; every
        # objective and price scales by s
        gaps = {}
        for mu, sigma, caps in _unit_markets(np.random.default_rng(127)):
            base = price_schedule(market_from_mu(mu, sigma, 100.0, 1000, caps=caps))
            assert np.count_nonzero(base.allocation.weights) >= 10
            for s in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                scaled = price_schedule(market_from_mu(mu * s, sigma * s * s, 100.0 / s,
                                                       1000, caps=caps))
                gap = np.max(np.abs(scaled.offer_prices / s - base.offer_prices))
                gaps[s] = max(gaps.get(s, 0.0), float(gap) / float(np.max(mu)))
        assert max(gaps.values()) <= 1e-10, gaps


def _dense_capped_market(seed, n=60):
    """Capped market where nearly every offer carries weight and about a
    third sit at their cap: mu ~ U[4, 5], low-rank-plus-diagonal Sigma
    scaled to unit norm, q = 100, caps 1.5/n."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(4.0, 5.0, n)
    f = rng.standard_normal((n, 3)) * (2.0 / np.sqrt(n))
    sigma = f @ f.T + np.diag(rng.uniform(0.5, 1.5, n))
    sigma /= np.linalg.eigvalsh(sigma)[-1]
    return market_from_mu(mu, sigma, 100.0, 1000, caps=np.full(n, 1.5 / n))


class TestPinnedFamily:
    def test_warm_start_keeps_the_full_optimums_face(self, monkeypatch):
        # 60 weighted offers, 22 at their cap: the family takes 42
        # working-set changes in all; a start that handed the pinned
        # offer's mass out greedily by gradient took 117, mostly releasing
        # caps it had just set
        market = _dense_capped_market(73)
        problem, alloc = market_problem(market), allocate(market)
        weighted = np.flatnonzero(alloc.weights)
        assert weighted.size == 60
        assert np.count_nonzero(alloc.weights == market.caps) == 22
        calls, real = [], qp._face_family
        monkeypatch.setattr(qp, "_face_family",
                            lambda *args: calls.append(args) or real(*args))
        qp.solve_pinned_family(problem, weighted, alloc.weights)
        (args,) = calls
        assert real(*args)[1].all()   # no row falls back to a single solve
        # a budget of b changes leaves unfinished each row that needs more
        # than b, so the rows left, summed over b, are the changes in all
        total = budget = 0
        while True:
            monkeypatch.setattr(qp, "MAX_ITERATIONS", budget)
            left = int(np.count_nonzero(~real(*args)[1]))
            if not left:
                break
            total, budget = total + left, budget + 1
        assert total < 117

    def test_cold_start_is_one_step_from_the_optimum(self):
        # the same market's allocation: one projected-gradient step off the
        # greedy vertex leaves it 1 working-set change from the optimum; the
        # greedy vertex itself, 39 offers at their cap, took 45
        problem = market_problem(_dense_capped_market(73))
        assert solve(problem).iterations < 45

    def test_pricing_the_family_makes_no_spectral_call(self, monkeypatch):
        # the allocation validated the shared problem, and pricing reads no
        # pinned solve's degenerate flag: no eigvalsh or qr of any size
        market = _dense_capped_market(79, n=20)
        problem = market_problem(market)
        alloc = solve_allocation(problem, market.pool_size)
        assert np.count_nonzero(alloc.weights) >= 10
        calls = []
        for name in ("eigvalsh", "qr"):
            real = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, np.shape(a)))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        prices, _ = _vcg_prices(problem, alloc, market.mu)
        assert calls == []
        assert np.count_nonzero(prices) >= 10
