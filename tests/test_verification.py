import dataclasses

import numpy as np
import pytest

from portfolio_vcg import (
    Offer,
    allocate,
    brute_force_allocate,
    check_individual_rationality,
    check_second_price_limit,
    check_truthfulness,
    make_market,
    market_from_mu,
    price_offer,
    price_schedule,
    random_market,
    run_ir_suite,
    run_oracle_suite,
    run_property_suite,
    run_second_price_suite,
    run_truthfulness_suite,
    utility,
)
from portfolio_vcg import verification


@pytest.fixture(scope="module")
def fixture_market():
    return market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)


@pytest.fixture(scope="module")
def fixture_schedule(fixture_market):
    return price_schedule(fixture_market)


class TestUtility:
    def test_fixture_utilities(self, fixture_market, fixture_schedule):
        assert utility(fixture_market, fixture_schedule, 0) == \
            pytest.approx(0.36, abs=1e-9)
        assert utility(fixture_market, fixture_schedule, 1) == \
            pytest.approx(0.16, abs=1e-9)

    def test_second_price_utilities(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        schedule = price_schedule(market)
        assert utility(market, schedule, 0) == pytest.approx(1.0, abs=1e-9)
        assert utility(market, schedule, 1) == pytest.approx(0.0, abs=1e-9)

    def test_non_pivotal_loser_has_zero_utility(self):
        market = market_from_mu([1.0, 0.8, 0.0],
                                np.diag([1.0, 1.0, 100.0]), 0.5, 100)
        schedule = price_schedule(market)
        assert utility(market, schedule, 2) == pytest.approx(0.0, abs=1e-9)

    def test_index_out_of_range(self, fixture_market, fixture_schedule):
        with pytest.raises(IndexError):
            utility(fixture_market, fixture_schedule, 5)


class TestTruthfulness:
    def test_overstating_hurts_the_deviator(self, fixture_market,
                                            fixture_schedule):
        # reporting mu1 + 0.2 moves the allocation to (0.7, 0.3); the true
        # payoff drops from 0.36 to 0.35
        report = check_truthfulness(fixture_market, 0, [0.2],
                                    schedule=fixture_schedule)
        assert report.trials == 1
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.01, abs=1e-9)

    def test_truthful_report_is_neutral(self, fixture_market,
                                        fixture_schedule):
        report = check_truthfulness(fixture_market, 0, [0.0],
                                    schedule=fixture_schedule)
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_overbidding_to_win_goes_negative(self):
        # classic second-price overbid: paying the winner's value to win
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        schedule = price_schedule(market)
        report = check_truthfulness(market, 1, [1.5], schedule=schedule)
        assert report.violations == 0
        # u_truth = 0, u_dev = 1 - 2 = -1, so the margin is 1
        assert report.worst_margin == pytest.approx(1.0, abs=1e-9)

    def test_negative_reported_value_rejected(self, fixture_market):
        with pytest.raises(ValueError, match="below zero"):
            check_truthfulness(fixture_market, 0, [-2.0])

    def test_per_response_bidder_deviates_through_its_bid(self):
        offers = [Offer("a", 10.0, "per_response", 0.1), Offer("b", 0.8)]
        market = make_market(offers, np.eye(2), 0.5, 1000)
        report = check_truthfulness(market, 0, [0.2, -0.2, 1.0])
        assert report.trials == 3
        assert report.violations == 0

    def test_many_deviations_single_market(self, fixture_market,
                                           fixture_schedule):
        deltas = np.linspace(-0.9, 4.0, 25)
        report = check_truthfulness(fixture_market, 0, deltas,
                                    schedule=fixture_schedule)
        assert report.trials == 25
        assert report.violations == 0
        assert report.worst_margin >= -1e-9

    def test_at_most_one_eigendecomposition_per_deviation(self, monkeypatch):
        # a deviation changes one offer's value: the market keeps its
        # validated Sigma and spectrum, so neither the deviated allocation
        # nor the pinned solve decomposes Sigma again
        rng = np.random.default_rng(103)
        market = random_market(rng, n=6, q=1.0)
        schedule = price_schedule(market)
        deltas = [-0.5 * float(market.mu[2]), 0.3, 2.0]
        real = np.linalg.eigvalsh
        calls = []

        def counting(a, *args, **kwargs):
            if np.shape(a) == (6, 6):
                calls.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = check_truthfulness(market, 2, deltas, schedule=schedule)
        monkeypatch.setattr(np.linalg, "eigvalsh", real)
        assert len(calls) <= len(deltas)
        # the margins are those of rebuilding and re-pricing each deviation
        margins = []
        for delta in deltas:
            offers = list(market.offers)
            offers[2] = Offer(offers[2].id, float(market.mu[2]) + delta)
            deviated = make_market(offers, market.sigma, market.q,
                                   market.pool_size)
            alloc = allocate(deviated)
            u_dev = float(alloc.weights[2] * market.mu[2]) \
                - price_offer(deviated, alloc, 2)
            margins.append(utility(market, schedule, 2) - u_dev)
        assert report.worst_margin == pytest.approx(min(margins), abs=1e-12)


class TestIndividualRationality:
    def test_fixture_passes(self, fixture_market, fixture_schedule):
        report = check_individual_rationality(fixture_market,
                                              schedule=fixture_schedule)
        assert report.trials == 2
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.16, abs=1e-9)

    def test_second_price_passes(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        report = check_individual_rationality(market)
        assert report.violations == 0
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)


class TestSecondPriceLimit:
    def test_two_offers(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        report = check_second_price_limit(market)
        assert report.trials == 1
        assert report.violations == 0

    def test_three_offers_price_is_second_value(self):
        market = market_from_mu([5.0, 4.0, 3.0], np.eye(3), 0.0, 100)
        schedule = price_schedule(market)
        np.testing.assert_allclose(schedule.offer_prices, [4.0, 0.0, 0.0],
                                   atol=1e-9)
        report = check_second_price_limit(market)
        assert report.violations == 0

    def test_tied_market_is_skipped(self):
        market = market_from_mu([2.0, 2.0, 1.0], np.eye(3), 0.0, 100)
        report = check_second_price_limit(market)
        assert report.skipped == 1
        assert report.trials == 0

    def test_risk_averse_market_rejected(self, fixture_market):
        with pytest.raises(ValueError, match="q = 0"):
            check_second_price_limit(fixture_market)


class TestBruteForce:
    def test_fixture_lattice_optimum(self, fixture_market):
        oracle = brute_force_allocate(fixture_market, 1e-4)
        assert oracle.objective_value == pytest.approx(0.66, abs=1e-4)

    def test_risk_neutral_lattice_optimum_is_a_vertex(self):
        market = market_from_mu([2.0, 1.0], np.eye(2), 0.0, 100)
        oracle = brute_force_allocate(market, 1e-2)
        np.testing.assert_allclose(oracle.weights, [1.0, 0.0], atol=0)

    def test_symmetric_three_asset_centre(self):
        market = market_from_mu([1.0, 1.0, 1.0], np.eye(3), 1.0, 100)
        oracle = brute_force_allocate(market, 1e-2)
        np.testing.assert_allclose(oracle.weights, [1 / 3, 1 / 3, 1 / 3],
                                   atol=1e-2)

    def test_lattice_is_built_once_and_read_only(self):
        lattice = verification._simplex_lattice(3, 10)
        assert verification._simplex_lattice(3, 10) is lattice
        assert not lattice.flags.writeable
        assert lattice.shape == (66, 3) and np.all(lattice.sum(axis=1) == 10)
        assert len({tuple(row) for row in lattice}) == 66 and lattice.min() == 0

    def test_large_markets_rejected(self):
        market = market_from_mu([1.0] * 5, np.eye(5), 1.0, 100)
        with pytest.raises(ValueError, match="n <= 4"):
            brute_force_allocate(market, 1e-2)

    def test_absurd_resolution_rejected(self):
        market = market_from_mu([1.0] * 4, np.eye(4), 1.0, 100)
        with pytest.raises(ValueError, match="lattice"):
            brute_force_allocate(market, 1e-4)


class TestGenerators:
    def test_random_market_is_reproducible(self):
        a = random_market(np.random.default_rng(99))
        b = random_market(np.random.default_rng(99))
        np.testing.assert_array_equal(a.mu, b.mu)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        assert a.q == b.q

    def test_random_market_is_valid(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            market = random_market(rng)
            assert market.mu is not None
            assert 2 <= market.n <= 6

    def test_normalized_sigma_has_unit_spectral_norm(self):
        market = random_market(np.random.default_rng(5), normalize_sigma=True)
        assert np.linalg.eigvalsh(market.sigma)[-1] == pytest.approx(1.0,
                                                                     abs=1e-9)


class TestSuites:
    def test_truthfulness_suite_reproducible(self):
        a = run_truthfulness_suite(trials=40, seed=7)
        b = run_truthfulness_suite(trials=40, seed=7)
        assert a.trials == b.trials == 40
        assert a.violations == b.violations == 0
        assert a.worst_margin == b.worst_margin
        assert a.seed == 7

    def test_ir_suite_small_run(self):
        report = run_ir_suite(trials=50, seed=11)
        assert report.trials == 50
        assert report.violations == 0
        assert report.restriction_violations == 0

    def test_second_price_suite_small_run(self):
        report = run_second_price_suite(trials=50, seed=13)
        assert report.trials == 50
        assert report.violations == 0

    def test_oracle_suite_small_run(self):
        report = run_oracle_suite(trials=10, seed=17)
        assert report.trials == 10
        assert report.violations == 0
        assert report.worst_margin >= -1e-4

    def test_dispatch_by_name(self):
        reports = run_property_suite("ir", trials=10, seed=3)
        assert len(reports) == 1
        assert reports[0].property == "individual_rationality"

    def test_dispatch_all(self):
        reports = run_property_suite("all", trials=5, seed=3)
        assert {r.property for r in reports} == {
            "truthfulness", "individual_rationality", "second_price_limit",
            "oracle_agreement"}

    def test_zero_trials_is_vacuous(self):
        reports = run_property_suite("all", trials=0, seed=3)
        assert all(r.trials == 0 and r.passed for r in reports)
        # the reports are named as at any other trial count
        assert [r.property for r in reports] == \
            [r.property for r in run_property_suite("all", trials=1, seed=3)]

    def test_truthfulness_suite_counts_each_schedule_once(self, monkeypatch):
        # every truthful schedule gets a pinned optimum above the full one;
        # the suite counts one restriction violation per priced market,
        # not one more for each bidder it then deviates
        schedules = []
        real = verification.price_schedule

        def violated(market):
            schedule = real(market)
            pinned = schedule.restricted_objectives.copy()
            pinned[0] = schedule.allocation.objective_value + 1.0
            schedules.append(dataclasses.replace(schedule, restricted_objectives=pinned))
            return schedules[-1]

        monkeypatch.setattr(verification, "price_schedule", violated)
        report = run_truthfulness_suite(trials=10, seed=7)
        assert report.trials == 10 and len(schedules) >= 2
        assert report.restriction_violations == len(schedules)

    def test_passing_trials_build_no_counterexample(self, monkeypatch):
        def refuse(market):
            raise AssertionError("a passing trial built its counterexample")

        monkeypatch.setattr(verification, "_market_summary", refuse)
        report = run_ir_suite(trials=20, seed=11)
        assert report.passed and report.counterexamples == ()

    def test_unknown_property_rejected(self):
        with pytest.raises(ValueError, match="unknown property"):
            run_property_suite("collusion", trials=5)
