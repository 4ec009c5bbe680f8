import numpy as np
import pytest

from portfolio_vcg import (
    MarketInstance,
    MarketValidationError,
    Offer,
    expected_value,
    make_market,
    market_from_mu,
    validate_market,
)
from portfolio_vcg.market import replace_offer


class TestExpectedValue:
    def test_per_response_is_bid_times_rate(self):
        assert expected_value(Offer("a", 2.0, "per_response", 0.5)) == 1.0

    def test_per_ad_call_is_the_bid(self):
        assert expected_value(Offer("a", 3.0, "per_ad_call")) == 3.0

    def test_zero_rate_gives_zero_value(self):
        assert expected_value(Offer("a", 2.0, "per_response", 0.0)) == 0.0

    def test_missing_response_rate_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            expected_value(Offer("a", 2.0, "per_response"))
        assert any(code == "missing_response_rate"
                   for code, _ in err.value.diagnostics)

    def test_negative_bid_rejected(self):
        with pytest.raises(MarketValidationError):
            expected_value(Offer("a", -1.0))

    def test_rate_above_one_rejected(self):
        with pytest.raises(MarketValidationError):
            expected_value(Offer("a", 1.0, "per_response", 1.5))

    def test_monotone_in_bid_and_rate(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            bid_lo, bid_hi = np.sort(rng.uniform(0, 10, 2))
            rate_lo, rate_hi = np.sort(rng.uniform(0, 1, 2))
            lo = expected_value(Offer("x", bid_lo, "per_response", rate_lo))
            hi_bid = expected_value(Offer("x", bid_hi, "per_response", rate_lo))
            hi_rate = expected_value(Offer("x", bid_lo, "per_response", rate_hi))
            assert hi_bid >= lo
            assert hi_rate >= lo


class TestValidateMarket:
    def test_valid_market_gets_mu(self):
        offers = (Offer("a", 1.0), Offer("b", 4.0, "per_response", 0.2))
        market = validate_market(MarketInstance(
            offers=offers, sigma=np.eye(2), q=0.5, pool_size=100))
        np.testing.assert_allclose(market.mu, [1.0, 0.8])
        assert market.n == 2

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)],
                        [[1.0, 0.5], [0.4, 1.0]], 0.5, 100)
        codes = [code for code, _ in err.value.diagnostics]
        assert "asymmetric_covariance" in codes
        # the diagnostic names the offending entries
        message = dict(err.value.diagnostics)["asymmetric_covariance"]
        assert "sigma[0][1]" in message or "sigma[1][0]" in message

    def test_indefinite_covariance_rejected(self):
        # eigenvalues of [[1, 2], [2, 1]] are 1 +/- 2 = {3, -1}
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)],
                        [[1.0, 2.0], [2.0, 1.0]], 0.5, 100)
        message = dict(err.value.diagnostics)["not_positive_semidefinite"]
        assert "-1" in message  # min eigenvalue is reported

    def test_single_offer_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0)], [[1.0]], 0.5, 100)
        assert any(code == "too_few_offers" for code, _ in err.value.diagnostics)

    def test_negative_risk_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)], np.eye(2), -0.1, 100)
        assert any(code == "negative_risk_parameter"
                   for code, _ in err.value.diagnostics)

    def test_bad_pool_size_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)], np.eye(2), 0.5, 0)
        assert any(code == "invalid_pool_size" for code, _ in err.value.diagnostics)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)], np.eye(3), 0.5, 100)
        assert any(code == "dimension_mismatch" for code, _ in err.value.diagnostics)

    def test_every_violation_is_reported(self):
        # one offer, asymmetric sigma of the wrong size, q < 0, bad pool
        with pytest.raises(MarketValidationError) as err:
            validate_market(MarketInstance(
                offers=(Offer("a", -1.0),),
                sigma=np.array([[1.0, 0.5], [0.4, 1.0]]),
                q=-1.0,
                pool_size=-5,
            ))
        codes = {code for code, _ in err.value.diagnostics}
        assert {"too_few_offers", "negative_bid", "dimension_mismatch",
                "negative_risk_parameter", "invalid_pool_size"} <= codes

    def test_infeasible_caps_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)], np.eye(2), 0.5, 100,
                        caps=[0.3, 0.3])
        assert any(code == "infeasible_caps" for code, _ in err.value.diagnostics)

    def test_caps_infeasible_without_one_offer_name_it(self):
        # feasible as a whole, but pricing "b" pins it and leaves 0.95 < 1
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 2.0), Offer("c", 0.5)],
                        np.eye(3), 0.5, 100, caps=[0.05, 0.9, 0.1])
        assert [code for code, _ in err.value.diagnostics] == \
            ["infeasible_without_offer"]
        assert "'b'" in err.value.diagnostics[0][1]

    def test_duplicate_offer_ids_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("a", 2.0)], np.eye(2), 0.5, 100)
        assert any(code == "duplicate_offer_id"
                   for code, _ in err.value.diagnostics)

    def test_per_ad_call_with_foreign_rate_rejected(self):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0, "per_ad_call", 0.5), Offer("b", 1.0)],
                        np.eye(2), 0.5, 100)
        assert any(code == "response_rate_conflicts_with_basis"
                   for code, _ in err.value.diagnostics)

    def test_accepted_market_satisfies_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            mu = rng.uniform(0, 5, n)
            g = rng.standard_normal((n, n))
            market = market_from_mu(mu, g.T @ g + 1e-6 * np.eye(n),
                                    float(rng.uniform(0, 3)), 500)
            assert np.all(market.mu >= 0)
            assert market.n >= 2
            np.testing.assert_allclose(market.sigma, market.sigma.T, atol=1e-10)

    def test_instances_are_immutable(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 100)
        with pytest.raises(ValueError):
            market.sigma[0, 0] = 5.0
        with pytest.raises(ValueError):
            market.mu[0] = 5.0
        assert isinstance(market.offers, tuple)


class TestReplaceOffer:
    def test_matches_a_rebuilt_market(self):
        offers = [Offer("a", 1.0), Offer("b", 10.0, "per_response", 0.1),
                  Offer("c", 0.5)]
        market = make_market(offers, np.eye(3), 0.5, 100, caps=[0.6, 0.6, 0.6])
        new = Offer("b", 20.0, "per_response", 0.1)
        changed = replace_offer(market, 1, new)
        rebuilt = make_market([offers[0], new, offers[2]], np.eye(3), 0.5, 100,
                              caps=[0.6, 0.6, 0.6])
        assert changed.offers == rebuilt.offers
        np.testing.assert_array_equal(changed.mu, rebuilt.mu)
        np.testing.assert_array_equal(changed.mu, [1.0, 2.0, 0.5])
        assert changed._spectrum == market._spectrum == rebuilt._spectrum
        np.testing.assert_array_equal(market.mu, [1.0, 1.0, 0.5])

    def test_only_the_new_offer_is_validated(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 100)
        with pytest.raises(MarketValidationError) as err:
            replace_offer(market, 0, Offer("offer_0", -1.0))
        assert [code for code, _ in err.value.diagnostics] == ["negative_bid"]
        with pytest.raises(MarketValidationError) as err:
            replace_offer(market, 0, Offer("offer_1", 1.0))
        assert [code for code, _ in err.value.diagnostics] == ["duplicate_offer_id"]
