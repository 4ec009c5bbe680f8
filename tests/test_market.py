import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from portfolio_vcg import (
    MarketInstance,
    MarketValidationError,
    Offer,
    QmapInstance,
    QmapValidationError,
    QpProblem,
    QpValidationError,
    expected_value,
    make_market,
    market_from_mu,
    price_schedule,
    solve,
    validate_market,
    validate_qmap,
)
from portfolio_vcg.market import (
    MAX_POOL_SIZE, PER_AD_CALL, PER_RESPONSE, DiagnosticsError, replace_offer)


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
        # a bool is an int to isinstance, but True is no pool of one call
        for pool_size in (0, True):
            with pytest.raises(MarketValidationError) as err:
                make_market([Offer("a", 1.0), Offer("b", 1.0)], np.eye(2), 0.5,
                            pool_size)
            assert [code for code, _ in err.value.diagnostics] == [
                "invalid_pool_size"], pool_size

    def test_pool_beyond_float_counting_rejected(self):
        # apportionment counts calls in floats, which stop counting whole
        # calls past 2**53; 10**30 used to pass and apportion to -2**63 + 1
        offers = [Offer("a", 1.0), Offer("b", 1.0)]
        assert make_market(offers, np.eye(2), 0.5, MAX_POOL_SIZE).pool_size == 2**53
        for pool_size in (2**53 + 1, 2**60 + 7, 10**30):
            with pytest.raises(MarketValidationError) as err:
                make_market(offers, np.eye(2), 0.5, pool_size)
            assert [code for code, _ in err.value.diagnostics] == [
                "invalid_pool_size"], pool_size
            with pytest.raises(QmapValidationError) as err:
                validate_qmap(QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                                           c_vector=np.array([1.0, 1.0]), q=1.0,
                                           m=pool_size))
            assert [code for code, _ in err.value.diagnostics] == [
                "invalid_pool_size"], pool_size

    def test_validation_errors_share_one_diagnostics_base(self):
        diagnostics = [("invalid_pool_size", "bad pool")]
        for cls, prefix in ((MarketValidationError, "invalid market: "),
                            (QmapValidationError, "invalid call-count instance: ")):
            err = cls(diagnostics)
            assert isinstance(err, DiagnosticsError)
            assert err.diagnostics == diagnostics
            assert str(err) == prefix + "invalid_pool_size: bad pool"

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

    def test_empty_market_reports_too_few_offers(self):
        with pytest.raises(MarketValidationError) as err:
            validate_market(MarketInstance(offers=(), sigma=np.zeros((0, 0)),
                                           q=0.5, pool_size=100))
        assert err.value.diagnostics == [
            ("too_few_offers", "pricing requires at least 2 offers, got 0")]

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

    def test_mu_is_set_only_by_validation(self):
        offers = (Offer("a", 1.0), Offer("b", 0.8))
        with pytest.raises(TypeError):
            MarketInstance(offers=offers, sigma=np.eye(2), q=0.5,
                           pool_size=100, mu=np.array([5.0, 5.0]))
        raw = MarketInstance(offers=offers, sigma=np.eye(2), q=0.5, pool_size=100)
        assert raw.mu is None
        np.testing.assert_array_equal(validate_market(raw).mu, [1.0, 0.8])

    @pytest.mark.parametrize("sigma, caps, code", [
        ([[1.0, np.nan], [np.nan, 1.0]], None, "non_finite_covariance"),
        (np.eye(2), [1.0, 1.0, 1.0], "caps_dimension_mismatch"),
        (np.eye(2), [1.0, -0.5], "invalid_caps"),
        (np.eye(2), [1.0, np.inf], "invalid_caps")])
    def test_bad_covariance_or_caps_named(self, sigma, caps, code):
        with pytest.raises(MarketValidationError) as err:
            make_market([Offer("a", 1.0), Offer("b", 1.0)], sigma, 0.5, 100,
                        caps=caps)
        assert [c for c, _ in err.value.diagnostics] == [code]


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
        assert changed._scan == market._scan == rebuilt._scan
        np.testing.assert_array_equal(market.mu, [1.0, 1.0, 0.5])

    def test_only_the_new_offer_is_validated(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 100)
        with pytest.raises(MarketValidationError) as err:
            replace_offer(market, 0, Offer("offer_0", -1.0))
        assert [code for code, _ in err.value.diagnostics] == ["negative_bid"]
        with pytest.raises(MarketValidationError) as err:
            replace_offer(market, 0, Offer("offer_1", 1.0))
        assert [code for code, _ in err.value.diagnostics] == ["duplicate_offer_id"]

    def test_index_out_of_range_raises(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 100)
        # a negative index does not wrap: -1 would compare the new offer
        # with itself and report its own id as a duplicate
        for i in (-1, 2):
            with pytest.raises(IndexError, match="out of range"):
                replace_offer(market, i, Offer("offer_1", 2.0))


# Sigma of a three-offer market in unit 1; a market in currency unit u has
# mu * u and Sigma * u^2
UNIT_SIGMA = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]])


def _asymmetric(unit: float, relative: float) -> np.ndarray:
    """UNIT_SIGMA in ``unit`` with max|S - S'| = relative * max|S|."""
    sigma = UNIT_SIGMA * unit ** 2
    sigma[0, 1] += relative * 2.0 * unit ** 2
    return sigma


def _market_accepts(sigma) -> bool:
    try:
        make_market([Offer(f"o{i}", 1.0 + i) for i in range(3)], sigma, 0.5, 100)
    except MarketValidationError as err:
        assert [code for code, _ in err.diagnostics] == ["asymmetric_covariance"]
        return False
    return True


def _qmap_accepts(sigma) -> bool:
    try:
        validate_qmap(QmapInstance(a_matrix=sigma, b_vector=np.zeros(3),
                                   c_vector=np.array([1.0, 2.0, 3.0]), q=0.5, m=10))
    except QmapValidationError as err:
        assert [code for code, _ in err.diagnostics] == ["asymmetric_matrix"]
        return False
    return True


def _kernel_accepts(sigma) -> bool:
    try:
        solve(QpProblem(linear=np.array([1.0, 2.0, 3.0]), quadratic=sigma, risk=0.5))
    except QpValidationError as err:
        assert "symmetric" in str(err)
        return False
    return True


class TestRelativeSymmetryTolerance:
    # max|Sigma - Sigma'| <= SYM_TOL * max|Sigma| in the one scan every
    # validation shares, so a relative asymmetry is accepted or rejected
    # whatever the currency unit
    @pytest.mark.parametrize("accepts", [_market_accepts, _qmap_accepts,
                                         _kernel_accepts])
    def test_rounding_asymmetry_in_a_large_unit_is_accepted(self, accepts):
        assert accepts(_asymmetric(1e3, 1e-14))

    @pytest.mark.parametrize("accepts", [_market_accepts, _qmap_accepts,
                                         _kernel_accepts])
    def test_real_asymmetry_in_a_small_unit_is_rejected(self, accepts):
        assert not accepts(_asymmetric(1e-6, 1e-3))

    @pytest.mark.parametrize("unit", [1e-6, 1.0, 1e3])
    def test_same_relative_asymmetry_same_verdict_in_every_unit(self, unit):
        assert _market_accepts(_asymmetric(unit, 1e-12))
        assert not _market_accepts(_asymmetric(unit, 1e-8))

    def test_accepted_market_in_a_large_unit_prices(self):
        offers = [Offer(f"o{i}", 1e3 * (1.0 + i)) for i in range(3)]
        schedule = price_schedule(make_market(offers, _asymmetric(1e3, 1e-14),
                                              0.5e-3, 100))
        reference = price_schedule(make_market(offers, UNIT_SIGMA * 1e6, 0.5e-3, 100))
        np.testing.assert_allclose(schedule.offer_prices, reference.offer_prices,
                                   rtol=1e-9, atol=1e-9 * 3e3)


def _reference_offer_problems(offer: Offer) -> list:
    """The per-offer checks as first written (``np.isfinite``, message
    prefix built for every offer): the reference for ``validate_market``."""
    problems = []
    prefix = f"offer {offer.id!r}"
    if offer.basis not in (PER_AD_CALL, PER_RESPONSE):
        problems.append(("unknown_basis",
                         f"{prefix}: basis must be {PER_AD_CALL!r} or "
                         f"{PER_RESPONSE!r}, got {offer.basis!r}"))
    if not np.isfinite(offer.bid) or offer.bid < 0:
        problems.append(("negative_bid",
                         f"{prefix}: bid must be finite and >= 0, got {offer.bid}"))
    rate = offer.response_rate
    if offer.basis == PER_RESPONSE:
        if rate is None:
            problems.append(("missing_response_rate",
                             f"{prefix}: per-response offers require a response_rate"))
        elif not np.isfinite(rate) or not 0.0 <= rate <= 1.0:
            problems.append(("response_rate_out_of_range",
                             f"{prefix}: response_rate must be in [0, 1], got {rate}"))
    elif rate is not None and rate != 1.0:
        problems.append(("response_rate_conflicts_with_basis",
                         f"{prefix}: per-ad-call offers have response_rate fixed "
                         f"at 1, got {rate}"))
    return problems


def _reference_diagnostics(offers) -> list:
    problems = []
    if len(offers) < 2:
        problems.append(("too_few_offers",
                         f"pricing requires at least 2 offers, got {len(offers)}"))
    seen = set()
    for offer in offers:
        if offer.id in seen:
            problems.append(("duplicate_offer_id",
                             f"offer id {offer.id!r} appears more than once"))
        seen.add(offer.id)
        problems.extend(_reference_offer_problems(offer))
    return problems


_SPECIAL = [0.0, -0.0, 1.0, 1.5, -0.1, -1.0, math.nan, math.inf, -math.inf, 5e-324]
_ids = st.sampled_from("abcdefghij")
_valid_offer = st.one_of(
    st.builds(Offer, id=_ids, bid=st.floats(0.0, 1e6), basis=st.just(PER_AD_CALL),
              response_rate=st.sampled_from([None, 1.0])),
    st.builds(Offer, id=_ids, bid=st.floats(0.0, 1e6), basis=st.just(PER_RESPONSE),
              response_rate=st.floats(0.0, 1.0)))
_any_offer = st.builds(
    Offer,
    id=_ids,
    bid=st.one_of(st.sampled_from(_SPECIAL), st.floats()),
    basis=st.sampled_from([PER_AD_CALL, PER_RESPONSE, "per_click"]),
    response_rate=st.one_of(st.none(), st.sampled_from(_SPECIAL), st.floats(-0.5, 1.5)))
# valid lists (distinct ids, valid offers) and lists mixing every defect
_offers = st.one_of(
    st.lists(_valid_offer, min_size=2, max_size=8, unique_by=lambda offer: offer.id),
    st.lists(st.one_of(_valid_offer, _any_offer), max_size=8))


class TestOfferChecksMatchTheReference:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_offers)
    def test_diagnostics_in_order_and_mu_bit_for_bit(self, offers):
        expected = _reference_diagnostics(offers)
        raw = MarketInstance(offers=tuple(offers), sigma=np.eye(len(offers)),
                             q=0.5, pool_size=100)
        if expected:
            with pytest.raises(MarketValidationError) as err:
                validate_market(raw)
            assert err.value.diagnostics == expected
            return
        market = validate_market(raw)
        values = np.array([expected_value(offer) for offer in offers])
        assert market.mu.tobytes() == values.tobytes()
