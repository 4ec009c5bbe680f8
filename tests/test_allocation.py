import numpy as np
import pytest

from portfolio_vcg import (
    Allocation,
    QmapInstance,
    QmapValidationError,
    TransformUndefinedError,
    allocate,
    apportion,
    market_from_mu,
    min_form_to_max_form,
    portfolio_objective,
    qmap_allocate,
    qmap_objective,
    validate_qmap,
)
from portfolio_vcg import qp
from portfolio_vcg.qp import check_kkt
from portfolio_vcg.allocation import market_problem, qmap_problem


def simplex_grid(n, resolution):
    if n == 2:
        k = np.arange(resolution + 1)
        return np.stack([k, resolution - k], axis=1) / resolution
    if n == 3:
        i, j = np.triu_indices(resolution + 1)
        return np.stack([i, j - i, resolution - j], axis=1) / resolution
    raise NotImplementedError


class TestAllocate:
    def test_two_offer_interior_split(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)
        alloc = allocate(market)
        np.testing.assert_allclose(alloc.weights, [0.6, 0.4], atol=1e-9)
        assert alloc.objective_value == pytest.approx(0.66, abs=1e-9)
        np.testing.assert_array_equal(alloc.call_counts, [600, 400])

    def test_risk_neutral_winner_takes_all(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal((2, 2))
        market = market_from_mu([2.0, 1.0], g.T @ g, 0.0, 1000)
        alloc = allocate(market)
        np.testing.assert_allclose(alloc.weights, [1.0, 0.0], atol=0)

    def test_symmetric_market_splits_evenly(self):
        market = market_from_mu([1.0, 1.0], np.eye(2), 1.0, 1000)
        alloc = allocate(market)
        np.testing.assert_allclose(alloc.weights, [0.5, 0.5], atol=1e-9)

    def test_risk_neutral_tie_prefers_lowest_index(self):
        market = market_from_mu([2.0, 2.0, 1.0], np.eye(3), 0.0, 1000)
        alloc = allocate(market)
        np.testing.assert_allclose(alloc.weights, [1.0, 0.0, 0.0], atol=0)
        assert alloc.degenerate

    def test_degenerate_flag_computed_on_first_read(self, monkeypatch):
        calls = []
        real = qp._detect_degenerate

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qp, "_detect_degenerate", counting)
        alloc = allocate(market_from_mu([2.0, 2.0, 1.0], np.eye(3), 0.0, 1000))
        assert calls == []
        assert alloc.degenerate and alloc.degenerate
        assert len(calls) == 1
        unsolved = Allocation(weights=alloc.weights, call_counts=alloc.call_counts,
                              objective_value=alloc.objective_value)
        assert not unsolved.degenerate

    def test_allocation_is_its_solve(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)
        alloc = allocate(market)
        assert isinstance(alloc, qp.QpSolution)
        assert np.shares_memory(alloc.problem.quadratic, market.sigma)
        assert alloc.kkt_residual <= qp.KKT_TOL and not alloc.degenerate
        assert alloc.call_counts.dtype.kind == "i"
        assert not alloc.call_counts.flags.writeable
        # one built without a solve reads the defaults of no solve
        unsolved = Allocation(weights=alloc.weights,
                              objective_value=alloc.objective_value,
                              call_counts=[600, 400])
        assert np.isnan(unsolved.kkt_residual)
        assert unsolved.iterations == 0 and unsolved.problem is None
        assert unsolved.degenerate is False
        assert not unsolved.call_counts.flags.writeable

    def test_objective_nonincreasing_in_risk_aversion(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            mu = rng.uniform(0, 5, n)
            g = rng.standard_normal((n, n))
            sigma = g.T @ g + 1e-6 * np.eye(n)
            values = []
            for q in [0.0, 0.1, 0.5, 1.0, 5.0]:
                market = market_from_mu(mu, sigma, q, 100)
                values.append(allocate(market).objective_value)
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-9)

    def test_unvalidated_market_rejected(self):
        # the one check is the problem builder's, whatever the entry point
        from portfolio_vcg import (MarketInstance, Offer, price_offer,
                                   price_schedule)
        raw = MarketInstance(offers=(Offer("a", 1.0), Offer("b", 1.0)),
                             sigma=np.eye(2), q=0.5, pool_size=10)
        alloc = allocate(market_from_mu([1.0, 1.0], np.eye(2), 0.5, 10))
        for call in (lambda: allocate(raw), lambda: price_schedule(raw),
                     lambda: price_offer(raw, alloc, 0),
                     lambda: market_problem(raw)):
            with pytest.raises(ValueError, match="MarketInstance must be validated"):
                call()

    def test_problem_builders_take_no_pins(self):
        # A pin passed to the builders must fail loudly rather than be
        # dropped; pinned problems come from ``QpProblem.pinned``.
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)
        inst = validate_qmap(QmapInstance(a_matrix=np.eye(2),
                                          b_vector=np.zeros(2),
                                          c_vector=np.ones(2), q=0.1, m=10))
        with pytest.raises(TypeError):
            market_problem(market, frozenset({0}))
        with pytest.raises(TypeError):
            qmap_problem(inst, frozenset({0}))
        assert market_problem(market).zero_set == frozenset()
        assert qmap_problem(inst).zero_set == frozenset()


class TestApportion:
    def test_exact_fractions(self):
        np.testing.assert_array_equal(apportion([0.6, 0.4], 1000), [600, 400])

    def test_rounding_preserves_total(self):
        counts = apportion([1 / 3, 1 / 3, 1 / 3], 100)
        assert counts.sum() == 100
        assert sorted(counts.tolist()) == [33, 33, 34]

    def test_remainder_tie_goes_to_lowest_index(self):
        counts = apportion([0.5, 0.5], 5)
        np.testing.assert_array_equal(counts, [3, 2])

    def test_random_totals_and_shares(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            w = rng.uniform(0, 1, n)
            w[int(rng.integers(0, n))] = 0.0
            total = int(rng.integers(1, 10_000))
            if w.sum() == 0:
                continue
            counts = apportion(w, total)
            assert counts.sum() == total
            shares = w / w.sum() * total
            assert np.all(np.abs(counts - shares) < 1.0)

    def test_total_beyond_float_counting_rejected(self):
        # at 2**60 + 7 the floors came out 5 calls short, and past 2**63
        # the int cast gave -2**63 + 1
        np.testing.assert_array_equal(apportion([1.0, 0.0], 2**53), [2**53, 0])
        for total in (2**53 + 1, 2**60 + 7, 2**63, 10**30):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                apportion([0.6, 0.4], total)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            apportion([0.0, 0.0], 10)

    def test_non_finite_weights_rejected(self):
        # NaN would floor to the most negative int64, so the counts would
        # not sum to the total
        for w in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="weights must be finite"):
                apportion(w, 10)


class TestQmapTransform:
    def test_matrices_carried_and_risk_inverted(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.array([0.1, 0.2]),
                            c_vector=np.array([1.0, 0.8]), q=2.0, m=5)
        out = min_form_to_max_form(inst)
        np.testing.assert_array_equal(out.a_matrix, inst.a_matrix)
        np.testing.assert_array_equal(out.b_vector, inst.b_vector)
        np.testing.assert_array_equal(out.c_vector, inst.c_vector)
        assert out.q == 0.5
        assert out.m == 5

    def test_zero_quadratic_becomes_linear_problem(self):
        inst = QmapInstance(a_matrix=np.zeros((2, 2)), b_vector=np.zeros(2),
                            c_vector=np.array([2.0, 1.0]), q=1.0, m=1)
        max_form = min_form_to_max_form(inst)
        problem = qmap_problem(max_form)
        alloc = qmap_allocate(max_form)
        np.testing.assert_allclose(alloc.weights, [1.0, 0.0], atol=0)
        assert problem.mass == 1.0

    def test_riskless_min_form_is_undefined(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.0, m=1)
        with pytest.raises(TransformUndefinedError, match="max form"):
            qmap_problem(min_form_to_max_form(inst))

    def test_optimizers_agree_on_a_shared_grid(self):
        rng = np.random.default_rng(29)
        grid = simplex_grid(2, 500)
        for _ in range(25):
            g = rng.standard_normal((2, 2))
            inst = QmapInstance(
                a_matrix=g.T @ g + 1e-6 * np.eye(2),
                b_vector=rng.uniform(0, 1, 2),
                c_vector=rng.uniform(0, 5, 2),
                q=float(np.exp(rng.uniform(np.log(1e-2), np.log(10)))),
                m=1,
            )
            min_vals = np.array([qmap_objective(inst, k, min_form=True)
                                 for k in grid])
            max_form = min_form_to_max_form(inst)
            max_vals = np.array([qmap_objective(max_form, k) for k in grid])
            assert int(np.argmin(min_vals)) == int(np.argmax(max_vals))


class TestQmapAllocate:
    def test_linear_case_awards_whole_pool(self):
        inst = QmapInstance(a_matrix=np.zeros((2, 2)), b_vector=np.zeros(2),
                            c_vector=np.array([2.0, 1.0]), q=1.0, m=100)
        alloc = qmap_allocate(inst)
        np.testing.assert_allclose(alloc.weights, [100.0, 0.0], atol=0)
        np.testing.assert_array_equal(alloc.call_counts, [100, 0])

    def test_unit_pool_matches_portfolio_route(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.5, m=1)
        alloc = qmap_allocate(inst)
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)
        np.testing.assert_allclose(alloc.weights, allocate(market).weights,
                                   atol=1e-9)

    def test_large_pool_solved_literally(self):
        # reduced derivative 1000.2 - 2 k1 vanishes at k1 = 500.1: the
        # quadratic term dominates and the allocation spreads almost evenly
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.5, m=1000)
        alloc = qmap_allocate(inst)
        np.testing.assert_allclose(alloc.weights, [500.1, 499.9], atol=1e-6)
        report = check_kkt(qmap_problem(inst), alloc.weights)
        assert report.residual <= 1e-8

    def test_validation_rejects_bad_instances(self):
        with pytest.raises(QmapValidationError):
            validate_qmap(QmapInstance(a_matrix=np.array([[1.0, 2.0], [2.0, 1.0]]),
                                       b_vector=np.zeros(2),
                                       c_vector=np.array([1.0, 1.0]), q=1.0, m=1))
        with pytest.raises(QmapValidationError):
            validate_qmap(QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(3),
                                       c_vector=np.array([1.0, 1.0]), q=1.0, m=1))
        with pytest.raises(QmapValidationError):
            validate_qmap(QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                                       c_vector=np.array([1.0, 1.0]), q=-1.0, m=1))
        for m in (0, True):
            with pytest.raises(QmapValidationError) as err:
                validate_qmap(QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                                           c_vector=np.array([1.0, 1.0]), q=1.0,
                                           m=m))
            assert [code for code, _ in err.value.diagnostics] == [
                "invalid_pool_size"], m
        with pytest.raises(QmapValidationError) as err:
            validate_qmap(QmapInstance(a_matrix=np.zeros((0, 0)),
                                       b_vector=np.zeros(0),
                                       c_vector=np.zeros(0), q=1.0, m=1))
        assert err.value.diagnostics == [("empty_instance",
                                          "c_vector must be nonempty")]
        with pytest.raises(QmapValidationError) as err:
            validate_qmap(QmapInstance(a_matrix=np.ones((2, 3)),
                                       b_vector=np.zeros(2),
                                       c_vector=np.array([1.0, 1.0]), q=1.0, m=1))
        assert err.value.diagnostics == [
            ("dimension_mismatch", "A shape (2, 3) does not match 2 offers")]


    @pytest.mark.parametrize("field, value, name", [
        ("a_matrix", [[1.0, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, 1.0]], "A"),
        ("b_vector", [0.0, 0.0, np.nan], "b_vector"),
        ("c_vector", [1.0, -np.inf, 1.0], "c_vector")])
    def test_non_finite_data_rejected_by_name(self, field, value, name):
        data = dict(a_matrix=np.eye(3), b_vector=np.zeros(3),
                    c_vector=np.array([1.0, 2.0, 3.0]), q=0.1, m=100)
        data[field] = np.array(value)
        with pytest.raises(QmapValidationError) as err:
            validate_qmap(QmapInstance(**data))
        assert err.value.diagnostics == [("non_finite_data",
                                          f"{name} entries must be finite")]

    def test_unvalidated_instance_has_no_problem(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=0.5, m=10)
        with pytest.raises(ValueError, match="QmapInstance must be validated"):
            qmap_problem(inst)
        assert qmap_problem(validate_qmap(inst)).dimension == 2

    def test_validated_once(self):
        inst = validate_qmap(QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                                          c_vector=np.array([1.0, 0.8]), q=0.5, m=10))
        assert validate_qmap(inst) is inst
        problem = qmap_problem(inst)
        assert np.shares_memory(problem.quadratic, inst.a_matrix)
        # the linear term is c - q b, here with b = 0
        np.testing.assert_array_equal(problem.linear, inst.c_vector)

    def test_folded_linear_term_matches_the_unfolded_objective(self):
        # c'k - q (k'Ak + b'k) is the kernel's objective with linear term
        # c - q b; b is drawn so that q b is of c's order
        rng = np.random.default_rng(191)
        m = 5000
        for _ in range(20):
            n = int(rng.integers(2, 4))
            g = rng.standard_normal((n, n))
            c = rng.uniform(0.0, 5.0, n)
            q = float(np.exp(rng.uniform(np.log(1e-5), np.log(1e-2))))
            inst = validate_qmap(QmapInstance(
                a_matrix=g.T @ g, b_vector=rng.uniform(0.0, 2.0, n) / q,
                c_vector=c, q=q, m=m))
            linear = qmap_problem(inst).linear
            assert linear.tobytes() == (c - q * inst.b_vector).tobytes()
            assert not linear.flags.writeable
            alloc = qmap_allocate(inst)
            scale = float(np.max(np.abs(c))) * m
            assert abs(alloc.objective_value - qmap_objective(inst, alloc.weights)) \
                <= 1e-12 * scale
            # the grid's best point by the unfolded objective, row by row
            grid = simplex_grid(n, 500) * m
            values = grid @ c - q * (np.einsum("ij,jk,ik->i", grid, inst.a_matrix, grid)
                                     + grid @ inst.b_vector)
            best = grid[int(np.argmax(values))]
            assert qmap_objective(inst, best) <= alloc.objective_value + 1e-9 * scale

    @pytest.mark.parametrize("b_vector", [[0.0], 0.0])
    def test_scalar_c_vector_is_rejected(self, b_vector):
        # a scalar c has no first axis to count the offers by
        inst = QmapInstance(a_matrix=[[1.0]], b_vector=b_vector, c_vector=5.0,
                            q=0.1, m=100)
        with pytest.raises(QmapValidationError) as err:
            validate_qmap(inst)
        assert err.value.diagnostics == [("dimension_mismatch",
                                          "c_vector must be a vector, got a scalar")]

    def test_column_c_vector_is_rejected(self):
        # the instance checks reject it by name before any kernel problem
        # is built from it
        inst = QmapInstance(a_matrix=np.eye(3), b_vector=np.zeros(3),
                            c_vector=np.array([[1.0], [2.0], [3.0]]), q=0.1, m=100)
        for call in (validate_qmap, qmap_allocate):
            with pytest.raises(QmapValidationError) as err:
                call(inst)
            assert err.value.diagnostics == [
                ("dimension_mismatch", "c_vector must be a vector, got shape (3, 1)")]

    def test_min_form_whose_inverse_risk_overflows_is_rejected(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.zeros(2),
                            c_vector=np.array([1.0, 0.8]), q=1e-320, m=10)
        with pytest.raises(TransformUndefinedError, match="overflows"):
            min_form_to_max_form(inst)


class TestObjectives:
    def test_portfolio_objective_matches_allocation(self):
        market = market_from_mu([1.0, 0.8], np.eye(2), 0.5, 1000)
        alloc = allocate(market)
        direct = portfolio_objective(market, alloc.weights)
        assert direct == pytest.approx(alloc.objective_value, abs=1e-9)

    def test_qmap_objective_signs(self):
        inst = QmapInstance(a_matrix=np.eye(2), b_vector=np.array([0.1, 0.1]),
                            c_vector=np.array([1.0, 2.0]), q=2.0, m=1)
        k = np.array([0.5, 0.5])
        quad = 0.5 * 0.5 + 0.5 * 0.5 + 0.1  # k'Ak + b'k
        assert qmap_objective(inst, k) == pytest.approx(1.5 - 2.0 * quad)
        assert qmap_objective(inst, k, min_form=True) == pytest.approx(quad - 2.0 * 1.5)
