from dataclasses import replace

import numpy as np
import pytest

from portfolio_vcg import (
    InfeasibleProblemError,
    QpProblem,
    QpValidationError,
    SolverConfig,
    SolverConvergenceError,
    check_kkt,
    project_to_simplex,
    solve,
)
from portfolio_vcg.qp import _project_capped


def grid_maximum(problem: QpProblem, step: float) -> float:
    """Exhaustive 2-D oracle: evaluate the objective on the simplex lattice."""
    assert problem.dimension == 2
    lo, hi = 0.0, 1.0
    if problem.caps is not None:   # the lattice spans the capped segment
        lo, hi = max(lo, 1.0 - problem.caps[1]), min(hi, problem.caps[0])
    w1 = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
    W = np.stack([w1, 1.0 - w1], axis=1)
    vals = W @ problem.linear - problem.risk * np.einsum(
        "ij,jk,ik->i", W, problem.quadratic, W)
    if problem.affine_linear is not None:
        vals -= problem.risk * (W @ problem.affine_linear)
    return float(vals.max())


# random kernel inputs: full-rank covariance, a rank-deficient one (whose
# faces can be singular), and full rank under caps of at least 0.55
RANDOM_KINDS = ("full", "rank_deficient", "capped")


def random_quadratic(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "rank_deficient":
        g = rng.standard_normal((int(rng.integers(1, n)), n))
        return g.T @ g
    g = rng.standard_normal((n, n))
    return g.T @ g + 1e-6 * np.eye(n)


def random_caps(rng: np.random.Generator, n: int, kind: str):
    return rng.uniform(0.55, 1.0, n) if kind == "capped" else None


class TestSolve:
    def test_two_asset_interior_optimum(self):
        # reduced problem f(w1) = 0.3 + 1.2 w1 - w1^2, stationary at w1 = 0.6
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0)
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [0.6, 0.4], atol=1e-9)
        assert sol.objective_value == pytest.approx(0.66, abs=1e-9)
        assert sol.kkt_residual <= 1e-9
        # cross-check against the grid oracle
        assert sol.objective_value == pytest.approx(
            grid_maximum(problem, 1e-4), abs=1e-6)

    def test_pinned_coordinate_forces_the_rest(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0, zero_set=frozenset({0}))
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [0.0, 1.0], atol=1e-12)
        assert sol.objective_value == pytest.approx(0.3, abs=1e-12)

    def test_symmetric_problem_splits_evenly(self):
        problem = QpProblem(linear=np.array([1.0, 1.0]), quadratic=np.eye(2),
                            risk=1.0, mass=1.0)
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [0.5, 0.5], atol=1e-9)

    def test_linear_objective_picks_best_vertex(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2))
        problem = QpProblem(linear=np.array([2.0, 1.0]), quadratic=g.T @ g,
                            risk=0.0, mass=1.0)
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [1.0, 0.0], atol=0)
        assert sol.objective_value == 2.0

    def test_deterministic_bit_identical(self):
        problem = QpProblem(linear=np.array([1.0, 0.8, 0.3]),
                            quadratic=np.diag([1.0, 2.0, 0.5]),
                            risk=0.7, mass=1.0)
        a, b = solve(problem), solve(problem)
        assert np.array_equal(a.weights, b.weights)
        assert a.objective_value == b.objective_value
        assert a.kkt_residual == b.kkt_residual

    def test_warm_start_changes_nothing_material(self):
        problem = QpProblem(linear=np.array([1.0, 0.8, 0.3]),
                            quadratic=np.diag([1.0, 2.0, 0.5]),
                            risk=0.7, mass=1.0)
        cold = solve(problem)
        warm = solve(problem, warm_start=np.array([0.9, 0.05, 0.05]))
        np.testing.assert_allclose(cold.weights, warm.weights, atol=1e-9)

    def test_all_pinned_is_infeasible(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0, zero_set=frozenset({0, 1}))
        with pytest.raises(InfeasibleProblemError, match="zero_set"):
            solve(problem)

    def test_caps_below_mass_is_infeasible(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0, caps=np.array([0.3, 0.3]))
        with pytest.raises(InfeasibleProblemError, match="caps"):
            solve(problem)

    def test_indefinite_quadratic_rejected(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]),
                            quadratic=np.array([[1.0, 2.0], [2.0, 1.0]]),
                            risk=0.5, mass=1.0)
        with pytest.raises(QpValidationError, match="semidefinite"):
            solve(problem)

    def test_tied_linear_prefers_lowest_index_and_flags_degeneracy(self):
        problem = QpProblem(linear=np.array([1.0, 1.0, 0.5]),
                            quadratic=np.zeros((3, 3)), risk=0.0, mass=1.0)
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [1.0, 0.0, 0.0], atol=0)
        assert sol.degenerate

    def test_flat_objective_flags_degeneracy(self):
        # w'mu - q w'(11')w is constant on the simplex: every point optimal
        problem = QpProblem(linear=np.array([1.0, 1.0]),
                            quadratic=np.ones((2, 2)), risk=1.0, mass=1.0)
        sol = solve(problem)
        assert sol.degenerate
        assert sol.objective_value == pytest.approx(0.0, abs=1e-12)

    def test_unique_optimum_not_flagged_degenerate(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0)
        assert not solve(problem).degenerate

    def test_pinned_copy_matches_an_explicit_pin(self):
        problem = QpProblem(linear=np.array([1.0, 0.8, 0.3]),
                            quadratic=np.diag([1.0, 2.0, 0.5]),
                            risk=0.7, mass=1.0, caps=np.array([0.9, 0.9, 0.9]))
        explicit = replace(problem, zero_set=frozenset({1}))
        a, b = solve(problem.pinned(1)), solve(explicit)
        assert np.array_equal(a.weights, b.weights)
        assert a.objective_value == b.objective_value
        assert a.kkt_residual == b.kkt_residual
        with pytest.raises(QpValidationError, match="zero_set"):
            solve(problem.pinned(3))

    def test_pinned_copy_of_an_indefinite_problem_rejected(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]),
                            quadratic=np.array([[1.0, 2.0], [2.0, 1.0]]),
                            risk=0.5, mass=1.0)
        with pytest.raises(QpValidationError, match="semidefinite"):
            problem.pinned(0)

    def test_caps_are_respected(self):
        problem = QpProblem(linear=np.array([2.0, 1.0, 0.5]),
                            quadratic=np.eye(3), risk=0.2, mass=1.0,
                            caps=np.array([0.4, 0.5, 1.0]))
        sol = solve(problem)
        assert np.all(sol.weights <= np.array([0.4, 0.5, 1.0]) + 1e-12)
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capped_linear_fills_greedily(self):
        problem = QpProblem(linear=np.array([2.0, 1.0, 0.5]),
                            quadratic=np.zeros((3, 3)), risk=0.0, mass=1.0,
                            caps=np.array([0.6, 0.3, 1.0]))
        sol = solve(problem)
        np.testing.assert_allclose(sol.weights, [0.6, 0.3, 0.1], atol=1e-12)

    def test_restriction_monotonicity(self):
        # pinning more coordinates can only lower the optimum
        rng = np.random.default_rng(11)
        for kind in np.repeat(RANDOM_KINDS, 60):
            capped = kind == "capped"
            n = int(rng.integers(3 + capped, 6 + capped))
            problem = QpProblem(
                linear=rng.uniform(0, 5, n),
                quadratic=random_quadratic(rng, n, kind),
                risk=float(np.exp(rng.uniform(np.log(1e-3), np.log(10)))),
                mass=1.0,
                caps=random_caps(rng, n, kind),
            )
            order = rng.permutation(n)
            small = frozenset(order[:1].tolist())
            # uncapped: one coordinate stays free; capped: two, since no cap
            # reaches 1 (n >= 4 keeps big a strict superset of small)
            big = frozenset(order[:n - 1 - capped].tolist())
            obj_small = solve(replace(problem, zero_set=small)).objective_value
            obj_big = solve(replace(problem, zero_set=big)).objective_value
            assert obj_small >= obj_big - 1e-9

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(5)
        for kind in np.repeat(RANDOM_KINDS, 25):
            sigma = random_quadratic(rng, 2, kind)
            sigma /= np.linalg.eigvalsh(sigma)[-1]
            problem = QpProblem(
                linear=rng.uniform(0, 5, 2), quadratic=sigma,
                risk=float(np.exp(rng.uniform(np.log(1e-3), np.log(10)))),
                mass=1.0, caps=random_caps(rng, 2, kind),
            )
            sol = solve(problem)
            assert sol.objective_value >= grid_maximum(problem, 1e-3) - 1e-9
            assert abs(sol.objective_value - grid_maximum(problem, 1e-3)) <= 1e-4

    def test_iteration_budget_cannot_be_circumvented(self):
        config = SolverConfig(kkt_tol=1e-9, max_iterations=100_000)
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6))
        problem = QpProblem(linear=rng.uniform(0, 5, 6),
                            quadratic=g.T @ g + 1e-6 * np.eye(6),
                            risk=5.0, mass=1.0)
        sol = solve(problem, config)
        assert sol.iterations <= config.max_iterations
        assert sol.kkt_residual <= config.kkt_tol

    def test_too_small_iteration_budget_raises(self):
        # the greedy start fills the best caps; the interior optimum lies
        # some working-set changes away
        problem = QpProblem(linear=np.array([2.0, 1.0, 0.5]),
                            quadratic=np.eye(3), risk=1.0, mass=1.0,
                            caps=np.array([0.6, 0.6, 1.0]))
        needed = solve(problem).iterations
        assert needed >= 1
        with pytest.raises(SolverConvergenceError):
            solve(problem, SolverConfig(max_iterations=needed - 1))


class TestProjection:
    def test_feasible_point_unchanged(self):
        np.testing.assert_array_equal(
            project_to_simplex(np.array([0.6, 0.4])), [0.6, 0.4])

    def test_clamp_and_renormalize(self):
        np.testing.assert_allclose(
            project_to_simplex(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)

    def test_symmetric_overweight_splits(self):
        np.testing.assert_allclose(
            project_to_simplex(np.array([0.8, 0.8])), [0.5, 0.5], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = rng.normal(0, 2, int(rng.integers(2, 8)))
            once = project_to_simplex(v)
            twice = project_to_simplex(once)
            np.testing.assert_allclose(twice, once, atol=1e-12)
            assert once.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(once >= 0)

    def test_scaled_mass(self):
        w = project_to_simplex(np.array([5.0, 1.0, 1.0]), mass=3.0)
        assert w.sum() == pytest.approx(3.0, abs=1e-12)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([1.0, 2.0]), mass=0.0)

    def test_projection_agrees_with_qp_route(self):
        # projecting v equals maximizing 2v'w - w'w over the same set
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            v = rng.normal(0, 2, n)
            direct = project_to_simplex(v)
            via_qp = solve(QpProblem(linear=2.0 * v, quadratic=np.eye(n),
                                     risk=1.0, mass=1.0)).weights
            np.testing.assert_allclose(direct, via_qp, atol=1e-8)

    def test_capped_projection_agrees_with_qp_route(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            v = rng.normal(0, 2, n)
            caps = rng.uniform(0.3, 1.5, n)
            if caps.sum() < 1.05:
                continue
            direct = _project_capped(v, 1.0, caps)
            via_qp = solve(QpProblem(linear=2.0 * v, quadratic=np.eye(n),
                                     risk=1.0, mass=1.0, caps=caps)).weights
            np.testing.assert_allclose(direct, via_qp, atol=1e-8)
            assert direct.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(direct <= caps + 1e-12)


class TestCheckKkt:
    def test_optimum_has_tiny_residual(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0)
        report = check_kkt(problem, np.array([0.6, 0.4]))
        assert report.residual <= 1e-8
        assert report.passed

    def test_infeasible_point_reports_mass_violation(self):
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                            risk=0.5, mass=1.0)
        report = check_kkt(problem, np.array([0.7, 0.7]))
        assert report.mass_error == pytest.approx(0.4, abs=1e-12)
        assert not report.passed

    def test_linear_vertex_is_optimal(self):
        problem = QpProblem(linear=np.array([2.0, 1.0]),
                            quadratic=np.zeros((2, 2)), risk=0.0, mass=1.0)
        report = check_kkt(problem, np.array([1.0, 0.0]))
        assert report.residual <= 1e-12

    def test_suboptimal_interior_point_fails(self):
        problem = QpProblem(linear=np.array([2.0, 1.0]),
                            quadratic=np.zeros((2, 2)), risk=0.0, mass=1.0)
        report = check_kkt(problem, np.array([0.5, 0.5]))
        assert report.residual > 1e-3

    def test_dimension_mismatch_rejected(self):
        problem = QpProblem(linear=np.array([2.0, 1.0]),
                            quadratic=np.zeros((2, 2)), risk=0.0, mass=1.0)
        with pytest.raises(QpValidationError, match="shape"):
            check_kkt(problem, np.array([1.0, 0.0, 0.0]))
