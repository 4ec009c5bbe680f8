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
from portfolio_vcg import qp
from portfolio_vcg.qp import (
    DEFAULT_CONFIG,
    _detect_degenerate,
    _project_capped,
    _sum_zero_basis,
    solve_pinned_family,
)


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


def assert_matches_cold(problem: QpProblem, warm_start: np.ndarray):
    """The warm solve is certified and reaches the cold solve's optimum."""
    warm, cold = solve(problem, warm_start=warm_start), solve(problem)
    assert warm.kkt_residual <= DEFAULT_CONFIG.kkt_tol
    scale = float(np.max(np.abs(problem.linear))) * problem.mass
    assert abs(warm.objective_value - cold.objective_value) <= 1e-12 * scale
    return warm


class TestPinnedWarmStart:
    # a pinned solve starts from the full optimum with the pinned coordinate
    # cleared; its missing mass goes to the warm face (the coordinates
    # strictly inside their bounds) first, greedily only beyond that

    @staticmethod
    def interior(problem: QpProblem, w: np.ndarray) -> np.ndarray:
        upper = np.inf if problem.caps is None else problem.caps
        return np.flatnonzero((w > 0.0) & (w < upper))

    def test_pin_empties_an_uncapped_face(self):
        # the full optimum is the vertex e_0, its only interior coordinate
        problem = QpProblem(linear=np.array([5.0, 1.0, 1.2]),
                            quadratic=np.eye(3), risk=0.1, mass=1.0)
        full = solve(problem)
        assert self.interior(problem, full.weights).tolist() == [0]
        sol = assert_matches_cold(problem.pinned(0), full.weights)
        assert sol.weights[0] == 0.0

    def test_pin_empties_a_capped_face(self):
        # full optimum [0.3, 0.3, 0.3, 0.1, 0]: offer 3 is the only one
        # strictly inside its bounds
        problem = QpProblem(linear=np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
                            quadratic=np.eye(5), risk=0.01, mass=1.0,
                            caps=np.full(5, 0.3))
        full = solve(problem)
        assert self.interior(problem, full.weights).tolist() == [3]
        sol = assert_matches_cold(problem.pinned(3), full.weights)
        np.testing.assert_allclose(sol.weights, [0.3, 0.3, 0.3, 0.0, 0.1],
                                   atol=1e-12)

    def test_face_with_less_room_than_the_missing_mass(self):
        # full optimum [0.3, 0.3, 0.25, 0.15, 0] (multiplier 1): pinning
        # offer 0 frees 0.3, but offers 2 and 3 have only 0.2 of room
        problem = QpProblem(linear=np.array([3.0, 2.5, 1.5, 1.3, 0.5]),
                            quadratic=np.eye(5), risk=1.0, mass=1.0,
                            caps=np.full(5, 0.3))
        full = solve(problem)
        np.testing.assert_allclose(full.weights, [0.3, 0.3, 0.25, 0.15, 0.0],
                                   atol=1e-12)
        face = self.interior(problem, full.weights)
        assert face.tolist() == [2, 3]
        assert float(np.sum(problem.caps[face] - full.weights[face])) \
            < full.weights[0]
        sol = assert_matches_cold(problem.pinned(0), full.weights)
        assert sol.weights[0] == 0.0


class TestDegenerateFlag:
    def test_computed_on_first_read(self, monkeypatch):
        problem = QpProblem(linear=np.array([1.0, 1.0]),
                            quadratic=np.ones((2, 2)), risk=1.0, mass=1.0)
        calls = []
        real = qp._detect_degenerate

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(qp, "_detect_degenerate", counting)
        sol = solve(problem)
        assert calls == []
        assert sol.degenerate and sol.degenerate
        assert len(calls) == 1

    def test_equals_an_eager_check(self):
        rng = np.random.default_rng(19)
        seen = set()
        for kind in np.repeat(RANDOM_KINDS, 30):
            n = int(rng.integers(3, 8))
            problem = QpProblem(
                linear=np.round(rng.uniform(0, 3, n)),   # ties are common
                quadratic=random_quadratic(rng, n, kind),
                risk=float(np.exp(rng.uniform(np.log(1e-3), np.log(10)))),
                mass=1.0, caps=random_caps(rng, n, kind),
            )
            for p in (problem, problem.pinned(int(rng.integers(n)))):
                sol = solve(p)
                eager = _detect_degenerate(p, sol.weights, DEFAULT_CONFIG)
                assert sol.degenerate == eager
                seen.add(eager)
        assert seen == {True, False}


def family_problems(rng: np.random.Generator, kind: str):
    """Seeded problems for comparing the pinned family with single pinned
    solves."""
    if kind == "degenerate":
        # Sigma = 11': the risk term is constant on the simplex
        yield QpProblem(linear=np.array([1.0, 1.0, 1.0, 0.2]),
                        quadratic=np.ones((4, 4)), risk=0.5, mass=1.0)
        yield QpProblem(linear=np.array([1.0, 0.9, 1.0, 0.2, 0.95]),
                        quadratic=np.ones((5, 5)), risk=0.5, mass=1.0,
                        caps=np.full(5, 0.4))
        return
    if kind == "small":
        # n = 2 (one free coordinate per row, solved by solve) and q = 0
        # (the greedy fill);
        # caps below 0.45 spread a q = 0 optimum over at least three offers
        for _ in range(10):
            yield QpProblem(linear=rng.uniform(0, 5, 2),
                            quadratic=random_quadratic(rng, 2, "full"),
                            risk=float(rng.uniform(0.1, 5.0)), mass=1.0)
            n = int(rng.integers(6, 10))
            yield QpProblem(linear=np.round(rng.uniform(0, 3, n)),
                            quadratic=random_quadratic(rng, n, "full"), risk=0.0,
                            mass=1.0, caps=rng.uniform(0.25, 0.45, n))
        return
    if kind == "capped":
        # the face left by one pin has 0.2 of room for 0.3 of missing mass
        yield QpProblem(linear=np.array([3.0, 2.5, 1.5, 1.3, 0.5]),
                        quadratic=np.eye(5), risk=1.0, mass=1.0,
                        caps=np.full(5, 0.3))
    for _ in range(12):
        n = int(rng.integers(4, 40))
        if kind == "qmap":
            g = rng.standard_normal((n, n))
            yield QpProblem(linear=rng.uniform(0, 5, n), quadratic=g.T @ g,
                            risk=float(rng.uniform(0.01, 1.0)) / 5000, mass=5000.0,
                            affine_linear=rng.uniform(0, 1, n))
        elif kind == "capped":
            # close values and strong risk aversion: most offers carry
            # weight and many sit at their cap
            yield QpProblem(linear=rng.uniform(4, 5, n),
                            quadratic=random_quadratic(rng, n, "full") / n,
                            risk=float(rng.uniform(1.0, 50.0)), mass=1.0,
                            caps=rng.uniform(1.2, 2.5, n) / (n - 1))
        else:
            g = rng.standard_normal((int(rng.integers(1, 4)), n)) \
                if kind == "rank_deficient" else None
            yield QpProblem(
                linear=np.round(rng.uniform(0, 3, n)) if g is not None
                else rng.uniform(0, 5, n),
                quadratic=g.T @ g if g is not None else random_quadratic(rng, n, "full"),
                risk=float(np.exp(rng.uniform(np.log(1e-2), np.log(10)))), mass=1.0)


def family_changes(problem: QpProblem, pins, warm) -> int:
    """The most working-set changes any row of the family makes: the
    smallest budget with which ``_face_family`` finishes every row."""
    n = problem.dimension
    pinned = np.zeros((len(pins), n), dtype=bool)
    pinned[np.arange(len(pins)), pins] = True
    caps = np.full(n, np.inf) if problem.caps is None else problem.caps
    s = problem._scale
    args = (qp._shifted_linear(problem, DEFAULT_CONFIG) / s,
            (2.0 * problem.risk / s) * problem.quadratic, problem.mass, caps,
            np.where(pinned, 0.0, caps), pinned, DEFAULT_CONFIG.kkt_tol)
    budget = 0
    while not np.all(qp._face_family(*args, budget, warm)[1]):
        budget += 1
    return budget


class TestSolvePinnedFamily:
    # the family against one solve(problem.pinned(i)) per row, from
    # the same warm start (the full optimum), on every weighted coordinate

    @staticmethod
    def family_gaps(problem: QpProblem):
        warm = solve(problem).weights
        pins = np.flatnonzero(warm)
        family = solve_pinned_family(problem, pins, warm)
        single = [solve(problem.pinned(i), warm_start=warm).objective_value
                  for i in pins]
        scale = float(np.max(np.abs(problem.linear))) * problem.mass
        return np.abs(family - single) / scale

    @pytest.mark.parametrize("kind", ("uncapped", "capped", "rank_deficient",
                                      "degenerate", "qmap", "small"))
    def test_matches_single_pinned_solves(self, kind, monkeypatch):
        steps = []
        real = qp._lstsq_step

        def recording(*args):
            steps.append(real(*args)[1])
            return real(*args)

        monkeypatch.setattr(qp, "_lstsq_step", recording)
        rng = np.random.default_rng(83)
        short_faces = 0
        for problem in family_problems(rng, kind):
            assert float(np.max(self.family_gaps(problem))) <= 1e-12
            if problem.caps is not None:
                # a pin whose weight exceeds the room left on the warm face
                warm = solve(problem).weights
                room = np.where((warm > 0.0) & (warm < problem.caps),
                                problem.caps - warm, 0.0)
                short_faces += int(np.any(room.sum() - room < warm))
        if kind == "capped":
            assert short_faces > 0
        if kind == "rank_deficient":
            # singular faces: some row followed a zero-curvature ray
            assert np.inf in steps

    def test_one_factorization_of_the_face(self, monkeypatch):
        # the face's bordered KKT matrix is factored once; each later pass
        # solves only the rows' Schur complements, one border per change
        # made so far, and no row falls back to a single solve
        problem = QpProblem(linear=np.linspace(4.0, 5.0, 30),
                            quadratic=random_quadratic(np.random.default_rng(107),
                                                       30, "full") / 30,
                            risk=20.0, mass=1.0, caps=np.full(30, 0.06))
        warm = solve(problem).weights
        pins = np.flatnonzero(warm)
        k = int(np.count_nonzero((warm > 0.0) & (warm < problem.caps)))
        shapes = []
        real = np.linalg.solve

        def recording(a, b):
            shapes.append(np.shape(a))
            return real(a, b)

        def single(*args, **kwargs):
            raise AssertionError("a row fell back to a single solve")

        monkeypatch.setattr(np.linalg, "solve", recording)
        monkeypatch.setattr(qp, "solve", single)
        solve_pinned_family(problem, pins, warm)
        assert pins.size >= 20 and k >= 10
        assert shapes[0] == (k + 1, k + 1)
        complements = shapes[1:]
        assert len(complements) >= 5 and all(len(c) == 3 for c in complements)
        assert complements[0] == (pins.size, 1, 1)   # the closed form
        for passes, (rows, c, _) in enumerate(complements):
            assert c <= passes + 1 < k
            assert rows <= complements[max(passes - 1, 0)][0]

    def test_closed_form_rows(self, monkeypatch):
        # a row that finishes on its first step, from a start on the full
        # optimum's face less its pin, is that face's optimum with the pin
        # bordered onto K: its optimum is f* - w_i^2 / (2 P_ii)
        first = []
        real = qp._face_family

        def first_step(*args):
            W, finished = real(*args)
            once = list(args)
            once[7] = 0   # max_iterations: no working-set change
            first.append(real(*once)[1] & finished)
            return W, finished

        monkeypatch.setattr(qp, "_face_family", first_step)
        rng = np.random.default_rng(113)
        for kind in ("uncapped", "capped", "qmap"):
            gaps = []
            for problem in family_problems(rng, kind):
                warm = solve(problem).weights
                pins = np.flatnonzero(warm)
                if pins.size < qp.FAMILY_MIN_ROWS:
                    continue   # solved row by row
                values = solve_pinned_family(problem, pins, warm)
                caps = np.inf if problem.caps is None else problem.caps
                face = np.flatnonzero((warm > 0.0) & (warm < caps))
                K = np.zeros((face.size + 1, face.size + 1))
                K[:-1, :-1] = 2.0 * problem.risk * problem.quadratic[np.ix_(face, face)]
                K[:-1, -1] = K[-1, :-1] = 1.0
                P = dict(zip(face, np.diag(np.linalg.inv(K))))
                room = caps - warm   # inf when uncapped
                closed = first.pop()
                assert closed.shape == pins.shape and not first
                full = qp.objective_value(problem, warm)
                scale = float(np.max(np.abs(problem.linear))) * problem.mass
                for r in np.flatnonzero(closed):
                    i = pins[r]
                    # the rest of the face takes the pinned weight
                    if i in P and np.sum(room[face[face != i]]) > warm[i]:
                        gaps.append(abs(values[r] - (full - warm[i] ** 2 / (2.0 * P[i])))
                                    / scale)
            assert len(gaps) >= 10 and max(gaps) <= 1e-12, kind

    def test_too_small_iteration_budget_raises(self):
        # the family needs as many passes as its slowest row needs changes,
        # the count a single solve of that row makes
        cases = []
        for problem in family_problems(np.random.default_rng(89), "capped"):
            warm = solve(problem).weights
            pins = np.flatnonzero(warm)
            needed = max(solve(problem.pinned(i), warm_start=warm).iterations
                         for i in pins)
            cases.append((needed, problem.dimension, problem, warm, pins))
        needed, _, problem, warm, pins = max(cases, key=lambda c: c[:2])
        assert needed >= 2 and pins.size >= 3
        assert family_changes(problem, pins, warm) == needed
        solve_pinned_family(problem, pins, warm, SolverConfig(max_iterations=needed))
        with pytest.raises(SolverConvergenceError):
            solve_pinned_family(problem, pins, warm,
                                SolverConfig(max_iterations=needed - 1))

    def test_infeasible_and_out_of_range_pins(self):
        # without offer 0 the other caps sum to 0.9
        problem = QpProblem(linear=np.ones(4), quadratic=np.eye(4), risk=1.0,
                            mass=1.0, caps=np.array([0.6, 0.3, 0.3, 0.3]))
        warm = solve(problem).weights
        for pins in ([1, 2, 0], [0]):   # several rows, and one row alone
            with pytest.raises(InfeasibleProblemError, match="caps"):
                solve_pinned_family(problem, pins, warm)
        for pins in ([1, 2, 4], [-1]):
            with pytest.raises(QpValidationError, match="zero_set"):
                solve_pinned_family(problem, pins, warm)
        # one coordinate: every row pins it
        single = QpProblem(linear=np.ones(1), quadratic=np.eye(1), risk=1.0, mass=1.0)
        for pins in ([0, 0, 0], [0]):
            with pytest.raises(InfeasibleProblemError, match="every coordinate"):
                solve_pinned_family(single, pins, np.ones(1))



def bisection_projection(v: np.ndarray, mass: float, caps: np.ndarray) -> np.ndarray:
    """Reference: bisect on tau for sum(clip(v - tau, 0, caps)) = mass."""
    lo, hi = float(np.min(v - np.minimum(caps, mass))) - 1.0, float(np.max(v)) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, caps).sum() > mass:
            lo = mid
        else:
            hi = mid
    return np.clip(v - hi, 0.0, caps)


class TestRowProjection:
    def test_rows_match_bisection(self):
        rng = np.random.default_rng(97)
        for _ in range(60):
            r, n = int(rng.integers(1, 6)), int(rng.integers(2, 12))
            mass = float(rng.choice([1.0, 3.0, 5000.0]))
            V = np.round(rng.normal(0, 2, (r, n)), 1) * mass   # ties are common
            caps = rng.uniform(0.0, 0.8, (r, n)) * mass
            caps[rng.uniform(size=(r, n)) < 0.2] = 0.0
            caps[rng.uniform(size=(r, n)) < 0.2] = np.inf
            caps[:, 0] = np.maximum(caps[:, 0], mass)          # feasible rows
            W = _project_capped(V, mass, caps)
            for row in range(r):
                ref = bisection_projection(V[row], mass, caps[row])
                scale = mass + float(np.max(np.abs(V[row])))
                np.testing.assert_allclose(W[row], ref, rtol=0, atol=1e-12 * scale)
                assert np.all(W[row][caps[row] == 0.0] == 0.0)
                np.testing.assert_array_equal(
                    W[row], _project_capped(V[row], mass, caps[row]))

    def test_caps_that_sum_to_the_mass(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            caps = rng.integers(0, 5, n) / 4.0
            caps[0] += 0.25
            mass = float(caps.sum())   # exact: quarters add without rounding
            v = np.round(rng.normal(0, 2, n), 1)
            w = _project_capped(v, mass, caps)
            np.testing.assert_allclose(w, caps, rtol=0, atol=1e-12 * mass)
            np.testing.assert_allclose(w, bisection_projection(v, mass, caps),
                                       rtol=0, atol=1e-12 * mass)


def qr_sum_zero_basis(k: int) -> np.ndarray:
    return np.linalg.qr(np.ones((k, 1)), mode="complete")[0][:, 1:]


class TestSumZeroBasis:
    def test_orthonormal_and_sum_zero(self):
        for k in range(2, 40):
            basis = _sum_zero_basis(k)
            assert basis.shape == (k, k - 1)
            np.testing.assert_allclose(basis.T @ basis, np.eye(k - 1),
                                       atol=1e-14)
            assert float(np.max(np.abs(basis.sum(axis=0)))) <= 1e-14

    def test_reduced_min_eigenvalue_matches_qr(self):
        # faces of full-rank and rank-deficient quadratic terms
        rng = np.random.default_rng(23)
        for kind in np.repeat(("full", "rank_deficient"), 50):
            n = int(rng.integers(2, 20))
            Q = random_quadratic(rng, n, kind)
            idx = np.sort(rng.choice(n, int(rng.integers(2, n + 1)),
                                     replace=False))
            H = Q[np.ix_(idx, idx)]
            lows = [float(np.linalg.eigvalsh(b.T @ H @ b)[0])
                    for b in (_sum_zero_basis(idx.size),
                              qr_sum_zero_basis(idx.size))]
            assert abs(lows[0] - lows[1]) <= 1e-12 * float(np.max(np.abs(H)))

    def test_degenerate_flag_matches_qr(self, monkeypatch):
        # optimal faces of random problems, cap-bound and rank-deficient;
        # tied linear terms make flat faces common
        rng = np.random.default_rng(29)
        cases = []
        for kind in np.repeat(RANDOM_KINDS, 40):
            n = int(rng.integers(3, 10))
            problem = QpProblem(
                linear=np.round(rng.uniform(0, 3, n)),
                quadratic=random_quadratic(rng, n, kind),
                risk=float(np.exp(rng.uniform(np.log(1e-3), np.log(10)))),
                mass=1.0, caps=random_caps(rng, n, kind),
            )
            cases.append((problem, solve(problem).weights))
        flags = [_detect_degenerate(p, w, DEFAULT_CONFIG) for p, w in cases]
        monkeypatch.setattr(qp, "_sum_zero_basis", qr_sum_zero_basis)
        assert flags == [_detect_degenerate(p, w, DEFAULT_CONFIG)
                         for p, w in cases]
        assert set(flags) == {True, False}
        assert any(p.caps is not None and np.any(w == p.caps)
                   for p, w in cases)


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
