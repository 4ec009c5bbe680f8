from dataclasses import replace

import numpy as np
import pytest

from portfolio_vcg import (
    InfeasibleProblemError,
    QpProblem,
    QpValidationError,
    SolverConvergenceError,
    check_kkt,
    project_to_simplex,
    solve,
)
from portfolio_vcg import (
    QmapInstance, market_from_mu, price_schedule, qmap_allocate, qmap_prices, qp)
from portfolio_vcg.allocation import qmap_problem
from portfolio_vcg.qp import (
    _detect_degenerate,
    _project,
    _project_capped,
    psd_slack,
    quadratic_scan,
    solve_pinned_family,
)
from test_face_oracle import face_oracle


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
        with pytest.raises(QpValidationError, match="semidefinite"):
            problem = QpProblem(linear=np.array([1.0, 0.8]),
                                quadratic=np.array([[1.0, 2.0], [2.0, 1.0]]),
                                risk=0.5, mass=1.0)
            solve(problem)

    @pytest.mark.parametrize("field", ["linear", "quadratic"])
    def test_non_finite_data_rejected(self, field):
        data = dict(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                    risk=0.5, mass=10.0)
        data[field] = np.full_like(data[field], np.nan)
        with pytest.raises(QpValidationError, match="finite"):
            QpProblem(**data)

    @pytest.mark.parametrize("field, value", [
        ("risk", -1.0), ("risk", np.nan), ("mass", 0.0), ("mass", np.inf),
        ("caps", np.ones(3)), ("caps", np.array([1.0, -0.5])),
        ("caps", np.array([1.0, np.inf]))])
    def test_bad_scalar_or_bound_rejected(self, field, value):
        data = dict(linear=np.array([1.0, 0.8]), quadratic=np.eye(2),
                    risk=0.5, mass=1.0)
        data[field] = value
        with pytest.raises(QpValidationError):
            QpProblem(**data)

    def test_scalar_linear_term_rejected(self):
        with pytest.raises(QpValidationError, match="nonempty vector"):
            QpProblem(linear=5.0, quadratic=np.eye(1))

    def test_hand_built_problem_is_scanned_once_when_built(self, monkeypatch):
        scans, real_scan = [], qp.quadratic_scan

        def counting_scan(matrix):
            scans.append(matrix.shape)
            return real_scan(matrix)

        monkeypatch.setattr(qp, "quadratic_scan", counting_scan)
        problem = QpProblem(linear=np.array([1.0, 0.8, 0.3]),
                            quadratic=np.diag([1.0, 2.0, 0.5]), risk=0.7,
                            caps=np.full(3, 0.9))
        assert scans == [(3, 3)]
        full = solve(problem)
        check_kkt(problem, full.weights)
        solve(problem.pinned(0))
        solve_pinned_family(problem, [0, 1, 2], full.weights)
        assert scans == [(3, 3)]

    def test_hand_built_problem_copies_its_arrays(self):
        # even read-only arrays that own their data: the caller may make
        # them writeable again, which would leave the cached scale stale
        quadratic = np.eye(2)
        quadratic.setflags(write=False)
        problem = QpProblem(linear=np.array([1.0, 0.8]), quadratic=quadratic,
                            risk=0.5)
        solve(problem)
        quadratic.setflags(write=True)
        quadratic[0, 0] = 1e6
        assert not np.shares_memory(problem.quadratic, quadratic)
        assert problem.quadratic[0, 0] == 1.0

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
        with pytest.raises(QpValidationError, match="semidefinite"):
            problem = QpProblem(linear=np.array([1.0, 0.8]),
                                quadratic=np.array([[1.0, 2.0], [2.0, 1.0]]),
                                risk=0.5, mass=1.0)
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
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6))
        problem = QpProblem(linear=rng.uniform(0, 5, 6),
                            quadratic=g.T @ g + 1e-6 * np.eye(6),
                            risk=5.0, mass=1.0)
        sol = solve(problem)
        assert sol.iterations <= qp.MAX_ITERATIONS
        assert sol.kkt_residual <= qp.KKT_TOL

    def test_call_count_problems_in_any_unit(self):
        # mass 5000 and a risk weight of qmap's order: in a unit s the data
        # is c s, Q s^2, b s^2 and q / s, so the linear term c - q b and the
        # optimum scale by s.  The certificate's step must shrink with the
        # unit, or at s = 1e-6 its rounding noise, about 5000 * eps, exceeds
        # the tolerance
        rng = np.random.default_rng(137)
        for _ in range(10):
            n = int(rng.integers(5, 30))
            g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            sigma = g.T @ g / np.linalg.eigvalsh(g.T @ g)[-1]
            c, b = rng.uniform(0.0, 5.0, n), rng.uniform(0.0, 1.0, n)
            q = float(np.exp(rng.uniform(np.log(1e-5), np.log(1e-1))))
            values = [solve(QpProblem(linear=c * s - (q / s) * (b * s * s),
                                      quadratic=sigma * s * s, risk=q / s,
                                      mass=5000.0)).objective_value / s
                      for s in (1e-6, 1.0, 1e6)]
            assert np.ptp(values) <= 1e-12 * 5.0 * 5000.0

    def test_too_small_iteration_budget_raises(self, monkeypatch):
        # 60 capped offers of close value under a rank-3 factor covariance:
        # the projected-gradient step off the greedy vertex lands near the
        # optimum's face, which still lies some working-set changes away
        rng = np.random.default_rng(131)
        n = 60
        f = rng.standard_normal((n, 3)) * (2.0 / np.sqrt(n))
        sigma = f @ f.T + np.diag(rng.uniform(0.5, 1.5, n))
        problem = QpProblem(linear=rng.uniform(4.0, 5.0, n),
                            quadratic=sigma / np.linalg.eigvalsh(sigma)[-1],
                            risk=100.0, mass=1.0, caps=np.full(n, 1.5 / n))
        needed = solve(problem).iterations
        assert needed >= 2
        monkeypatch.setattr(qp, "MAX_ITERATIONS", needed)
        assert solve(problem).iterations == needed
        monkeypatch.setattr(qp, "MAX_ITERATIONS", needed - 1)
        with pytest.raises(SolverConvergenceError):
            solve(problem)


def family_args(problem: QpProblem, pins) -> tuple:
    """``_face_family``'s arguments before ``warm`` for the rows of
    ``problem`` pinned at ``pins``, as ``solve_pinned_family`` builds them:
    each row's pin is an upper bound of 0, and the Lipschitz bound comes
    last."""
    n = problem.dimension
    caps = np.full(n, np.inf) if problem.caps is None else problem.caps
    upper = np.tile(caps, (len(pins), 1))
    upper[np.arange(len(pins)), pins] = 0.0
    curvature = 2.0 * problem.risk / problem._scale
    return (problem.linear / problem._scale, curvature * problem.quadratic,
            problem.mass, caps, upper, curvature * problem._lam_bound)


def family_changes(problem: QpProblem, pins, warm) -> np.ndarray:
    """The working-set changes each row makes in ``_face_family``: the
    smallest budget with which it finishes there, inf for a row that does
    not finish (a single solve takes it)."""
    args = family_args(problem, pins)
    changes = np.where(qp._face_family(*args, warm)[1], -1.0, np.inf)
    with pytest.MonkeyPatch.context() as patch:
        budget = 0
        while np.any(changes < 0):
            patch.setattr(qp, "MAX_ITERATIONS", budget)
            changes[(changes < 0) & qp._face_family(*args, warm)[1]] = budget
            budget += 1
    return changes


def assert_matches_cold(problem: QpProblem, pin: int, warm: np.ndarray):
    """The family's row pinned at ``pin``, started from ``warm``, finishes
    without a single solve, is certified and reaches the cold solve's
    optimum; returns its weights."""
    (w,), (finished,) = qp._face_family(*family_args(problem, [pin]), warm)
    pinned = problem.pinned(pin)
    assert finished and check_kkt(pinned, w).passed
    scale = float(np.max(np.abs(problem.linear))) * problem.mass
    assert abs(qp.objective_value(pinned, w) - solve(pinned).objective_value) \
        <= 1e-12 * scale
    return w


class TestPinnedWarmStart:
    # a row of the pinned family starts from the full optimum with the
    # pinned coordinate cleared; its missing mass goes to the warm face (the
    # coordinates strictly inside their bounds) first, greedily only beyond
    # that.  These families have one row, which ``solve_pinned_family``
    # hands to a single solve, so ``_face_family`` runs them directly

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
        assert assert_matches_cold(problem, 0, full.weights)[0] == 0.0

    def test_pin_empties_a_capped_face(self):
        # full optimum [0.3, 0.3, 0.3, 0.1, 0]: offer 3 is the only one
        # strictly inside its bounds
        problem = QpProblem(linear=np.array([5.0, 4.0, 3.0, 2.0, 1.0]),
                            quadratic=np.eye(5), risk=0.01, mass=1.0,
                            caps=np.full(5, 0.3))
        full = solve(problem)
        assert self.interior(problem, full.weights).tolist() == [3]
        np.testing.assert_allclose(assert_matches_cold(problem, 3, full.weights),
                                   [0.3, 0.3, 0.3, 0.0, 0.1], atol=1e-12)

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
        # the face fills to its caps, and only the remaining 0.1 goes
        # greedily, to offer 4
        l, H, mass, _, upper, _ = family_args(problem, [0])
        np.testing.assert_allclose(qp._warm_start(l, H, mass, upper, full.weights),
                                   [[0.0, 0.3, 0.3, 0.3, 0.1]], atol=1e-12)
        assert assert_matches_cold(problem, 0, full.weights)[0] == 0.0


def rank_deficient_instance(seed: int) -> QmapInstance:
    """A call-count instance with A = G'G, G of r <= n rows, so A is
    often rank deficient and a face of it singular."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    r = int(rng.integers(1, n + 1))
    g = rng.standard_normal((r, n))
    c = rng.uniform(0, 5, n)
    rng.uniform(0, 1, n)   # drawn with the instance, unused
    q = float(np.exp(rng.uniform(np.log(1e-3), np.log(100))))
    return QmapInstance(a_matrix=g.T @ g, b_vector=np.zeros(n), c_vector=c,
                        q=q, m=5000)


class TestReleasedBoundCycling:
    # a bound released with a multiplier wrong by rounding opens a singular
    # face whose step sends it straight back; the same working set then
    # repeated until the budget was spent

    @pytest.mark.parametrize("seed", [33, 243, 245])
    def test_rank_deficient_allocation_finishes(self, seed, monkeypatch):
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 3000)
        inst = rank_deficient_instance(seed)
        alloc = qmap_allocate(inst)
        assert alloc.iterations < 300   # of the 3000 allowed
        assert check_kkt(qmap_problem(inst), alloc.weights).passed

    def test_family_rows_stop_cycling(self, monkeypatch):
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 3000)
        inst = rank_deficient_instance(243)
        solves, passes = [0], []
        real_solve, real_family = np.linalg.solve, qp._face_family

        def counted_solve(*args, **kwargs):
            solves[0] += 1
            return real_solve(*args, **kwargs)

        def counted_family(*args):
            before = solves[0]
            out = real_family(*args)
            passes.append(solves[0] - before)
            return out
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(qp, "_face_family", counted_family)
        schedule = qmap_prices(inst)
        assert len(passes) == 1 and passes[0] < 100   # of the 3000 allowed
        # both routes are certified to KKT_TOL on a face with flat directions
        scale = float(np.max(inst.c_vector)) * inst.m
        problem = qmap_problem(inst)
        for i in np.flatnonzero(schedule.allocation.weights):
            assert abs(schedule.restricted_objectives[i]
                       - solve(problem.pinned(i)).objective_value) \
                <= qp.KKT_TOL * scale

    def test_rank_deficient_seeds_allocate_and_price(self, monkeypatch):
        monkeypatch.setattr(qp, "MAX_ITERATIONS", 3000)
        for seed in range(150):
            inst = rank_deficient_instance(seed)
            assert qmap_allocate(inst).kkt_residual <= qp.KKT_TOL
            qmap_prices(inst)

    @pytest.mark.parametrize("seed", [347, 982, 1782])
    def test_flat_face_rows_reach_the_optimum(self, seed, monkeypatch):
        # a multiplier wrong by e at unit gradient scale loses up to e times
        # that scale per unit of weight moved along a flat face; releasing
        # bounds only past KKT_TOL left rows 982/3 and 1782/28 apart by up
        # to 9.9e-5 of max c * m across the two routes, and row 347/25 short
        # of its optimum by 1.1e-4 of it in both
        inst = rank_deficient_instance(seed)
        weighted = np.flatnonzero(qmap_allocate(inst).weights)
        problem = qmap_problem(inst)
        tol = qp.KKT_TOL * float(np.max(inst.c_vector)) * inst.m

        def both_routes():
            family = qmap_prices(inst).restricted_objectives[weighted]
            cold = [solve(problem.pinned(i)).objective_value for i in weighted]
            return family, np.array(cold)
        family, cold = both_routes()
        assert np.max(np.abs(family - cold)) <= tol
        monkeypatch.setattr(qp, "RELEASE_TOL", 1e-14)
        reference = both_routes()
        for values in (family, cold):
            for exact in reference:
                assert np.max(np.abs(values - exact)) <= tol

    @pytest.mark.parametrize("seed", [347, 434, 1685, 2282])
    def test_seeds_that_cycled_before_every_wrong_bound_was_released(self, seed):
        # at the shipped budget, which these used to spend in full
        inst = rank_deficient_instance(seed)
        alloc = qmap_allocate(inst)
        assert alloc.kkt_residual <= qp.KKT_TOL
        assert alloc.iterations < 300
        qmap_prices(inst)


def record_singular_faces(monkeypatch) -> list:
    """Spy on ``_active_set``'s face solves: the returned list gets, per
    face system, whether its face block without the proximal term is
    singular (smallest singular value at most 1e-10 of the largest)."""
    singular, delta = [], []
    real_solve, real_active = np.linalg.solve, qp._active_set

    def recording_solve(A, b):
        if delta:
            k = A.shape[0] - 1
            sv = np.linalg.svd(A[:k, :k] - delta[0] * np.eye(k), compute_uv=False)
            singular.append(bool(sv[-1] <= 1e-10 * sv[0]))
        return real_solve(A, b)

    def recording_active(l, H, mass, caps, lipschitz):
        delta.append(qp.PROX_TOL * max(lipschitz, 1.0 / mass))
        try:
            return real_active(l, H, mass, caps, lipschitz)
        finally:
            delta.clear()

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    monkeypatch.setattr(qp, "_active_set", recording_active)
    return singular


class TestProximalFaceSolve:
    # every face system of a single solve carries a proximal term, which
    # keeps it regular on singular faces

    @pytest.mark.parametrize("values", ([3.0, 2.0], [2.0, 2.0]), ids=("ray", "flat"))
    @pytest.mark.parametrize("q, prices", [(1e-3, [1.19991, 0.59991, 0.20001]),
                                           (1.0, [1.11, 0.51, 0.21]),
                                           (100.0, [-7.8, -8.4, 1.2])])
    def test_priced_without_least_squares(self, values, q, prices, monkeypatch):
        # two riskless offers beside a risky one that carries weight 0.1: a
        # face where both riskless offers are free has zero curvature.  With
        # different values its slope along the flat direction makes an
        # ascent ray, stopped at a bound; with equal values the face is flat
        def refuse(*args, **kwargs):
            raise AssertionError("least-squares step")
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        singular = record_singular_faces(monkeypatch)
        market = market_from_mu([*values, 2.0 + 0.2 * q], np.diag([0.0, 0.0, 1.0]),
                                q, caps=np.full(3, 0.6))
        schedule = price_schedule(market)
        assert any(singular)
        assert schedule.allocation.kkt_residual <= qp.KKT_TOL
        # at q = 1e-3 the curvature is weak, and KKT_TOL leaves 5e-10 of room
        np.testing.assert_allclose(schedule.allocation.weights, [0.6, 0.3, 0.1],
                                   rtol=0, atol=1e-8)
        # the hand-computed VCG charges
        np.testing.assert_allclose(schedule.offer_prices, prices, rtol=0, atol=1e-9)

    def test_face_solved_again_while_the_proximal_error_shows(self, monkeypatch):
        # a proximal term 1e8 times the shipped one leaves a full step short
        # of the face optimum by more than KKT_TOL, so the face is solved
        # again (a proximal point iteration) until it reaches the optimum
        problem = factor_market(0, 60)
        shipped = solve(problem)
        monkeypatch.setattr(qp, "PROX_TOL", 1e-6)
        proximal = solve(problem)
        assert proximal.iterations > shipped.iterations
        assert proximal.kkt_residual <= qp.KKT_TOL
        assert np.abs(proximal.weights - shipped.weights).max() <= 1e-9


def factor_market(seed: int, n: int) -> QpProblem:
    """A capped market with a rank-3 factor covariance, mu ~ U[4, 5] and
    q = 100: nearly every offer carries weight and about a third sit at
    their cap of 1.5 / n."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, 3)) * (2.0 / np.sqrt(n))
    sigma = f @ f.T + np.diag(rng.uniform(0.5, 1.5, n))
    sigma /= np.linalg.eigvalsh(sigma)[-1]
    return QpProblem(linear=rng.uniform(4.0, 5.0, n), quadratic=sigma,
                     risk=100.0, caps=np.full(n, 1.5 / n))


class TestReleaseEveryWrongBound:
    # at a face optimum the active set releases every bound whose multiplier
    # has the wrong sign, and bounds again those the next step sends back

    @staticmethod
    def face_rhs(monkeypatch) -> list:
        """The gradient columns of the right sides of the face systems
        solved from now on (the second column is the tie-break's)."""
        seen, real = [], np.linalg.solve

        def recording(A, b):
            seen.append(np.array(b)[:, 0])
            return real(A, b)
        monkeypatch.setattr(np.linalg, "solve", recording)
        return seen

    def test_one_pass_releases_every_wrong_bound(self, monkeypatch):
        problem = factor_market(7, 60)
        seen = self.face_rhs(monkeypatch)
        sol = solve(problem)
        assert check_kkt(problem, sol.weights).passed
        # the face grows by every bound one face optimum releases
        assert max(np.diff([b.size for b in seen])) >= 5
        # one release per pass took 18 passes on this market
        assert sol.iterations <= 9

    def test_bounds_sent_straight_back_are_bound_again(self, monkeypatch):
        g = np.array([[-0.24, 0.82, 0.5, -0.71, -0.47, 1.2],
                      [-0.07, -0.34, 0.42, -1.94, 0.1, -0.31],
                      [-0.64, -0.62, 0.25, -1.42, -0.13, -2.39],
                      [0.36, -0.66, 1.24, 1.11, 0.07, -1.76],
                      [0.55, -0.46, 0.81, 0.89, 0.19, 0.59],
                      [-0.86, 1.14, 0.31, -0.92, 0.07, -1.42]])
        problem = QpProblem(linear=np.array([4.26, 4.03, 4.94, 2.96, 2.39, 2.43]),
                            quadratic=g.T @ g, risk=0.904)
        seen = self.face_rhs(monkeypatch)
        sol = solve(problem)
        # the first face optimum releases offers 0, 3 and 4 from zero, and
        # the step on that face would take 3 and 4 below zero: the next face
        # system is solved at the same point with both bound again, so its
        # right side is the last one's less those two entries
        assert any(b.size == a.size - 2 and b[-1] == a[-1]
                   and np.isin(b[:-1], a[:-1]).all()
                   for a, b in zip(seen, seen[1:]))
        assert sol.weights[0] > 0.0 and not sol.weights[3:].any()
        assert abs(sol.objective_value - face_oracle(problem)) <= 1e-12 * 4.94

    def test_certificate_refuses_a_short_stop(self, monkeypatch):
        # with a release tolerance of 1e-3 the active set stops while some
        # multipliers are still wrong: the KKT certificate refuses the point
        # (residual about 8e-4), alone and in a family, whose rows that
        # miss it fall back to the same single solve
        problem = factor_market(7, 60)
        warm = solve(problem).weights
        monkeypatch.setattr(qp, "RELEASE_TOL", 1e-3)
        with pytest.raises(SolverConvergenceError, match="KKT residual"):
            solve(problem)
        with pytest.raises(SolverConvergenceError, match="KKT residual"):
            solve_pinned_family(problem, np.flatnonzero(warm), warm)


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
                eager = _detect_degenerate(p, sol.weights)
                assert sol.degenerate == eager
                seen.add(eager)
        assert seen == {True, False}

    def test_does_not_depend_on_the_unit(self):
        # the same problems in a unit s: c s, Q s^2, q / s.  H and its face
        # curvature scale with s, so a test relative to max|H| on the face
        # gives the same flag in every unit, down to s = 1e-9
        rng = np.random.default_rng(151)
        flags = []
        for trial in range(200):
            n = int(rng.integers(3, 8))
            c = rng.uniform(0.0, 5.0, n)
            g = rng.standard_normal((n, n))
            if trial % 2:   # offer 1 copies offer 0: a flat direction
                c[1], g[:, 1] = c[0], g[:, 0]
            sigma = g.T @ g + (1e-6 * np.eye(n) if trial % 2 == 0 else 0.0)
            sigma /= np.linalg.eigvalsh(sigma)[-1]
            q = float(np.exp(rng.uniform(0.0, np.log(100.0))))
            flags.append([solve(QpProblem(linear=c * s, quadratic=sigma * s * s,
                                          risk=q / s)).degenerate
                          for s in (1e-9, 1e-6, 1.0, 1e3)])
        flags = np.array(flags)
        assert 0 < np.count_nonzero(flags[:, 2]) < len(flags)
        assert np.all(flags == flags[:, 2:3])

    @pytest.mark.parametrize("q", [1.0, 1e-300, 1e-318, 1e-320])
    def test_does_not_depend_on_the_risk_weight(self, q):
        # returns correlated at 1 - 1e-6: the optimum is unique at every
        # q > 0.  q times the face block underflowed below about 1e-308,
        # where the flag read True
        sigma = np.array([[1.0, 1.0 - 1e-6], [1.0 - 1e-6, 1.0]])
        sol = solve(QpProblem(linear=np.array([1.0, 1.0]), quadratic=sigma, risk=q))
        assert sol.degenerate is False

    def test_does_not_overflow_at_the_float_limit(self, recwarn):
        # the face block's sum H + H' overflowed at Sigma = 1e308 I
        sol = solve(QpProblem(linear=np.array([1.0, 0.5]),
                              quadratic=1e308 * np.eye(2), risk=1e-10))
        assert sol.degenerate is False
        assert not recwarn.list

    def test_all_zero_face_block_is_flat(self):
        problem = QpProblem(linear=np.array([1.0, 1.0, 0.5]),
                            quadratic=np.zeros((3, 3)), risk=1.0)
        assert solve(problem).degenerate


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
    if kind == "linear":
        # rows with no curvature, which the family serves with the rest: q = 0
        # and Sigma = 0 under caps, and one risky offer among riskless ones.
        # Here the optimum is [0.1, 0.4, 0, 0.5, 0]; the faces of its three
        # rows come to hold two riskless offers, whose systems the proximal
        # term keeps regular, so the family finishes every row
        yield QpProblem(linear=np.array([1.9, 1.5, 0.1, 2.5, 0.2]),
                        quadratic=np.diag([1.0, 0.0, 0.0, 0.0, 0.0]), risk=2.0,
                        mass=1.0, caps=np.full(5, 0.5))
        for _ in range(8):
            n = int(rng.integers(4, 12))
            caps = rng.uniform(1.2, 2.5, n) / (n - 1)
            risk = float(rng.uniform(0.1, 5.0))
            yield QpProblem(linear=rng.uniform(0, 3, n),
                            quadratic=random_quadratic(rng, n, "full"), risk=0.0,
                            mass=1.0, caps=caps)
            yield QpProblem(linear=rng.uniform(0, 3, n), quadratic=np.zeros((n, n)),
                            risk=risk, mass=1.0, caps=caps)
            yield QpProblem(linear=rng.uniform(0, 3, n),
                            quadratic=np.diag(np.eye(n)[0] * rng.uniform(0.5, 2.0)),
                            risk=risk, mass=1.0, caps=caps)
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
            c = rng.uniform(0, 5, n)
            q = float(rng.uniform(0.01, 1.0)) / 5000
            # the call-count objective c'w - q (w'Qw + b'w), b folded into c
            yield QpProblem(linear=c - q * rng.uniform(0, 1, n), quadratic=g.T @ g,
                            risk=q, mass=5000.0)
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


class TestSolvePinnedFamily:
    # the family, started from the full optimum, against one cold
    # solve(problem.pinned(i)) per row, on every weighted coordinate

    @staticmethod
    def family_gaps(problem: QpProblem):
        warm = solve(problem).weights
        pins = np.flatnonzero(warm)
        family = solve_pinned_family(problem, pins, warm)
        single = [solve(problem.pinned(i)).objective_value for i in pins]
        scale = float(np.max(np.abs(problem.linear))) * problem.mass
        return np.abs(family - single) / scale

    @pytest.mark.parametrize("kind", ("uncapped", "capped", "rank_deficient",
                                      "degenerate", "qmap", "small", "linear"))
    def test_matches_single_pinned_solves(self, kind, monkeypatch):
        finished = []
        real_family = qp._face_family
        singular = record_singular_faces(monkeypatch)

        def recording_family(*args):
            W, done = real_family(*args)
            finished.extend(done)
            return W, done

        monkeypatch.setattr(qp, "_face_family", recording_family)
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
            # singular faces, solved through the same proximal system
            assert any(singular)
        if kind == "linear":
            # the family finishes every row, those without curvature too
            assert all(finished)

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

    def test_vertex_warm_start(self, monkeypatch):
        # every weighted coordinate at its cap leaves no coordinate strictly
        # inside; the family factors one capped coordinate's face instead of
        # handing every row to a single solve
        rng = np.random.default_rng(179)
        for n, k in ((6, 4), (10, 5), (30, 15)):
            g = rng.standard_normal((n, n))
            problem = QpProblem(
                linear=np.concatenate([rng.uniform(4.5, 5.0, k),
                                       rng.uniform(0.5, 1.0, n - k)]),
                quadratic=g.T @ g / n, risk=0.1, mass=1.0, caps=np.full(n, 1.0 / k))
            warm = solve(problem).weights
            assert np.array_equal(warm > 0.0, warm >= problem.caps)
            assert float(np.max(self.family_gaps(problem))) <= 1e-12

            def single(*args, **kwargs):
                raise AssertionError("a row fell back to a single solve")

            with monkeypatch.context() as patch:
                patch.setattr(qp, "solve", single)
                solve_pinned_family(problem, np.flatnonzero(warm), warm)

    def test_closed_form_rows(self, monkeypatch):
        # a row that finishes on its first step, from a start on the full
        # optimum's face less its pin, is that face's optimum with the pin
        # bordered onto K: its optimum is f* - w_i^2 / (2 P_ii)
        first = []
        real = qp._face_family

        def first_step(*args):
            W, finished = real(*args)
            with monkeypatch.context() as patch:
                patch.setattr(qp, "MAX_ITERATIONS", 0)   # no working-set change
                first.append(real(*args)[1] & finished)
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

    def test_too_small_iteration_budget_raises(self, monkeypatch):
        # a row is served within the budget by the family or by its cold
        # single solve, so the family needs the most changes any row makes
        # on the shorter of its two routes
        cases = []
        for problem in family_problems(np.random.default_rng(89), "capped"):
            warm = solve(problem).weights
            pins = np.flatnonzero(warm)
            cold = [solve(problem.pinned(i)).iterations for i in pins]
            needed = int(np.max(np.minimum(family_changes(problem, pins, warm), cold)))
            cases.append((needed, problem.dimension, problem, warm, pins))
        needed, _, problem, warm, pins = max(cases, key=lambda c: c[:2])
        assert needed >= 2 and pins.size >= 3
        monkeypatch.setattr(qp, "MAX_ITERATIONS", needed)
        solve_pinned_family(problem, pins, warm)
        monkeypatch.setattr(qp, "MAX_ITERATIONS", needed - 1)
        with pytest.raises(SolverConvergenceError):
            solve_pinned_family(problem, pins, warm)

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

    def test_unpinned_zero_cap(self):
        # a cap of 0 on the offer the market values most: its bound is never
        # released, as a pin's is not, and every row finishes in the family
        for seed in range(4):
            problem = factor_market(seed, 30)
            caps = problem.caps.copy()
            caps[int(np.argmax(problem.linear))] = 0.0
            problem = replace(problem, caps=caps)
            warm = solve(problem).weights
            pins = np.flatnonzero(warm)
            assert pins.size >= 3
            assert qp._face_family(*family_args(problem, pins), warm)[1].all()
            for pin in pins:
                assert assert_matches_cold(problem, pin, warm)[caps == 0.0] == 0.0


def greedy_reference(l: np.ndarray, mass: float, caps: np.ndarray) -> np.ndarray:
    """Reference: fill one coordinate at a time, best first."""
    w = np.zeros_like(l)
    remaining = mass
    for i in np.argsort(-l, kind="stable"):
        take = min(float(caps[i]), remaining)
        w[i] = take
        remaining -= take
        if remaining <= 0.0:
            break
    return w


class TestGreedyFill:
    def test_stack_matches_a_row_loop(self):
        # ties, zero caps and infinite caps; a vector, and a stack whose rows
        # have their own mass, as ``_warm_start`` hands them over
        rng = np.random.default_rng(227)
        for _ in range(300):
            r, n = int(rng.integers(1, 6)), int(rng.integers(1, 20))
            mass = np.exp(rng.uniform(np.log(1e-3), np.log(1e4), (r, 1)))
            L = np.round(rng.normal(0, 2, (r, n)), 1)   # ties are common
            caps = rng.uniform(0.0, 0.8, (r, n)) * mass
            caps[rng.uniform(size=(r, n)) < 0.2] = 0.0
            caps[rng.uniform(size=(r, n)) < 0.2] = np.inf
            caps[:, rng.integers(n)] = np.inf   # feasible rows
            W = qp._greedy_linear(L, mass, caps)
            for row in range(r):
                ref = greedy_reference(L[row], float(mass[row, 0]), caps[row])
                tol = 1e-15 * float(mass[row, 0])
                np.testing.assert_allclose(W[row], ref, rtol=0, atol=tol)
                np.testing.assert_allclose(
                    qp._greedy_linear(L[row], float(mass[row, 0]), caps[row]),
                    ref, rtol=0, atol=tol)
            # uncapped: the mass on the first largest entry
            np.testing.assert_array_equal(
                qp._greedy_linear(L[0], 1.0, None),
                greedy_reference(L[0], 1.0, np.full(n, np.inf)))


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
            # uncapped rows, without pins and with one pin each (not 0)
            pinned = np.zeros((r, n), dtype=bool)
            pinned[np.arange(r), rng.integers(1, n, r)] = True
            for route_caps, route_pins, bounds in (
                    (caps, None, caps),
                    (None, None, np.full((r, n), np.inf)),
                    (None, pinned, np.where(pinned, 0.0, np.inf))):
                W = _project(V, mass, route_caps, route_pins)
                for row in range(r):
                    ref = bisection_projection(V[row], mass, bounds[row])
                    scale = mass + float(np.max(np.abs(V[row])))
                    np.testing.assert_allclose(W[row], ref, rtol=0, atol=1e-12 * scale)
                    assert np.all(W[row][bounds[row] == 0.0] == 0.0)
                    np.testing.assert_array_equal(W[row], _project(
                        V[row], mass, None if route_caps is None else caps[row],
                        None if route_pins is None else pinned[row]))

    def test_pins_match_the_free_coordinates_projection(self):
        # an uncapped row is projected with its pins at -inf: bit for bit
        # the projection of its free coordinates, with zeros at the pins,
        # whatever the number of pins in each row
        rng = np.random.default_rng(211)
        for _ in range(300):
            r, n = int(rng.integers(1, 6)), int(rng.integers(2, 30))
            mass = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e4))))
            V = np.round(rng.normal(0, 2, (r, n)), 1) * mass   # ties are common
            pinned = rng.uniform(size=(r, n)) < rng.uniform(0.0, 0.9)
            pinned[np.arange(r), rng.integers(0, n, r)] = False   # one free
            W = _project(V, mass, None, pinned)
            for row in range(r):
                free = ~pinned[row]
                expected = np.zeros(n)
                expected[free] = _project(V[row][free], mass)
                np.testing.assert_array_equal(W[row], expected)
                np.testing.assert_array_equal(
                    _project(V[row], mass, None, pinned[row]), expected)

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


def qr_degenerate(problem: QpProblem, w: np.ndarray) -> bool:
    """Reference degeneracy flag: the optimal face as ``_detect_degenerate``
    finds it, and its smallest curvature along a QR basis of its sum-zero
    directions, the reduced Hessian B' H B."""
    g = qp.gradient(problem, w)
    tol = qp.DEGENERATE_TOL * problem._scale
    n = problem.dimension
    act_tol = 1e-8 * problem.mass / n
    mask = np.ones(n, dtype=bool)
    mask[list(problem.zero_set)] = False
    carrying = mask & (w > act_tol)
    if not carrying.any():
        return False
    lam = float(np.mean(g[carrying]))
    in_face = mask & (carrying | (np.abs(g - lam) <= tol))
    if problem.caps is not None:
        in_face &= ~((w >= problem.caps - act_tol) & (g - lam > tol))
    idx = np.flatnonzero(in_face)
    if idx.size < 2:
        return False
    if problem.risk == 0.0:
        return True
    H = 2.0 * problem.risk * problem.quadratic[np.ix_(idx, idx)]
    basis = np.linalg.qr(np.ones((idx.size, 1)), mode="complete")[0][:, 1:]
    reduced = basis.T @ H @ basis
    lo = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[0])
    return lo <= qp.DEGENERATE_TOL * float(np.max(np.abs(H)))


class TestSumZeroBasis:
    # ``_detect_degenerate`` reads the face's sum-zero curvature from the
    # centered face Hessian instead of a basis of the sum-zero directions

    def test_degenerate_flag_matches_qr(self):
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
            for p in (problem, problem.pinned(int(rng.integers(n)))):
                cases.append((p, solve(p).weights))
        flags = [_detect_degenerate(p, w) for p, w in cases]
        assert flags == [qr_degenerate(p, w) for p, w in cases]
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
        for mass in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="mass"):
                project_to_simplex(np.array([1.0, 2.0]), mass=mass)
        # a non-finite entry would come back as NaN weights, not an error
        for point in ([np.nan, 1.0], [np.inf, 1.0], [-np.inf, 1.0]):
            with pytest.raises(ValueError, match="finite"):
                project_to_simplex(np.array(point))

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


def with_min_eigenvalue(rng: np.random.Generator, n: int, slacks: float) -> np.ndarray:
    """A symmetric matrix with eigenvalues in [0.5, 1.5] but its smallest,
    which is ``slacks`` times the matrix's own ``psd_slack``."""
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    values = rng.uniform(0.5, 1.5, n)
    values[0] = 0.0
    for _ in range(2):   # the slack moves with the diagonal, by about 1e-7
        raw = basis @ np.diag(values) @ basis.T
        values[0] = slacks * psd_slack(raw)
    raw = basis @ np.diag(values) @ basis.T
    return 0.5 * (raw + raw.T)


class TestQuadraticScan:
    @pytest.fixture(autouse=True)
    def count_eigvalsh(self, monkeypatch):
        real, self.calls = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            self.calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)

    def assert_agrees(self, matrix: np.ndarray) -> bool:
        """The scan's PSD verdict is eigvalsh's, its bound is at least the
        largest eigenvalue, and a rejection reports the smallest one; return
        the verdict.  The scan calls eigvalsh only when the factorization
        fails: on a rejected matrix, or a PSD one that allows no slack."""
        self.calls.clear()
        peak, gap, floor, bound = quadratic_scan(matrix)
        fallbacks = len(self.calls)
        sym = matrix if gap == 0.0 else 0.5 * (matrix + matrix.T)
        eig = np.linalg.eigvalsh(sym)
        slack = psd_slack(matrix)
        assert fallbacks == (0 if floor >= -slack and slack > 0.0 else 1)
        assert peak == float(np.max(np.abs(matrix)))
        assert gap == float(np.max(np.abs(matrix - matrix.T)))
        assert (floor >= -slack) == (eig[0] >= -slack)
        assert bound >= eig[-1] - 1e-12 * abs(eig[-1])
        if floor < -slack:
            assert floor == float(eig[0])
        return bool(floor >= -slack)

    def test_edge_cases(self):
        assert quadratic_scan(np.zeros((0, 0))) == (0.0, 0.0, 0.0, 0.0)
        for n in (1, 2, 5):
            assert quadratic_scan(np.zeros((n, n))) == (0.0, 0.0, 0.0, 0.0)
            assert self.assert_agrees(np.zeros((n, n)))
        assert self.assert_agrees(np.array([[2.0]]))
        assert quadratic_scan(np.array([[2.0]]))[3] == 2.0
        assert not self.assert_agrees(np.array([[-1.0]]))
        # a zero diagonal allows no slack
        assert not self.assert_agrees(np.array([[0.0, 1.0], [1.0, 0.0]]))
        # far from symmetric: the symmetric part's largest eigenvalue,
        # (1 + sqrt(3)) / 2, exceeds every absolute row sum of M
        assert not self.assert_agrees(np.array([[1.0, 0.0, 0.0]] * 3))
        for bad in (np.nan, np.inf, -np.inf):
            matrix = np.eye(3)
            matrix[1, 2] = bad
            assert all(np.isnan(quadratic_scan(matrix)))

    def test_seeded_matrices(self):
        rng = np.random.default_rng(157)
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(1, 41))
            v = rng.standard_normal(n)
            g = rng.standard_normal((int(rng.integers(1, n + 1)), n))
            h = rng.standard_normal((n, n))
            assert self.assert_agrees(np.outer(v, v))          # rank 1
            assert self.assert_agrees(g.T @ g)                 # rank deficient
            assert self.assert_agrees(h.T @ h + 1e-6 * np.eye(n))
            verdicts.append(self.assert_agrees(h + h.T))      # indefinite
            verdicts.append(self.assert_agrees(np.diag(rng.uniform(-0.1, 1.0, n))))
        assert set(verdicts) == {True, False}

    def test_verdict_at_ten_slacks(self):
        rng = np.random.default_rng(163)
        for n in (2, 3, 6, 30, 100):
            assert self.assert_agrees(with_min_eigenvalue(rng, n, 10.0))
            assert not self.assert_agrees(with_min_eigenvalue(rng, n, -10.0))

    def test_asymmetry_inside_the_tolerance(self):
        rng = np.random.default_rng(167)
        for n in (2, 6, 40):
            for slacks in (10.0, -10.0):
                sym = with_min_eigenvalue(rng, n, slacks)
                skew = rng.standard_normal((n, n))
                skew -= skew.T
                skew *= 0.45 * qp.SYM_TOL * np.max(np.abs(sym)) / np.max(np.abs(skew))
                matrix = sym + skew
                peak, gap, _, _ = quadratic_scan(matrix)
                assert 0.0 < gap <= qp.SYM_TOL * peak
                assert self.assert_agrees(matrix) == (slacks > 0)

    def test_unit_sweep(self):
        # the verdict does not depend on the unit, and the bound scales with it
        rng = np.random.default_rng(173)
        for n in (2, 5, 40):
            for slacks in (10.0, -10.0):
                matrix = with_min_eigenvalue(rng, n, slacks)
                bound = quadratic_scan(matrix)[3]
                for unit in 10.0 ** np.arange(-6, 7):
                    assert self.assert_agrees(unit * matrix) == (slacks > 0)
                    assert quadratic_scan(unit * matrix)[3] == \
                        pytest.approx(unit * bound, rel=1e-12)


def reference_report(problem: QpProblem, w: np.ndarray) -> dict:
    """check_kkt's fields from their definitions, the projection by
    bisection."""
    c, Q, q, mass = problem.linear, problem.quadratic, problem.risk, problem.mass
    caps = np.full(c.size, np.inf) if problem.caps is None else problem.caps
    pins = sorted(problem.zero_set)
    scale = (float(np.max(np.abs(c))) + 2.0 * q * float(np.max(np.abs(Q))) * mass) or 1.0
    # the kernel's bound on the largest eigenvalue: Gershgorin's, the largest
    # absolute row sum of the symmetric part
    sym = 0.5 * (Q + Q.T)
    lam_bound = float(np.abs(sym).sum(axis=1).max())
    eta = 1.0 / max(2.0 * q * lam_bound, scale / mass)
    free = np.ones(c.size, dtype=bool)
    free[pins] = False
    mapped = np.zeros(c.size)
    mapped[free] = bisection_projection(
        (w + eta * (c - 2.0 * q * Q @ w))[free], mass, caps[free])
    fields = dict(mass_error=abs(float(w.sum()) - mass),
                  negativity=max(0.0, -float(w.min())),
                  pin_error=float(np.max(np.abs(w[pins]), initial=0.0)),
                  cap_excess=max(0.0, float(np.max(w - caps))),
                  stationarity=float(np.max(np.abs(w - mapped))) / eta)
    fields["residual"] = max(*list(fields.values())[:4],
                             fields["stationarity"] / scale)
    return fields, scale


class TestCheckKkt:
    def test_matches_a_bisection_reference(self):
        # uncapped, capped and pinned problems at their optimum, at
        # perturbed points and with weight moved onto a pinned coordinate;
        # each field agrees to 1e-12 relative, above a floor of the mass
        # (feasibility), the gradient scale (stationarity) or 1 (residual)
        # for fields that are rounding noise at the optimum
        rng = np.random.default_rng(139)
        seen = set()
        for kind in np.repeat(("uncapped", "capped", "pinned", "pinned_capped"), 10):
            n = int(rng.integers(2, 31))
            k = int(rng.integers(1, n)) if kind.startswith("pinned") else 0
            problem = QpProblem(
                linear=rng.uniform(0, 5, n),
                quadratic=random_quadratic(rng, n, "rank_deficient" if n > 2 and
                                           rng.uniform() < 0.5 else "full"),
                risk=float(np.exp(rng.uniform(np.log(1e-3), np.log(10)))),
                zero_set=frozenset(rng.choice(n, k, replace=False).tolist()),
                caps=rng.uniform(1.2, 3.0, n) / (n - k) if "capped" in kind else None)
            optimum = solve(problem).weights
            points = [optimum, optimum + rng.normal(0, 1e-3, n),
                      np.abs(optimum + rng.normal(0, 1e-2, n))]
            if k:
                moved = optimum.copy()
                share = 0.5 * float(moved.max())
                moved[int(np.argmax(moved))] -= share
                moved[min(problem.zero_set)] += share
                points.append(moved)
            for w in points:
                report = check_kkt(problem, w)
                ref, scale = reference_report(problem, w)
                floors = dict(mass_error=1.0, negativity=1.0, pin_error=1.0,
                              cap_excess=1.0, stationarity=scale, residual=1.0)
                for name, value in ref.items():
                    got = getattr(report, name)
                    assert abs(got - value) <= 1e-12 * (abs(value) + floors[name]), \
                        (kind, name, got, value)
                assert report.tolerance == qp.KKT_TOL
                assert report.passed == (ref["residual"] <= report.tolerance)
                seen.add(report.passed)
        assert seen == {True, False}

    def test_residual_does_not_depend_on_the_unit(self):
        # at the greedy vertex w = e_0 of c = [1, 0.5], Q = I, q = 0.25 + 1e-5
        # the gradient favours offer 1 by 2e-5, so the optimum lies inside;
        # in a unit s the data is c s, Q s^2, q / s and the gradient scales
        # by s.  A scale floored at 1 made the vertex's residual at s = 1e-6
        # about 1e-11, and it passed
        residuals = []
        for s in (1.0, 1e-6):
            problem = QpProblem(linear=np.array([1.0, 0.5]) * s,
                                quadratic=np.eye(2) * s * s,
                                risk=(0.25 + 1e-5) / s, mass=1.0)
            vertex = check_kkt(problem, np.array([1.0, 0.0]))
            optimum = check_kkt(problem, solve(problem).weights)
            assert not vertex.passed and optimum.passed
            residuals.append(vertex.residual)
        assert residuals[1] == pytest.approx(residuals[0], rel=1e-6)
        assert residuals[0] > 1e-6

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
