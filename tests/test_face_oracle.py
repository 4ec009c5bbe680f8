"""The cold ``solve`` against an exact oracle that enumerates the faces.

A face of {sum(w) = M, 0 <= w <= u} puts every coordinate at zero, at its
cap or free.  On a face the KKT conditions are a bordered linear system in
the free coordinates and the multiplier of the mass constraint; the
objective is concave, so the best feasible point among the faces' KKT
points is a global maximizer.  Some face holds an optimum where that system
has one solution (a vertex of the optimal set), so ``lstsq`` recovers it
exactly.  The oracle shares no code with the active set.
"""

import itertools

import numpy as np

from portfolio_vcg import QpProblem, solve

ZERO, FREE, CAP = 0, 1, 2


def face_oracle(problem: QpProblem) -> float:
    """The maximum over every face's KKT point (2^n faces uncapped, 3^n capped)."""
    n, mass, q = problem.dimension, problem.mass, problem.risk
    c, Q, caps = problem.linear, problem.quadratic, problem.caps
    grad_scale = float(np.max(np.abs(c))) + 2.0 * q * float(np.max(np.abs(Q))) * mass
    feas_tol, kkt_tol = 1e-12 * mass, 1e-9 * grad_scale
    states = (ZERO, FREE) if caps is None else (ZERO, FREE, CAP)
    best = -np.inf
    for face in itertools.product(states, repeat=n):
        face = np.array(face)
        free, at_cap = face == FREE, face == CAP
        w = np.where(at_cap, caps if caps is not None else 0.0, 0.0)
        k = int(free.sum())
        if k:
            # stationarity on the face, g_F = lam 1, and the mass left to it
            K = np.zeros((k + 1, k + 1))
            K[:k, :k] = 2.0 * q * Q[np.ix_(free, free)]
            K[:k, k] = K[k, :k] = 1.0
            rhs = np.append((c - 2.0 * q * Q @ w)[free], mass - w.sum())
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            if np.max(np.abs(K @ sol - rhs)) > kkt_tol:
                continue   # no stationary point on the face's affine hull
            w[free] = sol[:k]
        if abs(w.sum() - mass) > feas_tol or w.min() < -feas_tol:
            continue
        if caps is not None and np.max(w - caps) > feas_tol:
            continue
        g = c - 2.0 * q * Q @ w
        # a coordinate at zero may not gain, one at its cap may not lose
        lo = float(np.max(g[face == ZERO], initial=-np.inf))
        hi = float(np.min(g[at_cap], initial=np.inf))
        lam = sol[k] if k else lo
        if lo > lam + kkt_tol or hi < lam - kkt_tol:
            continue
        best = max(best, float(c @ w - q * (w @ Q @ w)))
    return best


def oracle_problems(rng: np.random.Generator):
    """Seeded problems: capped and uncapped, full-rank and rank-deficient
    Sigma, tied values, and call-count problems at mass 5000."""
    for kind in np.repeat(("full", "rank_deficient", "tied", "capped",
                           "capped_tied", "qmap"), 34):
        capped = kind.startswith("capped")
        n = int(rng.integers(2, 7 if capped else 9))
        g = rng.standard_normal((int(rng.integers(1, n + 1)) if kind != "full" else n, n))
        sigma = g.T @ g
        sigma /= np.linalg.eigvalsh(sigma)[-1]
        linear = rng.uniform(0.0, 5.0, n)
        if kind.endswith("tied"):
            linear = np.round(linear)
        if kind == "qmap":
            # c'w - q (w'Qw + b'w), b folded into the linear term
            q = float(np.exp(rng.uniform(np.log(1e-5), np.log(1e-1))))
            yield QpProblem(linear=linear - q * rng.uniform(0.0, 1.0, n),
                            quadratic=sigma, risk=q, mass=5000.0)
            continue
        caps = rng.uniform(1.2, 2.5, n) / n if capped else None
        yield QpProblem(linear=linear, quadratic=sigma,
                        risk=float(np.exp(rng.uniform(np.log(1e-2), np.log(10.0)))),
                        mass=1.0, caps=caps)


def test_cold_solve_matches_the_face_oracle():
    gaps = {}
    for problem in oracle_problems(np.random.default_rng(149)):
        scale = float(np.max(np.abs(problem.linear))) * problem.mass
        gap = abs(solve(problem).objective_value - face_oracle(problem)) / scale
        key = "qmap" if problem.mass > 1.0 else problem.caps is not None
        gaps[key] = max(gaps.get(key, 0.0), gap)
    assert max(gaps.values()) <= 1e-12, gaps
