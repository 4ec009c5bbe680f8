"""Seeded inputs, timed operations and output checks for each workload.

Every workload turns ``--seed`` into a fixed pool of raw inputs (arrays or
JSON files) and one operation per input.  The inputs come from this
module's own generators, not from ``portfolio_vcg.random_market``, so a
change to the package's test distribution cannot move the benchmark.

An operation calls only the package's public functions, looked up at call
time (``pv.price_schedule``, ``cli.main``) so that a traced run sees the
wrapped names.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import portfolio_vcg as pv
import portfolio_vcg.cli as cli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0

# Prices must match to 1e-7 of the market's value scale (max |mu| times the
# pool mass).  With mu <= 5 that is at most 5e-7, inside the acceptance
# gate's absolute 1e-6.
PRICE_RTOL = 1e-7
# Slack for "full optimum >= every pinned optimum", as a share of the scale;
# the verification module uses an absolute 1e-9 for mu <= 5.
RESTRICTION_RTOL = 1e-10
REVENUE_RTOL = 1e-12
# Every capped market keeps sum(caps) - max(caps) at least this (see
# feasible_caps).
CAP_SLACK = 1.05


@dataclass(frozen=True)
class Workload:
    """A pool of inputs, the op run on each, and the op's output check.

    ``check(item, output, expected)`` returns (prices, problems); it runs
    outside the timed region.  ``expected`` is the reference price vector
    for the item, or None when there is none.
    """

    name: str
    inputs: list
    op: Callable[[dict], Any]
    check: Callable[[dict, Any, Any], tuple]
    size: str


# ---------------------------------------------------------------- generators

def feasible_caps(raw: np.ndarray) -> np.ndarray:
    """Scale caps up until every market with one offer removed is feasible.

    ``validate_market`` accepts any caps summing to at least 1, but a pinned
    solve drops one offer, and ``price_schedule`` raises
    InfeasibleProblemError when the others' caps sum below 1.  Requiring
    sum(caps) - max(caps) >= CAP_SLACK > 1 keeps every pinned solve feasible.
    """
    caps = np.asarray(raw, dtype=float)
    slack = float(caps.sum() - caps.max())
    if slack < CAP_SLACK:
        caps = caps * (CAP_SLACK / slack)
    return caps


def _offers_raw(rng: np.random.Generator, mu: np.ndarray) -> list:
    """Half per-ad-call, half per-response offers whose value is ``mu``."""
    rows = []
    for i, value in enumerate(mu):
        if rng.random() < 0.5:
            rows.append({"id": f"o{i}", "bid": float(value),
                         "basis": "per_ad_call", "response_rate": None})
        else:
            rate = float(rng.uniform(0.05, 0.5))
            rows.append({"id": f"o{i}", "bid": float(value) / rate,
                         "basis": "per_response", "response_rate": rate})
    return rows


def _gram(rng: np.random.Generator, n: int, unit_norm: bool) -> np.ndarray:
    g = rng.standard_normal((n, n))
    sigma = g.T @ g + 1e-6 * np.eye(n)
    if unit_norm:
        sigma = sigma / float(np.linalg.eigvalsh(sigma)[-1])
    return sigma


def _market_input(offers, sigma, q, caps=None, pool_size=1000) -> dict:
    return {"offers": offers, "sigma": sigma, "q": float(q),
            "pool_size": pool_size, "caps": caps}


def gen_verify_small(rng: np.random.Generator, workdir=None) -> list:
    """200 markets, n = 2..6; a quarter at q = 0 and a quarter capped.

    n and the regime are stratified over the pool (every (n, regime) pair
    appears ten times), so the op mix is the same for every seed, and the
    pool is large enough that its mean op time varies little with the seed.
    """
    pool = []
    for k in range(200):
        n = 2 + k % 5
        regime = (k // 5) % 4          # 0: q = 0, 1: capped, 2-3: plain
        mu = rng.uniform(0.0, 5.0, n)
        sigma = _gram(rng, n, unit_norm=False)
        q = 0.0 if regime == 0 else float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0))))
        caps = feasible_caps(rng.uniform(0.3, 1.0, n)) if regime == 1 else None
        item = _market_input(_offers_raw(rng, mu), sigma, q, caps)
        bidder = int(rng.integers(n))
        item["bidder"] = bidder
        item["delta"] = float(rng.uniform(-mu[bidder], 5.0))
        pool.append(item)
    return pool


def gen_sparse_large(rng: np.random.Generator, workdir=None) -> list:
    """Uncapped markets with n = 100, 150, 200, q = 1, unit-norm covariance."""
    pool = []
    for n in (100, 150, 200):
        mu = rng.uniform(0.0, 5.0, n)
        pool.append(_market_input(_offers_raw(rng, mu),
                                  _gram(rng, n, unit_norm=True), 1.0))
    return pool


def _factor_covariance(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    # factor loadings of size 2/sqrt(n) keep the diagonal at about a third of
    # the norm, so nearly every offer carries weight and about a third sit
    # at their cap
    f = rng.standard_normal((n, rank)) * (2.0 / np.sqrt(n))
    sigma = f @ f.T + np.diag(rng.uniform(0.5, 1.5, n))
    return sigma / float(np.linalg.eigvalsh(sigma)[-1])


def gen_dense_capped(rng: np.random.Generator, workdir=None) -> list:
    """n = 60, mu ~ U[4,5], low-rank-plus-diagonal covariance, q = 100, caps 1.5/n."""
    n = 60
    pool = []
    for _ in range(8):
        mu = rng.uniform(4.0, 5.0, n)
        sigma = _factor_covariance(rng, n, rank=3)
        caps = feasible_caps(np.full(n, 1.5 / n))
        pool.append(_market_input(_offers_raw(rng, mu), sigma, 100.0, caps))
    return pool


def _market_doc(item: dict) -> dict:
    doc = {"offers": item["offers"],
           "covariance": item["sigma"].tolist(),
           "q": item["q"], "pool_size": item["pool_size"]}
    if item["caps"] is not None:
        doc["caps"] = item["caps"].tolist()
    return doc


def gen_cli_files(rng: np.random.Generator, workdir: Path) -> list:
    """Four price markets and four qmap instances, n = 30, m = 5000.

    The pool alternates price and qmap ops; every other price market is
    capped and the qmap instances alternate max and min form.  Files are
    written here, during input generation, and each op reads one and
    writes its result.
    """
    n, m = 30, 5000
    docs = []
    for capped in (False, True, False, True):
        mu = rng.uniform(0.0, 5.0, n)
        q = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        caps = feasible_caps(np.full(n, 2.0 / n)) if capped else None
        docs.append(("price", _market_doc(_market_input(
            _offers_raw(rng, mu), _gram(rng, n, unit_norm=True), q, caps))))
        c = rng.uniform(0.5, 1.0, n)
        risk = float(rng.uniform(2e-4, 5e-4))
        form = "min" if capped else "max"
        docs.append(("qmap", {
            "form": form,
            "c_vector": c.tolist(),
            "a_matrix": _gram(rng, n, unit_norm=True).tolist(),
            "b_vector": rng.uniform(0.0, 0.1, n).tolist(),
            # the min form carries the reciprocal risk weight
            "q": risk if form == "max" else 1.0 / risk,
            "m": m,
        }))
    pool = []
    for k, (command, doc) in enumerate(docs):
        path = workdir / f"input_{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        if command == "price":
            scale = max(o["bid"] * (o["response_rate"] or 1.0) for o in doc["offers"])
            mass, caps = 1.0, doc.get("caps")
        else:
            scale, mass, caps = max(doc["c_vector"]) * m, float(m), None
        pool.append({"command": command, "input": str(path),
                     "output": str(workdir / f"output_{k}.json"),
                     "scale": scale, "mass": mass,
                     "caps": None if caps is None else np.asarray(caps)})
    return pool


# ---------------------------------------------------------------- operations

def _make_market(item: dict):
    offers = [pv.Offer(id=o["id"], bid=o["bid"], basis=o["basis"],
                       response_rate=o["response_rate"]) for o in item["offers"]]
    return pv.make_market(offers, item["sigma"], item["q"], item["pool_size"],
                          caps=item["caps"])


def op_price(item: dict):
    market = _make_market(item)
    return market, pv.price_schedule(market)


def op_verify(item: dict):
    market = _make_market(item)
    schedule = pv.price_schedule(market)
    truth = pv.check_truthfulness(market, item["bidder"], [item["delta"]],
                                  schedule=schedule)
    ir = pv.check_individual_rationality(market, schedule=schedule)
    return market, schedule, truth, ir


def op_cli(item: dict):
    # the CLI prints a one-line summary to stderr; keep it off the console
    with redirect_stderr(io.StringIO()):
        code = cli.main([item["command"], "--input", item["input"],
                         "--output", item["output"]])
    return code


# -------------------------------------------------------------------- checks

def price_problems(prices, revenue, objective, restricted, weights, scale,
                   mass, caps, expected) -> list:
    """Checks shared by every workload; ``expected`` may be None."""
    prices = np.asarray(prices, dtype=float)
    restricted = np.asarray(restricted, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (np.all(np.isfinite(prices)) and np.all(np.isfinite(restricted))):
        return ["non-finite price or pinned optimum"]
    problems = []
    total = float(np.sum(prices))
    if not math.isclose(revenue, total, rel_tol=REVENUE_RTOL,
                        abs_tol=REVENUE_RTOL * scale):
        problems.append(f"publisher_revenue {revenue!r} != sum(prices) {total!r}")
    worst = float(np.max(restricted - objective))
    if worst > RESTRICTION_RTOL * scale:
        problems.append(f"a pinned optimum exceeds the full one by {worst:.3e}")
    if abs(float(weights.sum()) - mass) > 1e-9 * mass or float(weights.min()) < 0.0:
        problems.append("allocation is off the simplex")
    if caps is not None and float(np.max(weights - caps * mass)) > 1e-9 * mass:
        problems.append("allocation exceeds a cap")
    tol = PRICE_RTOL * scale
    # an offer without weight leaves the others' optimum unchanged: price 0
    unpriced = np.abs(prices[weights == 0.0])
    if unpriced.size and float(unpriced.max()) > tol:
        problems.append(f"zero-weight offer priced {float(unpriced.max()):.3e}")
    if expected is not None:
        expected = np.asarray(expected, dtype=float)
        if expected.shape != prices.shape:
            problems.append("price vector has the wrong length")
        elif float(np.max(np.abs(prices - expected))) > tol:
            gap = float(np.max(np.abs(prices - expected)))
            problems.append(f"prices differ from reference by {gap:.3e} > {tol:.1e}")
    return problems


def _schedule_problems(market, schedule, expected) -> list:
    alloc = schedule.allocation
    return price_problems(schedule.offer_prices, schedule.publisher_revenue,
                          alloc.objective_value, schedule.restricted_objectives,
                          alloc.weights, float(np.max(np.abs(market.mu))), 1.0,
                          market.caps, expected)


def check_price(item: dict, output, expected) -> tuple[list, list]:
    market, schedule = output
    return (schedule.offer_prices.tolist(),
            _schedule_problems(market, schedule, expected))


def check_verify(item: dict, output, expected) -> tuple[list, list]:
    market, schedule, truth, ir = output
    problems = _schedule_problems(market, schedule, expected)
    if not truth.passed:
        problems.append(f"truthfulness report failed: {truth}")
    if not ir.passed:
        problems.append(f"individual-rationality report failed: {ir}")
    return schedule.offer_prices.tolist(), problems


def check_cli(item: dict, code, expected) -> tuple[list, list]:
    if code != 0:
        return [], [f"cli exit code {code}"]
    with open(item["output"], encoding="utf-8") as handle:
        doc = json.load(handle)
    prices, alloc = doc["prices"], doc["allocation"]
    return prices["offer_prices"], price_problems(
        prices["offer_prices"], prices["publisher_revenue"],
        alloc["objective_value"], prices["restricted_objectives"],
        alloc["weights"], item["scale"], item["mass"], item["caps"], expected)


# ------------------------------------------------------------------ assembly

# name -> (seed tag, generator, op, check, size); the tag keeps the
# workloads' random streams apart for one seed
WORKLOADS = {
    "verify_small": (1, gen_verify_small, op_verify, check_verify,
                     "200 markets, n = 2..6"),
    "sparse_large": (2, gen_sparse_large, op_price, check_price,
                     "3 markets, n = 100, 150, 200"),
    "dense_capped": (3, gen_dense_capped, op_price, check_price,
                     "8 markets, n = 60"),
    "cli_files": (4, gen_cli_files, op_cli, check_cli,
                  "4 price files and 4 qmap files, n = 30, m = 5000"),
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the workload's inputs for ``seed``; ``workdir`` holds files."""
    tag, generate, op, check, size = WORKLOADS[name]
    rng = np.random.default_rng([int(seed), tag])
    return Workload(name, generate(rng, workdir), op, check, size)
