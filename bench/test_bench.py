"""Self-tests for the benchmark: inputs, output checks and the traced run.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import portfolio_vcg.pricing as pricing
import pytest

import run
import tracing
import workloads


def _snapshot(work) -> str:
    """The pool as text, with each input file's content in place of its path."""
    items = [dict(item, input=Path(item["input"]).read_text()) if "input" in item else item
             for item in work.inputs]
    return json.dumps(items, sort_keys=True, default=lambda a: np.asarray(a).tolist())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = _snapshot(workloads.build(name, 7, tmp_path))
    again = _snapshot(workloads.build(name, 7, tmp_path))
    other = _snapshot(workloads.build(name, 8, tmp_path))
    assert first == again
    assert first != other


def test_capped_markets_stay_feasible_without_any_one_offer():
    pools = [workloads.build(name, 3, None).inputs
             for name in ("verify_small", "dense_capped")]
    items = [item for pool in pools for item in pool if item["caps"] is not None]
    assert items
    for item in items:
        caps = item["caps"]
        assert float(caps.sum() - caps.max()) >= 1.0


def test_output_check_flags_a_perturbed_price():
    item = workloads.build("verify_small", 0, None).inputs[12]   # plain, q > 0
    market, schedule = workloads.op_price(item)
    prices, problems = workloads.check_price(item, (market, schedule), None)
    assert problems == []

    tol = workloads.PRICE_RTOL * float(np.max(np.abs(market.mu)))
    bumped = np.array(prices)
    bumped[int(np.argmax(schedule.allocation.weights))] += 10 * tol
    _, problems = workloads.check_price(item, (market, schedule), bumped)
    assert any("reference" in p for p in problems)

    shifted = dataclasses.replace(schedule, offer_prices=bumped)
    _, problems = workloads.check_price(item, (market, shifted), prices)
    assert any("publisher_revenue" in p for p in problems)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reference_prices_match_the_package(name, tmp_path):
    runner = run.reference_pass(name, tmp_path / "reference")
    assert runner.attempted == len(runner.expected) > 0
    assert (runner.failed, runner.problems) == (0, [])


def _small_runner():
    work = workloads.build("verify_small", 5, None)
    return run.Runner(dataclasses.replace(work, inputs=work.inputs[:10]))


def test_traced_and_untraced_passes_see_the_same_ops():
    runner = _small_runner()
    plain_ops, _ = runner.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first_ops, _ = runner.run_pass(tracer)
        second_ops, _ = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert plain_ops == first_ops == second_ops == 10
    assert runner.failed == 0

    passes = runner.pass_ops[1:]
    counts = []
    for ids in passes:
        subset = [s for s in tracer.spans if s.op in ids]
        values = tracing.metrics(subset, len(ids), tracer.absent)
        counts.append({k: values[k] for k in tracing.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["qp.solve_calls"] > 0
    # wrappers are gone once uninstalled
    assert not hasattr(pricing.allocate, "__wrapped__")


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.PROBES, "market.validate",
                        ("portfolio_vcg.market", "no_such_function"))
    runner = _small_runner()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    values = tracing.metrics(tracer.spans, 10, tracer.absent)
    assert values["market.validate_ms"] is None
    assert values["market.validate_calls"] is None
    assert values["qp.solve_calls"] > 0
    assert runner.failed == 0


def test_benchmark_json_lists_the_metrics_the_runs_print():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {name: unit for name, (unit, _) in tracing.METRICS.items()}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {**per_layer,
                                                                 **run.TRACE_UNITS}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
