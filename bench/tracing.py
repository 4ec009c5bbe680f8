"""Span recording around the package's public functions, for the traced run.

``Tracer.install`` replaces each probed function under every name through
which a caller looks it up: the attribute of every ``portfolio_vcg``
module (and of ``numpy.linalg`` for the LAPACK calls) that holds the
original object.  ``pricing.allocate`` is imported by name, so the wrapper
goes on ``portfolio_vcg.pricing.allocate`` as well as on
``portfolio_vcg.allocation.allocate``.  A probe whose function no longer
exists is skipped and its metrics are reported as absent.

Spans (name, start, end, parent, op id) are kept in memory and reduced to
per-op metrics when the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

# span name -> (defining module, attribute)
PROBES = {
    "market.validate": ("portfolio_vcg.market", "validate_market"),
    "allocation.allocate": ("portfolio_vcg.allocation", "allocate"),
    "allocation.qmap_allocate": ("portfolio_vcg.allocation", "qmap_allocate"),
    "allocation.validate_qmap": ("portfolio_vcg.allocation", "validate_qmap"),
    "pricing.price_schedule": ("portfolio_vcg.pricing", "price_schedule"),
    "pricing.qmap_prices": ("portfolio_vcg.pricing", "qmap_prices"),
    "pricing.risk_charge": ("portfolio_vcg.pricing", "price_risk_participant"),
    "qp.solve": ("portfolio_vcg.qp", "solve"),
    "qp.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "qp.linsolve": ("numpy.linalg", "solve"),
    "qp.lstsq": ("numpy.linalg", "lstsq"),
    "verification.truthfulness": ("portfolio_vcg.verification", "check_truthfulness"),
    "verification.ir": ("portfolio_vcg.verification", "check_individual_rationality"),
    "cli.market_from_dict": ("portfolio_vcg.cli", "market_from_dict"),
    "cli.qmap_from_dict": ("portfolio_vcg.cli", "qmap_from_dict"),
    "cli.main": ("portfolio_vcg.cli", "main"),
}

# metric -> (unit, probes it needs); absent when any of those is missing
METRICS = {
    "market.validate_ms": ("ms", ["market.validate"]),
    "market.validate_calls": ("count", ["market.validate"]),
    "allocation.allocate_ms": ("ms", ["allocation.allocate"]),
    "allocation.allocate_calls": ("count", ["allocation.allocate"]),
    "allocation.qmap_allocate_calls": ("count", ["allocation.qmap_allocate"]),
    "allocation.validate_qmap_calls": ("count", ["allocation.validate_qmap"]),
    "pricing.pinned_solves": ("count", ["qp.solve"]),
    "pricing.pinned_ms": ("ms", ["qp.solve"]),
    "pricing.pinned_known_frac": ("ratio", ["qp.solve", "allocation.allocate"]),
    "pricing.pinned_known_ms": ("ms", ["qp.solve", "allocation.allocate"]),
    "pricing.risk_charge_ms": ("ms", ["pricing.risk_charge"]),
    "pricing.self_ms": ("ms", ["pricing.price_schedule", "pricing.qmap_prices"]),
    "qp.solve_calls": ("count", ["qp.solve"]),
    "qp.solve_ms": ("ms", ["qp.solve"]),
    "qp.iterations_mean": ("iterations", ["qp.solve"]),
    "qp.zero_iter_frac": ("ratio", ["qp.solve"]),
    "qp.eigvalsh_calls": ("count", ["qp.eigvalsh"]),
    "qp.eigvalsh_ms": ("ms", ["qp.eigvalsh"]),
    "qp.linsolve_calls": ("count", ["qp.linsolve", "qp.lstsq"]),
    "verification.truthfulness_ms": ("ms", ["verification.truthfulness"]),
    "verification.ir_ms": ("ms", ["verification.ir"]),
    "cli.parse_ms": ("ms", ["cli.market_from_dict", "cli.qmap_from_dict"]),
    "cli.self_ms": ("ms", ["cli.main"]),
}

# metrics that count work, not time: they repeat exactly for a fixed pool
COUNT_METRICS = tuple(name for name, (unit, _) in METRICS.items() if unit != "ms")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    # qp.solve: pinned offers (empty for a full solve), iterations, and
    # whether every pinned offer had zero weight in the op's allocation
    pinned: tuple = ()
    iterations: Optional[int] = None
    known: bool = False
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    absent: set = field(default_factory=set)
    op: Optional[int] = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _weights: object = None   # weights of the op's latest allocation

    # ------------------------------------------------------------ lifecycle
    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "portfolio_vcg" or name.startswith("portfolio_vcg.")]
        for span_name, (module_name, attr) in PROBES.items():
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.add(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            owners = set(modules) | {sys.modules[module_name]}
            for module in owners:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._weights = None

    def end_op(self) -> None:
        self.op = None
        self._stack.clear()

    # -------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0,
                        tracer._stack[-1] if tracer._stack else None, tracer.op)
            if name == "qp.solve":
                tracer._annotate_pin(span, args[0] if args else kwargs["problem"])
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if span.parent is not None:
                    tracer.spans[span.parent].child_time += span.duration
            if name == "qp.solve":
                span.iterations = int(result.iterations)
            elif name in ("allocation.allocate", "allocation.qmap_allocate"):
                tracer._weights = result.weights
            return result

        traced.__wrapped__ = fn
        return traced

    def _annotate_pin(self, span: Span, problem) -> None:
        span.pinned = tuple(sorted(problem.zero_set))
        weights = self._weights
        span.known = (bool(span.pinned) and weights is not None
                      and weights.shape[0] == problem.dimension
                      and all(float(weights[i]) == 0.0 for i in span.pinned))


def metrics(spans: list, ops: int, absent: set) -> dict:
    """Per-op metrics over ``spans``; metrics of an absent probe map to None."""
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def pick(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total_ms(items):
        return 1e3 * sum(s.duration for s in items) / ops

    def self_ms(items):
        return 1e3 * sum(s.duration - s.child_time for s in items) / ops

    solves = pick("qp.solve")
    pinned = [s for s in solves if s.pinned]
    known = [s for s in pinned if s.known]
    values = {
        "market.validate_ms": total_ms(pick("market.validate")),
        "market.validate_calls": len(pick("market.validate")) / ops,
        "allocation.allocate_ms": total_ms(pick("allocation.allocate")),
        "allocation.allocate_calls": len(pick("allocation.allocate")) / ops,
        "allocation.qmap_allocate_calls": len(pick("allocation.qmap_allocate")) / ops,
        "allocation.validate_qmap_calls": len(pick("allocation.validate_qmap")) / ops,
        "pricing.pinned_solves": len(pinned) / ops,
        "pricing.pinned_ms": total_ms(pinned),
        "pricing.pinned_known_frac": len(known) / len(pinned) if pinned else 0.0,
        "pricing.pinned_known_ms": total_ms(known),
        "pricing.risk_charge_ms": total_ms(pick("pricing.risk_charge")),
        "pricing.self_ms": self_ms(pick("pricing.price_schedule", "pricing.qmap_prices")),
        "qp.solve_calls": len(solves) / ops,
        "qp.solve_ms": total_ms(solves),
        "qp.iterations_mean": (sum(s.iterations or 0 for s in solves) / len(solves)
                               if solves else 0.0),
        "qp.zero_iter_frac": (sum(s.iterations == 0 for s in solves) / len(solves)
                              if solves else 0.0),
        "qp.eigvalsh_calls": len(pick("qp.eigvalsh")) / ops,
        "qp.eigvalsh_ms": total_ms(pick("qp.eigvalsh")),
        "qp.linsolve_calls": len(pick("qp.linsolve", "qp.lstsq")) / ops,
        "verification.truthfulness_ms": total_ms(pick("verification.truthfulness")),
        "verification.ir_ms": total_ms(pick("verification.ir")),
        "cli.parse_ms": total_ms(pick("cli.market_from_dict", "cli.qmap_from_dict")),
        "cli.self_ms": self_ms(pick("cli.main")),
    }
    for metric, (_, needs) in METRICS.items():
        if any(probe in absent for probe in needs):
            values[metric] = None
    return values
