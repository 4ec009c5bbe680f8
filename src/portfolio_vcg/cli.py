"""File-based front end: allocate, price, qmap and verify commands.

Markets and call-count instances travel as JSON documents; numbers are
serialized with full round-trip precision so fixtures diff cleanly and
parse back bit-exactly.  Exit codes are a stable contract:

    0  success
    2  parse failure (unreadable file, malformed or missing fields)
    3  validation failure (invariants violated, infeasible, transform undefined)
    4  solver failure
    5  property violation from ``verify``
    6  the result could not be written: stdout closed before all of it was
       written (``| head``), or ``--output`` cannot be opened or written
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .allocation import (
    Allocation,
    QmapInstance,
    TransformUndefinedError,
    allocate,
    min_form_to_max_form,
)
from .market import DiagnosticsError, MarketInstance, Offer, make_market
from .pricing import PriceSchedule, QmapPricingError, price_schedule, qmap_prices
from . import qp
from .qp import InfeasibleProblemError, QpValidationError, SolverConvergenceError
from .verification import run_property_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_PROPERTY = 5
EXIT_OUTPUT = 6

_VALIDATION_ERRORS = (
    DiagnosticsError,
    QmapPricingError,
    TransformUndefinedError,
    QpValidationError,
    InfeasibleProblemError,
)


class ParseError(ValueError):
    """The input document is structurally unusable."""


class OutputError(RuntimeError):
    """The ``--output`` file cannot be opened or written."""


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"missing required field {key!r}")
    return doc[key]


def market_from_dict(doc: dict) -> MarketInstance:
    """Parse and validate a market document."""
    if not isinstance(doc, dict):
        raise ParseError("market document must be a JSON object")
    raw_offers = _require(doc, "offers")
    if not isinstance(raw_offers, list):
        raise ParseError("'offers' must be a list")
    offers = []
    for entry in raw_offers:
        if not isinstance(entry, dict):
            raise ParseError("each offer must be an object")
        try:
            offers.append(Offer(
                id=str(_require(entry, "id")),
                bid=float(_require(entry, "bid")),
                basis=str(entry.get("basis", "per_ad_call")),
                response_rate=(None if entry.get("response_rate") is None
                               else float(entry["response_rate"])),
            ))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad offer entry {entry!r}: {exc}") from exc
    try:
        sigma = np.array(_require(doc, "covariance"), dtype=float)
        q = float(_require(doc, "q"))
        pool_size = _require(doc, "pool_size")
        if not isinstance(pool_size, int) or isinstance(pool_size, bool):
            raise ParseError(f"'pool_size' must be an integer, got {pool_size!r}")
        caps = doc.get("caps")
        caps_arr = None
        if isinstance(caps, dict):
            stray = set(caps).difference(offer.id for offer in offers)
            if stray:
                raise ParseError(f"caps entry {min(stray)!r} names no offer")
        if caps is not None:
            caps_arr = np.array([float(caps[offer.id]) for offer in offers]) \
                if isinstance(caps, dict) else np.array(caps, dtype=float)
    except ParseError:
        raise
    except KeyError as exc:   # only a caps object's lookup by offer id
        raise ParseError(f"caps has no entry for offer {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed market document: {exc}") from exc
    return make_market(offers, sigma, q, pool_size, caps=caps_arr)


def market_to_dict(market: MarketInstance) -> dict:
    """Emit a market as a JSON-ready document (full float precision)."""
    doc = {
        "offers": [
            {
                "id": offer.id,
                "bid": float(offer.bid),
                "basis": offer.basis,
                "response_rate": (None if offer.response_rate is None
                                  else float(offer.response_rate)),
            }
            for offer in market.offers
        ],
        "covariance": [[float(v) for v in row] for row in market.sigma],
        "q": float(market.q),
        "pool_size": int(market.pool_size),
    }
    if market.caps is not None:
        doc["caps"] = [float(v) for v in market.caps]
    return doc


def qmap_from_dict(doc: dict) -> tuple[QmapInstance, str]:
    """Parse a call-count document; returns the instance and its form."""
    if not isinstance(doc, dict):
        raise ParseError("qmap document must be a JSON object")
    form = str(doc.get("form", "max"))
    if form not in ("max", "min"):
        raise ParseError(f"'form' must be 'max' or 'min', got {form!r}")
    try:
        c = np.array(_require(doc, "c_vector"), dtype=float)
        a = np.array(_require(doc, "a_matrix"), dtype=float)
        b_raw = doc.get("b_vector")
        # one entry per offer of c; validate_qmap reports a scalar c
        b = (np.zeros(c.shape[:1]) if b_raw is None
             else np.array(b_raw, dtype=float))
        q = float(_require(doc, "q"))
        m = _require(doc, "m")
        if not isinstance(m, int) or isinstance(m, bool):
            raise ParseError(f"'m' must be an integer, got {m!r}")
    except ParseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed qmap document: {exc}") from exc
    return QmapInstance(a_matrix=a, b_vector=b, c_vector=c, q=q, m=m), form


def _jsonable(value):
    """Recursively convert to plain JSON types; NaN and inf become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def _allocation_doc(alloc: Allocation) -> dict:
    return {
        "weights": alloc.weights,
        "call_counts": alloc.call_counts,
        "objective_value": alloc.objective_value,
    }


def _prices_doc(schedule: PriceSchedule) -> dict:
    return {
        "offer_prices": schedule.offer_prices,
        "risk_charge": schedule.risk_charge,
        "publisher_revenue": schedule.publisher_revenue,
        "per_ad_call": schedule.per_ad_call,
        "per_response": schedule.per_response,
        "restricted_objectives": schedule.restricted_objectives,
    }


def _diagnostics_doc(alloc: Allocation) -> dict:
    return {
        "iterations": alloc.iterations,
        "kkt_residual": alloc.kkt_residual,
        "degenerate": alloc.degenerate,
        "kkt_tol": qp.KKT_TOL,
        "max_iterations": qp.MAX_ITERATIONS,
    }


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _read_json(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), _digest(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _emit(result: dict, output: Optional[str]) -> None:
    text = json.dumps(_jsonable(result), indent=2, allow_nan=False)
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write {output}: {exc.strerror or exc}") from exc
        return
    try:
        # print's separate write of the newline also catches a reader that
        # left during the text's write when stdout is unbuffered
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull so that the
        # interpreter's flush at exit does not raise again (Python docs,
        # "Note on SIGPIPE"), and let ``main`` return EXIT_OUTPUT
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def cmd_allocate(args) -> int:
    doc, digest = _read_json(args.input)
    market = market_from_dict(doc)
    alloc = allocate(market)
    result = {
        "input_digest": digest,
        "allocation": _allocation_doc(alloc),
        "diagnostics": _diagnostics_doc(alloc),
    }
    _emit(result, args.output)
    print(f"allocated {market.n} offers; objective "
          f"{alloc.objective_value:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_price(args) -> int:
    doc, digest = _read_json(args.input)
    market = market_from_dict(doc)
    schedule = price_schedule(market)
    result = {
        "input_digest": digest,
        "allocation": _allocation_doc(schedule.allocation),
        "prices": _prices_doc(schedule),
        "diagnostics": _diagnostics_doc(schedule.allocation),
    }
    _emit(result, args.output)
    print(f"revenue {schedule.publisher_revenue:.6g}; risk charge "
          f"{schedule.risk_charge:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_qmap(args) -> int:
    doc, digest = _read_json(args.input)
    instance, form = qmap_from_dict(doc)
    if form == "min":
        instance = min_form_to_max_form(instance)
    schedule = qmap_prices(instance)
    alloc = schedule.allocation
    result = {
        "input_digest": digest,
        "form": form,
        "risk_weight": float(instance.q),
        "allocation": _allocation_doc(alloc),
        "prices": _prices_doc(schedule),
        "diagnostics": _diagnostics_doc(alloc),
    }
    _emit(result, args.output)
    print(f"call allocation over {instance.n} offers; revenue "
          f"{schedule.publisher_revenue:.6g}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_property_suite(args.property, trials=args.trials, seed=args.seed)
    result = {
        "input_digest": None,
        "seed": args.seed,
        "trials": args.trials,
        "reports": [asdict(rep) for rep in reports],
    }
    _emit(result, args.output)
    failed = [rep for rep in reports if not rep.passed]
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{rep.property}: {status} ({rep.trials} trials, "
              f"{rep.violations} violations)", file=sys.stderr)
    return EXIT_PROPERTY if failed else EXIT_OK


def _add_common(sub: argparse.ArgumentParser, needs_input: bool) -> None:
    if needs_input:
        sub.add_argument("--input", required=True, help="path to the JSON instance")
    sub.add_argument("--output", default=None,
                     help="write the JSON result here instead of stdout")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portfolio-vcg",
        description="Risk-averse ad-call portfolio allocation with "
                    "generalized VCG pricing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    alloc = commands.add_parser("allocate", help="compute the allocation only")
    _add_common(alloc, needs_input=True)
    alloc.set_defaults(func=cmd_allocate)

    price = commands.add_parser("price", help="compute allocation and prices")
    _add_common(price, needs_input=True)
    price.set_defaults(func=cmd_price)

    qmap = commands.add_parser("qmap", help="call-count allocation and prices")
    _add_common(qmap, needs_input=True)
    qmap.set_defaults(func=cmd_qmap)

    verify = commands.add_parser("verify", help="run property suites")
    _add_common(verify, needs_input=False)
    verify.add_argument("--seed", type=_nonnegative_int, default=42)
    verify.add_argument("--trials", type=_nonnegative_int, default=1000)
    verify.add_argument("--property", default="all",
                        choices=["truthfulness", "ir", "second_price",
                                 "oracle", "all"])
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _VALIDATION_ERRORS as exc:
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics:
            for code, message in diagnostics:
                print(f"validation error: {code}: {message}", file=sys.stderr)
        else:
            print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except BrokenPipeError:
        return EXIT_OUTPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
