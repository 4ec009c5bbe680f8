"""Benchmark for portfolio-vcg: one workload per fresh process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify_small --seed 1 --seconds 25 --trace 0

The run is a closed loop with one client: each op starts when the previous
one has finished.  Inputs come from ``--seed``; the loop runs whole passes
over the input pool until ``--seconds`` have elapsed, so every run sees
the same mix of inputs.  Every op's output is checked outside the timed
region.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment and run details.

Before the timed loop, every run also prices the reference seed's pool
once and compares each price with reference.json, so a run on any seed
fails when the package's prices move.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
tracing.py) with the tracing overhead.  ``--write-reference``
regenerates reference.json from the package as it is.

This module imports numpy only after setting the BLAS thread count to
BLAS_THREADS, so that both sides of a comparison run with the same value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# one thread: no slower than two on these workloads, and steadier, since the
# op then does not wait on a second, shared CPU (see NOTES.md)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# reported by the traced run next to the per-layer metrics of tracing.METRICS
TRACE_UNITS = {"trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
               "trace.overhead_frac": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="a name from workloads.WORKLOADS")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json for the reference seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    return args


# ------------------------------------------------------------------ set-up

def setup_probe(args) -> int:
    """Time import plus one warm-up op in this fresh process.

    Input generation is excluded: it is the benchmark's work, not the
    package's.  Prints {"setup_s": ...} on the last line.
    """
    start = time.perf_counter()
    import portfolio_vcg  # noqa: F401
    if args.workload == "cli_files":
        import portfolio_vcg.cli  # noqa: F401
    imported = time.perf_counter() - start

    import workloads
    with work_dir() as workdir:
        work = workloads.build(args.workload, args.seed, workdir)
        start = time.perf_counter()
        work.op(work.inputs[0])
        warm = time.perf_counter() - start
    print(json.dumps({"setup_s": imported + warm}))
    return 0


def setup_seconds(args) -> list:
    """Run the set-up probe in fresh processes, one after another."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=150, cwd=ROOT, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


@contextmanager
def work_dir():
    """A temporary directory under bench/out, removed on exit."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------- measurement

class Runner:
    """Runs ops over a workload's pool and checks every output.

    The expected prices of an input are the given reference when there is
    one, and otherwise the prices its first op produced: a later pass over
    the same input must repeat them.
    """

    def __init__(self, work, reference=None):
        self.work = work
        self.expected = dict(enumerate(reference)) if reference else {}
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pass_ops = []   # range of op ids of each pass

    def run_op(self, index: int, tracer=None) -> None:
        item = self.work.inputs[index]
        op_id = self.attempted
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter()
        try:
            output = self.work.op(item)
        except Exception as exc:  # every failure is counted, never skipped
            output = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        self.latencies.append(elapsed)
        if isinstance(output, Exception):
            problems = [f"{type(output).__name__}: {output}"]
        else:
            try:
                prices, problems = self.work.check(item, output,
                                                   self.expected.get(index))
                self.expected.setdefault(index, prices)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append({"input": index, "problems": problems})

    def run_pass(self, tracer=None) -> tuple:
        """One op per input, in pool order; returns (ops, timed seconds)."""
        first = len(self.latencies)
        self.pass_ops.append(range(self.attempted,
                                   self.attempted + len(self.work.inputs)))
        for index in range(len(self.work.inputs)):
            self.run_op(index, tracer)
        timed = self.latencies[first:]
        return len(timed), sum(timed)


# ------------------------------------------------------------- environment

def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -------------------------------------------------------------------- runs

def reference_pass(name: str, workdir: Path) -> Runner:
    """One checked op per input of the reference seed's pool, against
    reference.json.  It runs before the timed loop and is not timed."""
    import workloads
    doc = json.loads(workloads.REFERENCE_PATH.read_text(encoding="utf-8"))
    workdir.mkdir()
    work = workloads.build(name, workloads.REFERENCE_SEED, workdir)
    rows = doc["workloads"][name]
    if len(rows) != len(work.inputs):
        raise ValueError(f"reference.json has {len(rows)} rows for {name}, "
                         f"the pool {len(work.inputs)} inputs")
    runner = Runner(work, rows)
    runner.run_pass()
    return runner


def untraced_run(args, runner) -> tuple:
    setup = setup_seconds(args)
    runner.run_op(0)                       # warm-up: lazy imports, BLAS threads
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        runner.run_pass()
    samples = runner.latencies[1:]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        # whole passes keep the input mix fixed; the rate over all of them
        # varied less between runs than the median pass rate did
        "ops_per_s": len(samples) / sum(samples),
        "op_ms_p50": 1e3 * statistics.median(samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    details = {"timed_ops": len(samples), "timed_s": sum(samples),
               "passes": len(runner.pass_ops), "setup_samples_s": setup}
    if len(samples) >= 100:
        details["op_ms_p90"] = 1e3 * statistics.quantiles(
            samples, n=10, method="inclusive")[-1]
    return metrics, details


def traced_run(args, runner) -> tuple:
    """Alternate untraced and traced passes, so both see the same machine."""
    import tracing
    runner.run_op(0)
    tracer = tracing.Tracer()
    plain = [0, 0.0]
    traced = [0, 0.0]
    traced_passes = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        ops, timed = runner.run_pass()
        plain = [plain[0] + ops, plain[1] + timed]
        tracer.install()
        try:
            ops, timed = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        traced = [traced[0] + ops, traced[1] + timed]
        traced_passes.append(runner.pass_ops[-1])
    values = tracing.metrics(tracer.spans, traced[0], tracer.absent)

    # counts must repeat exactly on every pass over the same pool
    per_pass = []
    for ids in traced_passes:
        subset = [s for s in tracer.spans if s.op in ids]
        counts = tracing.metrics(subset, len(ids), tracer.absent)
        per_pass.append({k: counts[k] for k in tracing.COUNT_METRICS})
    counts_repeat = all(p == per_pass[0] for p in per_pass)

    plain_rate, traced_rate = plain[0] / plain[1], traced[0] / traced[1]
    values.update({"trace.untraced_ops_per_s": plain_rate,
                   "trace.traced_ops_per_s": traced_rate,
                   "trace.overhead_frac": plain_rate / traced_rate - 1.0})
    units = {name: unit for name, (unit, _) in tracing.METRICS.items()}
    metrics = {}
    for name, unit in {**units, **TRACE_UNITS}.items():
        if values[name] is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = metric(values[name], unit)
    write_spans(args, tracer.spans)
    details = {"traced_ops": traced[0], "traced_passes": len(per_pass),
               "counts_repeat_across_passes": counts_repeat,
               "absent_probes": sorted(tracer.absent)}
    return metrics, details


def write_spans(args, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps([span.name, span.start, span.end,
                                     span.parent, span.op]) + "\n")


def write_reference() -> int:
    import workloads
    doc = {"seed": workloads.REFERENCE_SEED, "git_commit": git_commit(),
           "price_rtol": workloads.PRICE_RTOL, "workloads": {}}
    with work_dir() as workdir:
        for name in workloads.WORKLOADS:
            work = workloads.build(name, workloads.REFERENCE_SEED, workdir)
            rows = []
            for item in work.inputs:
                prices, problems = work.check(item, work.op(item), None)
                if problems:
                    print(f"{name}: {problems}", file=sys.stderr)
                    return 1
                rows.append(prices)
            doc["workloads"][name] = rows
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "portfolio_vcg" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:       # imports the package itself, timed
        return setup_probe(args)
    import workloads
    if not Path(workloads.pv.__file__).resolve().is_relative_to(SRC):
        print("bench: portfolio_vcg was not imported from the checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with work_dir() as workdir:
        checked = reference_pass(args.workload, workdir / "reference")
        work = workloads.build(args.workload, args.seed, workdir)
        runner = Runner(work)
        run = traced_run if args.trace else untraced_run
        metrics, details = run(args, runner)
    attempted = runner.attempted + checked.attempted
    failed = runner.failed + checked.failed
    details.update(size=work.size, reference_ops=checked.attempted,
                   attempted=attempted, failed=failed,
                   failed_frac=failed / attempted,
                   failures=(checked.problems + runner.problems)[:5])
    print(json.dumps({"environment": environment(args), "run": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
