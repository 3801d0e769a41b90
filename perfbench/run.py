#!/usr/bin/env python3
"""Seeded closed-loop benchmark of amlat.

    python3 perfbench/run.py --workload primes --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; amlat is imported from its ``src``.
One client in one single-threaded process issues each operation as soon
as the previous one returns.  With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the same operations in
alternating untraced and traced passes and prints the per-layer table.  Every result
is checked by an oracle that does not use the timed code.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = (3, 15)  # at least, at most
SETUP_BUDGET_S = 2.0  # repeat a cheap set-up until this much is spent
PASSES = 3
OVERRUN = 4.0  # a guard against a much slower program, not a noise filter
TRACE_ROUNDS = 2
TAIL_BEYOND = 10


class Abort(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def load_amlat():
    """Import amlat afresh from this checkout's src (not an installed copy)."""
    if not (SRC / "amlat" / "__init__.py").is_file():
        raise Abort(f"no amlat sources under {SRC}")
    for name in [m for m in sys.modules if m == "amlat" or m.startswith("amlat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    api = importlib.import_module("amlat")
    importlib.import_module("amlat.cli")
    if Path(api.__file__).resolve().parent != SRC / "amlat":
        raise Abort(f"imported amlat from {api.__file__}, not from {SRC}")
    return api


def setup(name: str, seed: int, seconds: float):
    """Import, input generation and pre-builds, timed as one set-up."""
    start = time.perf_counter()
    api = load_amlat()
    scale = seconds / PASSES / workloads.PASS_SECONDS
    workload = workloads.WORKLOADS[name](seed, scale)
    items = workload.prepare(api)
    return time.perf_counter() - start, api, workload, items


class Run:
    """One pass: latencies and compact results, in input order."""

    def __init__(self, items: list):
        self.items = items
        self.latencies: list[float] = []
        self.results: list = []  # (done, summary or error text)


def one_pass(api, workload, items: list) -> Run:
    """Closed loop: each operation is issued when the previous returns."""
    gc.collect()  # garbage of earlier passes and imports is not this pass's cost
    run = Run(items)
    for item in items:
        start = time.perf_counter()
        try:
            raw = workload.call(api, item)
        except Exception as exc:  # a failed operation is counted, not fatal
            run.latencies.append(time.perf_counter() - start)
            run.results.append((False, f"{type(exc).__name__}: {exc}"))
        else:
            run.latencies.append(time.perf_counter() - start)
            run.results.append((True, workload.summarize(item, raw)))
    return run


def timed(runs: list[Run]) -> float:
    return sum(sum(run.latencies) for run in runs)


def count_failures(workload, runs: list[Run]) -> tuple[list[bool], int]:
    """Check every result with the workload's oracle and print each failure.

    Returns, per input, whether all passes were correct, and the number of
    failed operations."""
    ok = [True] * len(runs[0].items)
    failed = 0
    for run in runs:
        for i, (item, (done, summary)) in enumerate(zip(run.items, run.results)):
            reason = workload.check(item, summary) if done else summary
            if reason is not None:
                failed += 1
                ok[i] = False
                label = item[0] if isinstance(item, tuple) else item
                print(f"FAILED {label}: {reason}")
    return ok, failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, by nearest rank; the smallest sample
    when there are no more than TAIL_BEYOND."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, n - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name, seed, seconds) -> dict:
    setups = [setup(name, seed, seconds)]
    while len(setups) < SETUP_REPEATS[1] and (
        len(setups) < SETUP_REPEATS[0] or sum(s[0] for s in setups) < SETUP_BUDGET_S
    ):
        setups.append(setup(name, seed, seconds))
    _, api, workload, items = setups[-1]
    # Every pass runs the same inputs, each on a fresh import so nothing
    # cached carries over.  An operation's latency is its best pass, so a
    # slow spell of a shared machine shorter than a run decides less.  The
    # number of passes is fixed: best-of-2 reads slower than best-of-3, so
    # dropping a pass when the machine is slow would double its effect.
    # Only a pass that would take the run past OVERRUN * seconds, as a
    # program several times slower would, is skipped.
    runs = [one_pass(api, workload, items)]
    while len(runs) < PASSES and timed(runs) + timed(runs[-1:]) <= OVERRUN * seconds:
        runs.append(one_pass(load_amlat(), workload, items))
    rss = peak_rss_mib()
    ok, failed = count_failures(workload, runs)
    best = [min(lat) for lat in zip(*(run.latencies for run in runs))]
    n, attempted = len(best), len(runs) * len(best)
    tail_s, pct = tail(best)
    metrics = {
        "latency_p50_s": (statistics.median(best), "s"),
        "latency_tail_s": (tail_s, "s"),
        "throughput_ops_per_s": (sum(ok) / sum(best), "1/s"),
        "peak_rss_mib": (rss, "MiB"),
        "setup_s": (statistics.median(s[0] for s in setups), "s"),
    }
    print(f"workload {name}  seed {seed}  closed loop, 1 client, {n} operations x {len(runs)} passes")
    beyond = round(n * (1 - pct / 100))
    print("timed wall per pass: " + " ".join(f"{timed([run]):.2f}" for run in runs) + " s")
    print(f"latency_tail_s is p{pct:.1f} of {n} best-of-{len(runs)} samples ({beyond} beyond it)")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} failed)")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(name, seed, seconds) -> dict:
    _, api, workload, items = setup(name, seed, seconds)
    # Untraced and traced passes alternate, and each side keeps its fastest
    # pass, so a slow spell of the machine does not pose as tracing cost.
    runs, untraced, traced = [], [], []
    for _ in range(TRACE_ROUNDS):
        runs.append(one_pass(api, workload, items))
        untraced.append(timed(runs[-1:]))
        with tracing.Tracer() as tracer:
            origin = time.perf_counter()
            runs.append(one_pass(api, workload, items))
        traced.append((timed(runs[-1:]), tracer, origin))
    _, failed = count_failures(workload, runs)
    untraced_s = min(untraced)
    traced_s, tracer, origin = min(traced, key=lambda t: t[0])
    metrics = tracer.table()
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans, origin)
    print(
        f"workload {name}  seed {seed}  {len(items)} operations, "
        f"{TRACE_ROUNDS} untraced and {TRACE_ROUNDS} traced passes, alternating"
    )
    print(f"tracing overhead {traced_s - untraced_s:.3f} s over {untraced_s:.3f} s untraced")
    print(f"{len(tracer.spans)} spans of the fastest traced pass written to {spans.relative_to(ROOT)}")
    return {"attempted": len(runs) * len(items), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measure = per_layer if args.trace else end_to_end
    try:
        out = measure(args.workload, args.seed, args.seconds)
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    width = max(len(k) for k in out["metrics"])
    for key, (value, unit) in out["metrics"].items():
        print(f"{key:<{width}}  {value:.6g} {unit}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
