"""Benchmark for fair-engine: one closed-loop client, logical time, one process.

    python3 perfbench/run.py --workload fair_lifecycle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`.
Inputs are generated from `--seed` under `.perfbench_out/`.  After one
untimed warm-up, the workload repeats whole rounds (one full replay of its
inputs) until `--seconds` have passed and at least MIN_OPS timed operations
were made.  Every round must write the same bytes, and the first timed
round's outputs are checked against the independent oracles in `oracle.py`.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer metrics from `spans.py`, per round.  The exit code
is 0 when every check passed, 1 when a check failed, and 2, with no result
line, when there is no engine to run or no operation succeeded.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, namedtuple
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("fair_lifecycle", "fair_market", "experiment_sweep")
Timings = namedtuple("Timings", "setup_s wall_s op_ms attempted failures digest")
MIN_OPS = 100  # so the p90 has ten samples beyond it
WARMUP_JOINS = 6

PER_LAYER = {
    # metric name: (unit, source) where source is a counter or self-time key;
    # times are self time averaged per round, counts are one round's count
    "allocation.fair_price_curve.calls": ("count", "allocation.fair_price_curve.calls"),
    "allocation.fair_price_curve.ms": ("ms/round", "allocation.fair_price_curve"),
    "allocation.curve_points": ("count", "allocation.curve_points"),
    "allocation.dp_cells": ("count", "allocation.dp_cells"),
    "allocation.optimal_allocation.calls": ("count", "allocation.optimal_allocation.calls"),
    "allocation.optimal_allocation.ms": ("ms/round", "allocation.optimal_allocation"),
    "allocation.greedy_allocation.calls": ("count", "allocation.greedy_allocation.calls"),
    "allocation.greedy_allocation.ms": ("ms/round", "allocation.greedy_allocation"),
    "allocation.optimal_demand.ms": ("ms/round", "allocation.optimal_demand"),
    "curves.price_at.calls": ("count", "curves.price_at.calls"),
    "fair.join.ms": ("ms/round", "fair.join"),
    "fair.check_end.ms": ("ms/round", "fair.check_end"),
    "fair.settle.ms": ("ms/round", "fair.settle"),
    "fair.ledger.effective_sellers.calls": ("count", "fair.ledger.effective_sellers.calls"),
    "fair.ledger.commits": ("count", "fair.ledger.commits"),
    "fair.ledger.rejections": ("count", "fair.ledger.rejections"),
    "geo.shipping_plan.ms": ("ms/round", "geo.shipping_plan"),
    "geo.routes": ("count", "geo.routes"),
    "synth.generate_sellers.calls": ("count", "synth.generate_sellers.calls"),
    "synth.generate_sellers.ms": ("ms/round", "synth.generate_sellers"),
    "fileio.read.ms": ("ms/round", "fileio.read"),
    "fileio.write.ms": ("ms/round", "fileio.write"),
    "fileio.bytes_written": ("bytes", "fileio.bytes_written"),
    "cli.self_ms": ("ms/round", "cli.main"),
}


def abort(message: str) -> None:
    """Exit without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_engine() -> None:
    if not (ROOT / "src" / "fair_engine" / "__init__.py").is_file():
        abort(f"no fair-engine sources under {ROOT / 'src'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("FAIR_ENGINE_THREADS", None)  # the experiment runs serially


def check_oracles(seed: int) -> list[str]:
    """The oracles must agree with the test suite's brute force on small instances."""
    from fair_engine.allocation import Seller
    from fair_engine.curves import LinearPlateauCurve

    import oracle

    path = ROOT / "tests" / "oracles.py"
    if not path.is_file():
        return [f"missing {path}"]
    spec = importlib.util.spec_from_file_location("suite_oracles", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)

    rng = random.Random(f"oracles:{seed}")
    bad = []
    for case in range(40):
        unlimited = case % 4 == 0
        sellers = []
        for i in range(rng.randint(1, 3 if unlimited else 4)):
            p1 = rng.randint(200, 15000)
            curve = LinearPlateauCurve(p1, Fraction(rng.randint(0, 400), 100), rng.randint(1, p1))
            sellers.append(Seller(f"S{i}", curve, None if unlimited else rng.randint(0, 6)))
        offers = [oracle.Offer(s.id, s.availability, s.curve.price_at) for s in sellers]
        total = None if unlimited else sum(s.availability for s in sellers)
        if total == 0:
            continue
        q = rng.randint(1, 8 if unlimited else min(total, 12))
        expected = suite.brute_force_min_cost(sellers, q)
        if oracle.min_costs(offers, q)[q] != expected:
            bad.append(f"oracle DP disagrees with brute force on case {case}")
        if unlimited and oracle.min_scan(offers, q)[q - 1] * q != expected:
            bad.append(f"min-scan envelope disagrees with brute force on case {case}")
        if oracle.greedy_price(offers, q) * q < expected:
            bad.append(f"greedy oracle beats brute force on case {case}")
    return bad


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def layer_metrics(counts, total_ms, rounds, joins_per_round) -> dict:
    """One round's counts, and self times summed over `rounds` rounds, as metrics."""
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        value = total_ms[key] / rounds if unit == "ms/round" else counts[key]
        metrics[name] = {"value": value, "unit": unit}
    builds = counts["fair.join_event_curve_builds"]
    metrics["fair.curve_builds_per_join"] = {
        "value": builds / joins_per_round if joins_per_round else 0.0, "unit": "1/join"
    }
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    load_engine()

    import fairs
    import spans
    import sweep

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    bad = check_oracles(args.seed)

    if args.workload == "experiment_sweep":
        inputs = sweep.make_inputs(args.seed, run_dir / "inputs")
        play = lambda out, warm=False: sweep.play(
            inputs, out, span, seeds=inputs.seeds[:1] if warm else None)
        check = lambda rnd, out: sweep.check(inputs, rnd, out)
    else:
        inputs = fairs.make_inputs(args.workload, args.seed, run_dir / "inputs")
        play = lambda out, warm=False: fairs.play(
            inputs, out, span, join_limit=WARMUP_JOINS if warm else None)
        check = lambda rnd, out: fairs.check(inputs, rnd)

    if tracer:
        spans.install(tracer)
    play(run_dir / "warmup", warm=True)
    if tracer:
        tracer.reset()

    out = run_dir / "rounds"
    # Only the first round keeps its detail for the checks; later rounds keep
    # their timings, so memory does not grow with the number of rounds.
    first, rounds, round_counts, round_ms = None, [], [], []
    start = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else None
        with span("bench.round"):
            rnd = play(out)
        if tracer:
            after = tracer.snapshot()
            counts = after[0] - before[0]
            # every round rewrites the same files, so their size is one round's output
            counts["fileio.bytes_written"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
            round_counts.append(counts)
            round_ms.append(after[1] - before[1])
        if first is None:
            first = rnd
        rounds.append(Timings(rnd.setup_s, rnd.wall_s, rnd.op_ms, rnd.attempted,
                              rnd.failures, rnd.digest))
        del rnd
        ops = sum(len(r.op_ms) + len(r.failures) for r in rounds)
        if time.perf_counter() - start >= args.seconds and (tracer or ops >= MIN_OPS):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if any(r.digest != first.digest for r in rounds):
        bad.append("rounds on the same inputs wrote different bytes")
    bad += check(first, out)
    shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]

    if tracer:
        if any(c != round_counts[0] for c in round_counts):
            bad.append("per-layer counts differ between rounds on the same inputs")
        total_ms = sum(round_ms, Counter())
        joins = len(first.op_ms) if args.workload != "experiment_sweep" else 0
        metrics = layer_metrics(round_counts[0], total_ms, len(rounds), joins)
        metrics["trace.wall_s"] = {
            "value": statistics.median(r.wall_s for r in rounds), "unit": "s"}
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        samples = [ms for r in rounds for ms in r.op_ms]
        if len(samples) < 2:
            abort(f"only {len(samples)} operations succeeded; no latency to report")
        metrics = {
            "setup_s": {"value": statistics.median(r.setup_s for r in rounds), "unit": "s"},
            "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
            "op_ms_p50": {"value": statistics.median(samples), "unit": "ms"},
            "op_ms_p90": {"value": percentile(samples, 90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"rounds={len(rounds)} ops={len(samples)}")

    for fault in failures:
        print(f"failed: {fault}")
    for fault in bad:
        print(f"check failed: {fault}", file=sys.stderr)
    print(json.dumps({
        "correct": not bad, "attempted": attempted, "failed": len(failures), "metrics": metrics,
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
