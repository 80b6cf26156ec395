"""Reference figures for the README: fixed shapes timed once, outside the benchmark.

    python3 perfbench/baselines.py

Run from the repository root.  Prints the median of REPEATS timings for the
shapes the roadmap quotes, the join/check split of one fair event, the
greedy/exact split of the experiment's curves, and the spread of a numpy
import across fresh interpreter processes.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
REPEATS = 3


def timed(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from fair_engine import cli
    from fair_engine.allocation import fair_price_curve
    from fair_engine.fair import BuyerOrder, FairConfig, SellerLedger, open_fair
    from fair_engine.synth import PopulationSpec, generate_sellers

    def population(n, availability, seed=0):
        return generate_sellers(PopulationSpec(n_sellers=n, seed=seed, availability=availability))

    for n, availability, q in ((20, 10, 200), (100, 46, 1000), (200, None, 2000)):
        sellers = population(n, availability)
        label = "unlimited" if availability is None else availability
        seconds = timed(lambda: fair_price_curve(sellers, q), 1 if q >= 2000 else REPEATS)
        print(f"exact curve n={n} avail={label} q={q}: {seconds * 1000:.1f} ms")

    for availability in (None, 10):
        sellers = population(60, availability)
        label = "unlimited" if availability is None else availability
        exact = timed(lambda: fair_price_curve(sellers, 600))
        greedy = timed(lambda: fair_price_curve(sellers, 600, method="greedy"))
        print(f"n=60 avail={label} q=600: exact {exact * 1000:.0f} ms, "
              f"greedy {greedy * 1000:.0f} ms")

    sellers = population(50, 40)
    ledger = SellerLedger(sellers)
    fair = open_fair("p", sellers, FairConfig(curve_horizon=1000), ledger=ledger)
    joins, checks = [], []
    for i in range(5):
        at = 60.0 * (i + 1)
        order = BuyerOrder(f"b{i}", 1, 7 * 86400.0, at)
        t = time.perf_counter()
        fair.join(order, ledger=ledger)
        joins.append(time.perf_counter() - t)
        t = time.perf_counter()
        fair.check_end(at, ledger=ledger)
        checks.append(time.perf_counter() - t)
    join_ms, check_ms = statistics.median(joins) * 1000, statistics.median(checks) * 1000
    print(f"fair event n=50 avail=40 horizon=1000: join {join_ms:.0f} ms + "
          f"check_end {check_ms:.0f} ms = {join_ms + check_ms:.0f} ms")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        config = Path(tmp) / "experiment.cfg"
        config.write_text("n_sellers = 60\nseed = 0\n"
                          "availabilities = unlimited, 5, 10, 20, 46, 100\nq_max = 600\n")
        argv = ["experiment", str(config), "--out", str(Path(tmp) / "out")]
        for threads in ("0", "2"):
            os.environ["FAIR_ENGINE_THREADS"] = threads
            seconds = timed(lambda: cli.main(argv))
            print(f"experiment n=60, 6 availabilities, q=600, FAIR_ENGINE_THREADS={threads}: "
                  f"{seconds:.2f} s")
        os.environ.pop("FAIR_ENGINE_THREADS")

    probe = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
    imports = [float(subprocess.run([sys.executable, "-c", probe], check=True,
                                    capture_output=True, text=True).stdout) for _ in range(8)]
    print(f"numpy import in 8 fresh processes: min {min(imports):.3f} s, "
          f"median {statistics.median(imports):.3f} s, max {max(imports):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
