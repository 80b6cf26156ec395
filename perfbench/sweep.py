"""The `experiment_sweep` workload: the `experiment` command, run in-process.

Each round runs `fair_engine.cli.main(["experiment", ...])` once per
sub-seed drawn from the run's seed, serially (FAIR_ENGINE_THREADS unset).
No fair and no ledger is involved.  The checks re-derive every curve row
and the summary from the written files with the independent oracles.
"""

from __future__ import annotations

import csv
import random
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from fair_engine import cli, fileio, synth

import oracle
from fairs import digest_dir

N_SELLERS = 60
Q_MAX = 200
AVAILABILITIES = (None, 10)  # None = unlimited
SUB_SEEDS = 16  # experiment commands per round, one population each


@dataclass
class Inputs:
    config: Path
    seeds: list[int]


def make_inputs(seed: int, in_dir: Path) -> Inputs:
    rng = random.Random(f"experiment_sweep:{seed}")
    seeds = [rng.randrange(2**32) for _ in range(SUB_SEEDS)]
    in_dir.mkdir(parents=True, exist_ok=True)
    config = in_dir / "experiment.cfg"
    labels = ", ".join("unlimited" if a is None else str(a) for a in AVAILABILITIES)
    config.write_text(
        f"n_sellers = {N_SELLERS}\nseed = {seeds[0]}\navailabilities = {labels}\n"
        f"q_max = {Q_MAX}\nmethod = exact\n",
        encoding="utf-8",
    )
    return Inputs(config, seeds)


@dataclass
class Round:
    setup_s: float = 0.0
    wall_s: float = 0.0
    op_ms: list = field(default_factory=list)  # experiment commands
    attempted: int = 0
    failures: list = field(default_factory=list)
    populations: dict = field(default_factory=dict)  # sub-seed -> sellers
    digest: str = ""


def play(inputs: Inputs, out_dir: Path, span, seeds: list[int] | None = None) -> Round:
    """One round: per sub-seed, read the config, draw the population, run the command."""
    rnd = Round()
    seeds = inputs.seeds if seeds is None else seeds
    with span("bench.setup"):
        t0 = time.perf_counter()
        for sub_seed in seeds:
            config = fileio.read_experiment_config(str(inputs.config))
            rnd.populations[sub_seed] = synth.generate_sellers(
                replace(config.population(), seed=sub_seed)
            )
        rnd.setup_s = time.perf_counter() - t0
    t_start = time.perf_counter()
    for sub_seed in seeds:
        argv = ["experiment", str(inputs.config), "--out", str(out_dir / str(sub_seed)),
                "--seed", str(sub_seed)]
        rnd.attempted += 1
        t = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as a failed operation, the round goes on
            rnd.failures.append(f"experiment --seed {sub_seed}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - t
        if code != 0:
            rnd.failures.append(f"experiment --seed {sub_seed}: exit code {code}")
            continue
        rnd.op_ms.append(elapsed * 1000.0)
    rnd.wall_s = time.perf_counter() - t_start
    rnd.digest = digest_dir(out_dir)
    return rnd


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _exact_price(summary: str, curves: dict, availability: int | None, q: int) -> Fraction:
    """Unit price of a written allocation summary such as `S001:3+S007:5`."""
    total_q = cost = 0
    for part in summary.split("+"):
        seller_id, _, qty = part.partition(":")
        x = int(qty)
        if x < 1 or (availability is not None and x > availability):
            raise ValueError(f"allocation {summary} breaks stock {availability}")
        total_q += x
        cost += x * curves[seller_id](x)
    if total_q != q:
        raise ValueError(f"allocation {summary} covers {total_q} units, not {q}")
    return Fraction(cost, q)


def check(inputs: Inputs, rnd: Round, out_dir: Path) -> list[str]:
    """Re-derive each sub-seed's written curves and summary; returns the faults found."""
    bad: list[str] = []
    for sub_seed, sellers in rnd.populations.items():
        run_dir = out_dir / str(sub_seed)
        curves = {s.id: s.curve.price_at for s in sellers}
        summary = {row["availability"]: row
                   for row in _read_csv(run_dir / "experiment_summary.csv")}
        for availability in AVAILABILITIES:
            label = "unlimited" if availability is None else str(availability)
            where = f"seed {sub_seed} availability {label}"
            offers = [oracle.Offer(s.id, availability, s.curve.price_at) for s in sellers]
            rows = _read_csv(run_dir / f"experiment_curves_{label}.csv")
            q_cap = Q_MAX if availability is None else min(Q_MAX, availability * len(sellers))
            if [int(r["q"]) for r in rows] != list(range(1, q_cap + 1)):
                bad.append(f"{where}: curve rows do not cover q = 1..{q_cap}")
                continue
            if availability is None:
                reference = [Fraction(p) for p in oracle.min_scan(offers, q_cap)]
            else:
                costs = oracle.min_costs(offers, q_cap)
                reference = [Fraction(c, q) for q, c in enumerate(costs[1:], start=1)]
            exact, gap = [], Fraction(0)
            for q, row in enumerate(rows, start=1):
                try:
                    z = _exact_price(row["best_allocation"], curves, availability, q)
                except (KeyError, ValueError) as exc:
                    bad.append(f"{where} q={q}: {exc}")
                    break
                exact.append(z)
                greedy = oracle.greedy_price(offers, q)
                gap = max(gap, (greedy - z) / z)
                if z != reference[q - 1] or row["z_exact"] != oracle.cu4(z):
                    bad.append(f"{where} q={q}: z_exact {row['z_exact']}, "
                               f"oracle {oracle.cu4(reference[q - 1])}")
                    break
                if (row["z_greedy"] != oracle.cu4(greedy)
                        or Decimal(row["z_greedy"]) < Decimal(row["z_exact"])):
                    bad.append(f"{where} q={q}: z_greedy {row['z_greedy']}, "
                               f"oracle {oracle.cu4(greedy)}")
                    break
            else:
                q_star, z_star = oracle.first_minimum(exact)
                expected = {
                    "q_star": str(q_star),
                    "z_star": oracle.cu4(z_star),
                    "nonmonotone": str(int(any(b > a for a, b in zip(exact, exact[1:])))),
                    "max_greedy_gap": oracle.decimal_str(gap, 6),
                }
                got = {key: summary.get(label, {}).get(key) for key in expected}
                if got != expected:
                    bad.append(f"{where}: summary {got}, recomputed {expected}")
    return bad
