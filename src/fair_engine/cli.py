"""Command-line interface: every engine capability, plot-ready output.

Subcommands: envelope, allocate, curve, fair-sim, experiment.  All output is
data (CSV by default, JSON with --format json); plotting is left to any
external tool.  Exit codes: 0 success, 2 input error, 3 infeasible model,
4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from . import fileio
from .allocation import (
    InfeasibleDemandError,
    fair_price_curve,
    greedy_allocation,
    optimal_allocation,
    optimal_demand,
)
from .curves import lower_envelope
from .fair import FairStatus, LifecycleError, SellerLedger, open_fair
from .geo import shipping_plan
from .money import frac_str
from .synth import generate_sellers, run_experiment

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _add_common(parser: argparse.ArgumentParser, out_help: str) -> None:
    parser.add_argument("--out", help=out_help)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@cache  # one parser per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fair-engine",
        description="Double-side aggregation engine for fair-based e-commerce.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="lower envelope of seller curves")
    p.add_argument("curves", help="curve CSV file")
    p.add_argument("--q-max", type=int, default=200)
    _add_common(p, "output file (default: stdout)")

    p = sub.add_parser("allocate", help="split a demand across sellers")
    p.add_argument("curves", help="curve CSV file with availabilities")
    p.add_argument("q", type=int, help="demand to allocate")
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    _add_common(p, "output file (default: stdout)")

    p = sub.add_parser("curve", help="per-seller price sweep or fair price curve")
    p.add_argument("curves", help="curve CSV file")
    p.add_argument("--q-max", type=int, default=200)
    p.add_argument(
        "--fair",
        action="store_true",
        help="emit the aggregated fair price curve instead of per-seller sweeps",
    )
    p.add_argument("--method", choices=("exact", "greedy"), default="exact")
    _add_common(p, "output file (default: stdout)")

    p = sub.add_parser("fair-sim", help="replay a fair lifecycle scenario")
    p.add_argument("scenario", help="scenario JSON file")
    _add_common(p, "output directory (default: current directory)")

    p = sub.add_parser("experiment", help="seeded availability-sweep experiment")
    p.add_argument("config", help="key = value config file")
    _add_common(p, "output directory (default: current directory)")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def _write_file(path, header, rows, fmt, comments=()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fileio.write_rows(header, rows, fh, fmt=fmt, comments=comments)


def _emit(args, header, rows) -> None:
    """Rows to the --out file, or to stdout without one."""
    if args.out:
        _write_file(args.out, header, rows, args.format)
    else:
        fileio.write_rows(header, rows, sys.stdout, fmt=args.format)


def _price_str(price_cents) -> str | None:
    return None if price_cents is None else frac_str(price_cents)


def _end_record(fair, at) -> dict:
    return {
        "event": "end",
        "at": at,
        "fair_id": fair.fair_id,
        "status": fair.status.value,
        "demand": fair.demand,
    }


def cmd_envelope(args) -> int:
    sellers = fileio.read_sellers_csv(args.curves)
    envelope = lower_envelope([(s.id, s.curve) for s in sellers], args.q_max)
    header, rows = fileio.envelope_rows(envelope)
    _emit(args, header, rows)
    status = sys.stdout if args.out else sys.stderr  # stdout holds only rows without --out
    for seg in envelope.segments:
        print(f"segment q={seg.q_from}..{seg.q_to} best={seg.seller_id}", file=status)
    return EXIT_OK


def cmd_allocate(args) -> int:
    sellers = fileio.read_sellers_csv(args.curves)
    if args.method == "greedy":
        allocation = greedy_allocation(sellers, args.q)
    else:
        allocation = optimal_allocation(sellers, args.q)
    header, rows = fileio.allocation_rows(allocation)
    _emit(args, header, rows)
    return EXIT_OK


def cmd_curve(args) -> int:
    sellers = fileio.read_sellers_csv(args.curves)
    if args.fair:
        curve = fair_price_curve(sellers, args.q_max, method=args.method)
        if not curve.costs:
            raise ValueError(
                f"{args.curves}: no seller has stock, so the fair price curve is empty"
            )
        best = optimal_demand(curve)
        header, rows = fileio.fair_curve_rows(curve)
        _emit(args, header, rows)
        status = sys.stdout if args.out else sys.stderr  # stdout holds only rows without --out
        print(f"optimal q*={best.q_star} z*={frac_str(best.z_star_cents)}", file=status)
    else:
        header, rows = fileio.curve_sweep_rows(sellers, args.q_max)
        _emit(args, header, rows)
    return EXIT_OK


def cmd_fair_sim(args) -> int:
    scenario = fileio.read_scenario(args.scenario)

    ledger = SellerLedger(scenario.sellers)
    fair = open_fair(
        scenario.product_id,
        scenario.sellers,
        scenario.config,
        opened_at=scenario.opened_at,
        ledger=ledger,
    )
    records = [
        {
            "event": "open",
            "at": scenario.opened_at,
            "fair_id": fair.fair_id,
            "product_id": fair.product_id,
            "deadline": fair.deadline,
            "sellers": [s.id for s in fair.sellers],
        }
    ]

    for i, event in enumerate(scenario.events):
        # a join at or after the deadline is not taken: check_end ends the fair by time
        if event.action == "join" and event.at < fair.deadline:
            try:
                prediction = fair.join(event.order, ledger=ledger, what_if=scenario.what_if)
            except (InfeasibleDemandError, ValueError) as exc:
                # the exit code stays the error's own; the message names the join
                exc.args = (f"events[{i}]: buyer {event.order.buyer_id}: {exc}",)
                raise
            records.append(
                {
                    "event": "join",
                    "at": event.at,
                    "fair_id": fair.fair_id,
                    "buyer_id": event.order.buyer_id,
                    "quantity": event.order.quantity,
                    "demand": prediction.demand,
                    "deadline": fair.deadline,
                    "current_price": _price_str(prediction.current_price_cents),
                    "q_star": prediction.optimal.q_star,
                    "z_star": frac_str(prediction.optimal.z_star_cents),
                    "what_if": [[q, _price_str(z)] for q, z in prediction.what_if],
                }
            )
        if fair.check_end(event.at, ledger=ledger) is not FairStatus.RUNNING:
            records.append(_end_record(fair, event.at))
            break
    else:
        fair.check_end(fair.deadline, ledger=ledger)
        records.append(_end_record(fair, fair.deadline))

    settlement = fair.settle(ledger=ledger)
    record = fileio.settlement_record(settlement)
    record.update({"event": "settle", "at": settlement.settled_at})
    records.append(record)

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "events.jsonl", "w", encoding="utf-8", newline="") as fh:
        fileio.write_event_log(records, fh)
    header, rows = fileio.settlement_buyer_rows(settlement)
    _write_file(out_dir / f"settlement_buyers.{args.format}", header, rows, args.format)
    header, rows = fileio.settlement_seller_rows(settlement)
    _write_file(out_dir / f"settlement_sellers.{args.format}", header, rows, args.format)

    # shipping plan only when every settled buyer shipped somewhere concrete
    if settlement.allocation is not None and all(
        o.destination is not None for o in fair.orders
    ):
        plan = shipping_plan(
            settlement.allocation,
            list(fair.sellers),
            [(o.buyer_id, o.quantity) for o in fair.orders],
            {o.buyer_id: o.destination for o in fair.orders},
        )
        name = out_dir / f"shipping_plan.{args.format}"
        with open(name, "w", encoding="utf-8", newline="") as fh:
            fileio.write_shipping_plan(plan, fh, fmt=args.format)

    print(f"fair {fair.fair_id}: {fair.status.value}, demand {fair.demand}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = fileio.read_experiment_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        config = replace(config, seed=args.seed)

    population = generate_sellers(config.population())
    runs = []
    for availability in config.availabilities:
        # failures are per entry: the rest of the list still runs
        try:
            runs.append(run_experiment(population, availability, config.q_max, config.method))
        except (ValueError, InfeasibleDemandError) as exc:
            label = fileio.availability_label(availability)
            print(f"availability={label} failed: {exc}", file=sys.stderr)
    if not runs:
        print("error: every availability entry failed", file=sys.stderr)
        return EXIT_INPUT

    for run in runs:
        for notice in run.notices:
            print(notice, file=sys.stderr)

    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    comments = fileio.experiment_comments(config)
    for run in runs:
        label = fileio.availability_label(run.availability)
        header, rows = fileio.experiment_curve_rows(run)
        name = out_dir / f"experiment_curves_{label}.{args.format}"
        _write_file(name, header, rows, args.format, comments)
    header, rows = fileio.experiment_summary_rows(runs)
    _write_file(out_dir / f"experiment_summary.{args.format}", header, rows, args.format, comments)
    return EXIT_OK


_COMMANDS = {
    "envelope": cmd_envelope,
    "allocate": cmd_allocate,
    "curve": cmd_curve,
    "fair-sim": cmd_fair_sim,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command(args)
    except InfeasibleDemandError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, LifecycleError) as exc:  # a bad input; a fault propagates
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
