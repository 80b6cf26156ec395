"""The fair workloads: `fair_lifecycle` and `fair_market`.

Both replay seeded scenarios through fair-engine's public functions the way
`fair-engine fair-sim` does per event: a join is `Fair.join` followed by
`Fair.check_end` at the join's time, an advance is `Fair.check_end`, and an
ended fair is settled against the shared `SellerLedger` and its outputs
(event log, settlement CSVs, shipping plan) are written.  Time is logical;
each call waits for the one before it.

A market has products, each with its own sellers, and `slots` fairs open at
once per product.  Each slot is one scenario file with a stream of events;
when the slot's fair ends, the next join of that slot opens a new fair.  An
event arriving at or after the open fair's deadline first ends that fair by
time (no curve is built for that) and settles it.  `fair_lifecycle` is the
one-product, one-slot market.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

from fair_engine import fair as fair_mod
from fair_engine import fileio, geo
from fair_engine.money import frac_str

import oracle
from spans import JOIN_EVENT

# Workload make-up; the README explains each choice.
SHAPES = {
    "fair_lifecycle": dict(
        products=1, slots=1, n_sellers=50, stock=(20, 60), horizon=300,
        joins_per_slot=40, quantity=(1, 3), gap_s=(60, 600),
        wait_s=(5400, 28800), advance_every=2,
    ),
    "fair_market": dict(
        products=3, slots=2, n_sellers=20, stock=(10, 30), horizon=100,
        joins_per_slot=20, quantity=(1, 4), gap_s=(60, 600),
        wait_s=(1200, 5400), advance_every=3,
    ),
}
WHAT_IF = (10, 20, 40, 80)
MARGIN = "0.05"
FIDELITY_DISCOUNT = "0.04"
MAX_DURATION = 7 * 24 * 3600.0
SAMPLE_EVERY = 5  # every fifth join of a round is checked against the oracle
FULL_CURVE_CHECKS = 2  # joins whose whole price curve is re-derived


def _strata(rng: random.Random, n: int, inv_cdf) -> list[float]:
    """The midpoints of n equal-probability strata, in seeded order."""
    values = [inv_cdf((i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def draw_sellers(rng: random.Random, n: int, prefix: str, stock: tuple[int, int]) -> list[dict]:
    """Seller rows from fair-engine's population distributions, stratified.

    Single-product price ~ Normal(100, 20) CU, rate ~ Lognormal(-2, 2) CU/unit,
    saturation ~ Normal(60, 12) CU, stock ~ Uniform(stock).  Each parameter
    takes the midpoint of each of n equal-probability strata and the seed
    decides which seller gets which, so every seed's population has the same
    spread of curves; saturations are re-paired until 0 < sat < price.
    """
    p1s = [round(v, 2) for v in _strata(rng, n, NormalDist(100, 20).inv_cdf)]
    rates = [round(math.exp(v), 4) for v in _strata(rng, n, NormalDist(-2, 2).inv_cdf)]
    sats = [round(v, 2) for v in _strata(rng, n, NormalDist(60, 12).inv_cdf)]
    while not all(0 < sat < p1 for sat, p1 in zip(sats, p1s)):
        rng.shuffle(sats)
    lo, hi = stock
    stocks = [lo + int(v) for v in _strata(rng, n, lambda u: u * (hi - lo + 1))]
    return [
        {
            "id": f"{prefix}S{i:03d}", "form": "linear", "p1": f"{p1s[i]:.2f}",
            "rate": f"{rates[i]:.4f}", "sat": f"{sats[i]:.2f}", "availability": stocks[i],
            "x": round(rng.uniform(0, 100), 3), "y": round(rng.uniform(0, 100), 3),
        }
        for i in range(n)
    ]


def draw_events(rng: random.Random, shape: dict, tag: str) -> list[dict]:
    events, t = [], 0.0
    for j in range(shape["joins_per_slot"]):
        t += rng.uniform(*shape["gap_s"])
        events.append({
            "at": round(t, 3), "action": "join", "buyer_id": f"{tag}b{j:03d}",
            "quantity": rng.randint(*shape["quantity"]),
            "max_wait": round(rng.uniform(*shape["wait_s"]), 3),
            "payment_timing": rng.choice(["before", "on_delivery", "after"]),
            "fidelity": f"{rng.randint(0, 100) / 100:.2f}",
            "destination": [round(rng.uniform(0, 100), 3), round(rng.uniform(0, 100), 3)],
        })
        if (j + 1) % shape["advance_every"] == 0:
            t += rng.uniform(*shape["gap_s"])
            events.append({"at": round(t, 3), "action": "advance"})
    return events


@dataclass
class Inputs:
    files: list[Path]  # one scenario per slot
    stock: dict[str, int]  # seller id -> stock, as generated
    order: list[tuple[int, int]]  # (slot, event index), merged by time


def make_inputs(workload: str, seed: int, in_dir: Path) -> Inputs:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    in_dir.mkdir(parents=True, exist_ok=True)
    files, stock, streams = [], {}, []
    for p in range(shape["products"]):
        product = f"P{p}"
        sellers = draw_sellers(rng, shape["n_sellers"], f"{product}-", shape["stock"])
        stock.update((row["id"], row["availability"]) for row in sellers)
        demand = 0
        for s in range(shape["slots"]):
            events = draw_events(rng, shape, f"{product}s{s}")
            demand += sum(e["quantity"] for e in events if e["action"] == "join")
            scenario = {
                "product_id": product, "opened_at": 0.0, "sellers": sellers,
                "config": {"max_duration": MAX_DURATION, "margin": MARGIN,
                           "fidelity_discount": FIDELITY_DISCOUNT,
                           "curve_horizon": shape["horizon"]},
                "events": events, "what_if": list(WHAT_IF),
            }
            path = in_dir / f"{product}-slot{s}.json"
            path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
            files.append(path)
            streams.append(events)
        # Contested stock is safe only while demand fits: joins reserve nothing.
        if demand > sum(row["availability"] for row in sellers):
            raise ValueError(f"{workload}: product {product} demand {demand} exceeds its stock")
    merged = sorted(
        (e["at"], slot, i) for slot, events in enumerate(streams) for i, e in enumerate(events)
    )
    return Inputs(files, stock, [(slot, i) for _, slot, i in merged])


@dataclass
class FairLog:
    fair: object
    slot: int
    records: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    committed_before_settle: dict | None = None
    failed: bool = False


@dataclass
class Round:
    setup_s: float = 0.0
    wall_s: float = 0.0
    op_ms: list = field(default_factory=list)  # join events
    attempted: int = 0
    failures: list = field(default_factory=list)
    fairs: list = field(default_factory=list)
    # (log, demand, prediction, committed stock or None when not sampled)
    joins: list = field(default_factory=list)
    committed: dict = field(default_factory=dict)
    ledger: object = None
    scenarios: list = field(default_factory=list)
    digest: str = ""


def _join_record(fair, event, prediction) -> dict:
    # the event record `fair-sim` logs for a join
    return {
        "event": "join", "at": event.at, "fair_id": fair.fair_id,
        "buyer_id": event.order.buyer_id, "quantity": event.order.quantity,
        "demand": prediction.demand, "deadline": fair.deadline,
        "current_price": (frac_str(prediction.current_price_cents)
                          if prediction.current_price_cents is not None else None),
        "q_star": prediction.optimal.q_star,
        "z_star": frac_str(prediction.optimal.z_star_cents),
        "what_if": [[q, frac_str(z) if z is not None else None] for q, z in prediction.what_if],
    }


def play(inputs: Inputs, out_dir: Path, span, join_limit: int | None = None) -> Round:
    """One round: set up from the scenario files, replay every event, settle all."""
    rnd = Round()
    out_dir.mkdir(parents=True, exist_ok=True)

    with span("bench.setup"):
        t0 = time.perf_counter()
        scenarios = [fileio.read_scenario(str(path)) for path in inputs.files]
        sellers = {s.id: s for sc in scenarios for s in sc.sellers}
        ledger = fair_mod.SellerLedger(sellers.values())
        counters = [0] * len(scenarios)

        def open_next(slot: int, at: float) -> FairLog:
            sc = scenarios[slot]
            counters[slot] += 1
            fair = fair_mod.open_fair(
                sc.product_id, sc.sellers, sc.config, opened_at=at,
                fair_id=f"{sc.product_id}-s{slot}-{counters[slot]:03d}", ledger=ledger,
            )
            log = FairLog(fair=fair, slot=slot, deadlines=[fair.deadline])
            log.records.append({
                "event": "open", "at": at, "fair_id": fair.fair_id,
                "product_id": fair.product_id, "deadline": fair.deadline,
                "sellers": [s.id for s in fair.sellers],
            })
            rnd.fairs.append(log)
            return log

        open_logs: list[FairLog | None] = [
            open_next(slot, sc.opened_at) for slot, sc in enumerate(scenarios)
        ]
        rnd.setup_s = time.perf_counter() - t0
    rnd.ledger, rnd.scenarios = ledger, scenarios
    committed = rnd.committed

    def fail(what: str, exc: Exception) -> None:
        rnd.failures.append(f"{what}: {type(exc).__name__}: {exc}")

    def end_and_settle(log: FairLog, at: float, status) -> None:
        fair = log.fair
        log.records.append({"event": "end", "at": at, "fair_id": fair.fair_id,
                            "status": status.value, "demand": fair.demand})
        rnd.attempted += 1
        log.committed_before_settle = dict(committed)
        try:
            settlement = fair.settle(ledger=ledger)
            record = fileio.settlement_record(settlement)
            record.update({"event": "settle", "at": settlement.settled_at})
            log.records.append(record)
            fair_dir = out_dir / fair.fair_id
            fair_dir.mkdir(exist_ok=True)
            with open(fair_dir / "events.jsonl", "w", encoding="utf-8", newline="") as fh:
                fileio.write_event_log(log.records, fh)
            for name, rows_of in (("settlement_buyers.csv", fileio.settlement_buyer_rows),
                                  ("settlement_sellers.csv", fileio.settlement_seller_rows)):
                header, rows = rows_of(settlement)
                with open(fair_dir / name, "w", encoding="utf-8", newline="") as fh:
                    fileio.write_rows(header, rows, fh)
            if settlement.allocation is not None:
                plan = geo.shipping_plan(
                    settlement.allocation, list(fair.sellers),
                    [(o.buyer_id, o.quantity) for o in fair.orders],
                    {o.buyer_id: o.destination for o in fair.orders},
                )
                with open(fair_dir / "shipping_plan.csv", "w", encoding="utf-8", newline="") as fh:
                    fileio.write_shipping_plan(plan, fh)
        except Exception as exc:  # counted as a failed operation, the round goes on
            log.failed = True
            fail(f"settle {fair.fair_id}", exc)
            return
        for payment in settlement.seller_payments:
            committed[payment.seller_id] = committed.get(payment.seller_id, 0) + payment.quantity

    running = fair_mod.FairStatus.RUNNING
    joins = 0
    t_start = time.perf_counter()
    for slot, index in inputs.order:
        event = scenarios[slot].events[index]
        if event.action == "join":
            if join_limit is not None and joins >= join_limit:
                break
            joins += 1
        log = open_logs[slot]
        if log is not None and event.at >= log.fair.deadline:
            # the deadline passed before this event arrived
            end_and_settle(log, event.at, log.fair.check_end(event.at, ledger=ledger))
            open_logs[slot] = log = None
        if log is None:
            if event.action != "join":
                continue  # a tick with no fair open calls nothing
            open_logs[slot] = log = open_next(slot, event.at)
        fair = log.fair
        rnd.attempted += 1
        try:
            if event.action == "join":
                with span(JOIN_EVENT):
                    t = time.perf_counter()
                    prediction = fair.join(event.order, ledger=ledger, what_if=WHAT_IF)
                    status = fair.check_end(event.at, ledger=ledger)
                    rnd.op_ms.append((time.perf_counter() - t) * 1000.0)
                log.records.append(_join_record(fair, event, prediction))
                sampled = (len(rnd.joins) % SAMPLE_EVERY) == 0
                rnd.joins.append((log, prediction.demand, prediction,
                                  dict(committed) if sampled else None))
            else:
                status = fair.check_end(event.at, ledger=ledger)
        except Exception as exc:  # counted as a failed operation, the round goes on
            fail(f"{event.action} at {event.at} on {fair.fair_id}", exc)
            continue
        log.deadlines.append(fair.deadline)
        if status is not running:
            end_and_settle(log, event.at, status)
            open_logs[slot] = None
    for log in open_logs:
        if log is not None:
            status = log.fair.check_end(log.fair.deadline, ledger=ledger)
            end_and_settle(log, log.fair.deadline, status)
    rnd.wall_s = time.perf_counter() - t_start
    rnd.digest = digest_dir(out_dir)
    return rnd


def digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _offers(scenario, stock: dict, committed: dict) -> list[oracle.Offer]:
    return [
        oracle.Offer(s.id, stock[s.id] - committed.get(s.id, 0), s.curve.price_at)
        for s in scenario.sellers
    ]


def check(inputs: Inputs, rnd: Round) -> list[str]:
    """Check one round's outputs against the oracles; returns the faults found."""
    bad: list[str] = []
    margin = Fraction(MARGIN)

    full_checks = 0
    for log, demand, prediction, snapshot in rnd.joins:
        if snapshot is None:
            continue
        scenario = rnd.scenarios[log.slot]
        offers = _offers(scenario, inputs.stock, snapshot)
        fid = log.fair.fair_id
        if full_checks < FULL_CURVE_CHECKS:
            full_checks += 1
            horizon = max(scenario.config.curve_horizon, demand)
            q_cap = min(horizon, sum(o.capacity for o in offers))
            costs = oracle.min_costs(offers, q_cap)
            prices = [Fraction(c, q) for q, c in enumerate(costs[1:], start=1)]
            q_star, z_star = oracle.first_minimum(prices)
            if (prediction.optimal.q_star, prediction.optimal.z_star_cents) != (q_star, z_star):
                bad.append(f"{fid} demand {demand}: optimum {prediction.optimal} "
                           f"but oracle gives q*={q_star} z*={z_star}")
        else:
            costs = oracle.min_costs(offers, demand)
        if prediction.current_price_cents != Fraction(costs[demand], demand):
            bad.append(f"{fid} demand {demand}: price {prediction.current_price_cents} "
                       f"but oracle gives {Fraction(costs[demand], demand)}")

    settled = fair_mod.FairStatus.SETTLED
    for log in rnd.fairs:
        fair = log.fair
        fid = fair.fair_id
        if log.failed:
            continue
        if fair.status is not settled:
            bad.append(f"{fid} ended {fair.status.value}, not settled")
            continue
        if any(b > a for a, b in zip(log.deadlines, log.deadlines[1:])):
            bad.append(f"{fid}: deadline rose: {log.deadlines}")
        limit = min([fair.opened_at + MAX_DURATION]
                    + [o.join_time + o.max_wait for o in fair.orders])
        if fair.deadline != limit:
            bad.append(f"{fid}: deadline {fair.deadline}, earliest buyer limit {limit}")
        st = fair.settlement
        if st.buyers_total_cents != (1 + margin) * st.sellers_total_cents:
            bad.append(f"{fid}: buyers_total {st.buyers_total_cents} != "
                       f"(1 + {margin}) * {st.sellers_total_cents}")
        if fair.demand == 0:
            continue
        curves = {s.id: s.curve for s in fair.sellers}
        recomputed = sum(p.quantity * curves[p.seller_id].price_at(p.quantity)
                         for p in st.seller_payments)
        if recomputed != st.sellers_total_cents:
            bad.append(f"{fid}: sellers_total {st.sellers_total_cents} != {recomputed} from curves")
        if sum(p.quantity for p in st.seller_payments) != fair.demand:
            bad.append(f"{fid}: seller quantities do not cover demand {fair.demand}")
        offers = _offers(rnd.scenarios[log.slot], inputs.stock, log.committed_before_settle)
        best = oracle.min_costs(offers, fair.demand)[fair.demand]
        if best != st.sellers_total_cents:
            bad.append(f"{fid}: settled cost {st.sellers_total_cents}, oracle minimum {best}")

    for seller_id, total in inputs.stock.items():
        used = rnd.committed.get(seller_id, 0)
        if used > total or rnd.ledger.committed(seller_id) != used:
            bad.append(f"seller {seller_id}: stock {total}, settled {used}, "
                       f"ledger {rnd.ledger.committed(seller_id)}")
    return bad
