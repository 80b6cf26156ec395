"""File formats: curve CSV, result CSV/JSON writers, config and scenario files.

Curve input CSV, one seller per row, no header:

    id,linear,p1,rate,sat[,availability[,x,y]]
    id,tabular,thresholds,prices[,availability[,x,y]]

where thresholds/prices are `|`-separated band lists and availability is an
integer, `unlimited`, or empty.  All writers are byte-deterministic: fixed
column order, fixed decimal formatting, no wall-clock anywhere.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .allocation import Allocation, FairPriceCurve, Seller
from .curves import Envelope, PriceCurve, _check_quantity, linear_curve, tabular_curve
from .fair import BuyerHistory, BuyerOrder, FairConfig, PaymentTiming, Settlement, fidelity_score
from .geo import COORDINATE_NOTE, ORIGIN, Position, ShippingPlan
from .money import cu_str, frac_str, ratio, ratio_str
from .synth import RNG_ALGORITHM, ExperimentRun, PopulationSpec

__all__ = [
    "ParseError",
    "read_sellers_csv",
    "parse_seller_rows",
    "envelope_rows",
    "allocation_rows",
    "fair_curve_rows",
    "curve_sweep_rows",
    "availability_label",
    "experiment_curve_rows",
    "experiment_summary_rows",
    "shipping_plan_rows",
    "write_shipping_plan",
    "settlement_buyer_rows",
    "settlement_seller_rows",
    "write_rows",
    "ExperimentConfig",
    "read_experiment_config",
    "Scenario",
    "ScenarioEvent",
    "read_scenario",
    "write_event_log",
]


class ParseError(Exception):
    """Malformed input file; carries the offending line number."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


def _parse_availability(text: str) -> int | None:
    text = text.strip().lower()
    if text in ("", "unlimited", "inf"):
        return None
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"bad availability {text!r}") from None
    if value < 0:
        raise ValueError("availability must be >= 0")
    return value


def _seller_row(cells: Sequence[str], seen: set[str]) -> Seller:
    """One curve row's stripped cells as a Seller whose id is not in `seen` (it is added).

    Every malformed row raises ValueError.
    """
    if len(cells) < 2:
        raise ValueError("expected at least `id,form`")
    seller_id, form = cells[0], cells[1].lower()
    if seller_id in seen:
        raise ValueError(f"duplicate seller id {seller_id!r}")
    seen.add(seller_id)
    if form == "linear":
        if len(cells) < 5:
            raise ValueError("linear rows need p1, rate, sat")
        curve: PriceCurve = linear_curve(cells[2], cells[3], cells[4])
        rest = cells[5:]
    elif form == "tabular":
        if len(cells) < 4:
            raise ValueError("tabular rows need thresholds and prices")
        thresholds = [int(t) for t in cells[2].split("|") if t != ""]
        prices = [p for p in cells[3].split("|") if p != ""]
        if len(thresholds) != len(prices):
            raise ValueError("thresholds and prices differ in length")
        curve = tabular_curve(zip(thresholds, prices))
        rest = cells[4:]
    else:
        raise ValueError(f"unknown curve form {form!r}")
    if len(rest) > 3:
        raise ValueError(f"extra cells after y: {rest[3:]}")
    availability = _parse_availability(rest[0]) if rest else None
    x, y = [*rest[1:3], "", ""][:2]
    if (x == "") != (y == ""):
        raise ValueError("position needs both x and y")
    position = Position(float(x), float(y)) if x else ORIGIN
    return Seller(id=seller_id, curve=curve, availability=availability, position=position)


def parse_seller_rows(rows: Iterable[Sequence[str]], source: str = "<curves>") -> list[Seller]:
    sellers: list[Seller] = []
    seen: set[str] = set()
    n_lines = 0
    for line_no, row in enumerate(rows, start=1):
        n_lines = line_no
        cells = [c.strip() for c in row]
        if not cells or all(c == "" for c in cells):
            continue
        if cells[0].startswith("#"):
            continue
        try:
            sellers.append(_seller_row(cells, seen))
        except ValueError as exc:
            raise ParseError(source, line_no, str(exc)) from None
    if not sellers:
        raise ParseError(source, max(n_lines, 1), "no seller rows found")
    return sellers


def read_sellers_csv(path: str) -> list[Seller]:
    with open(path, newline="", encoding="utf-8") as fh:
        return parse_seller_rows(csv.reader(fh), source=path)


# ---------------------------------------------------------------- writers

Row = list


def envelope_rows(envelope: Envelope) -> tuple[list[str], list[Row]]:
    header = ["q", "seller_id", "price"]
    rows = [[p.q, p.seller_id, cu_str(p.price_cents)] for p in envelope.points]
    return header, rows


def allocation_rows(allocation: Allocation) -> tuple[list[str], list[Row]]:
    header = ["q", "seller_id", "q_sigma", "unit_price_sigma", "fair_unit_price"]
    fair_price = frac_str(allocation.fair_unit_price_cents)
    rows = [
        [allocation.total_quantity, e.seller_id, e.quantity, cu_str(e.unit_price_cents), fair_price]
        for e in allocation.entries
    ]
    return header, rows


def fair_curve_rows(curve: FairPriceCurve) -> tuple[list[str], list[Row]]:
    header = ["q", "z", "alloc_summary"]
    rows = [
        [p.q, frac_str(p.price_cents), text] for p, text in zip(curve.points, curve.summaries())
    ]
    return header, rows


def curve_sweep_rows(
    sellers: Sequence[Seller], q_max: int
) -> tuple[list[str], list[Row]]:
    _check_quantity(q_max)
    header = ["seller_id", "q", "price"]
    rows = []
    for seller in sorted(sellers, key=lambda s: s.id):
        for q in range(1, q_max + 1):
            rows.append([seller.id, q, cu_str(seller.curve.price_at(q))])
    return header, rows


def availability_label(availability: int | None) -> str:
    """How outputs name a per-seller stock: the number, or `unlimited`."""
    return "unlimited" if availability is None else str(availability)


def experiment_curve_rows(run: ExperimentRun) -> tuple[list[str], list[Row]]:
    header = ["availability", "q", "z_exact", "z_greedy", "best_allocation"]
    avail = availability_label(run.availability)
    exact, greedy = run.curve_exact, run.curve_greedy
    rows = [
        [avail, pe.q, frac_str(pe.price_cents), frac_str(pg.price_cents), text]
        for pe, pg, text in zip(exact.points, greedy.points, exact.summaries())
    ]
    return header, rows


def experiment_summary_rows(runs: Sequence[ExperimentRun]) -> tuple[list[str], list[Row]]:
    header = ["availability", "q_star", "z_star", "nonmonotone", "max_greedy_gap"]
    rows = []
    for run in runs:
        rows.append(
            [
                availability_label(run.availability),
                run.optimal.q_star,
                frac_str(run.optimal.z_star_cents),
                int(run.nonmonotone),
                ratio_str(run.max_greedy_gap),
            ]
        )
    return header, rows


def shipping_plan_rows(plan: ShippingPlan) -> tuple[list[str], list[Row]]:
    header = ["seller_id", "dest_x", "dest_y", "parcels", "km", "cost"]
    rows = [
        [
            r.seller_id,
            f"{r.destination.x:.3f}",
            f"{r.destination.y:.3f}",
            r.parcels,
            f"{r.distance_km:.3f}",
            cu_str(r.cost_cents),
        ]
        for r in plan.routes
    ]
    return header, rows


def write_shipping_plan(plan: ShippingPlan, fh: TextIO, fmt: str = "csv") -> None:
    header, rows = shipping_plan_rows(plan)
    comments = [COORDINATE_NOTE, f"total_cost={cu_str(plan.total_cost_cents)}"]
    write_rows(header, rows, fh, fmt=fmt, comments=comments)


def settlement_buyer_rows(settlement: Settlement) -> tuple[list[str], list[Row]]:
    header = ["buyer_id", "q", "unit_price", "total"]
    rows = [
        [c.buyer_id, c.quantity, frac_str(c.unit_price_cents), frac_str(c.total_cents)]
        for c in settlement.buyer_charges
    ]
    return header, rows


def settlement_seller_rows(settlement: Settlement) -> tuple[list[str], list[Row]]:
    header = ["seller_id", "q", "unit_price", "payment"]
    rows = [
        [p.seller_id, p.quantity, cu_str(p.unit_price_cents), cu_str(p.cost_cents)]
        for p in settlement.seller_payments
    ]
    return header, rows


def write_rows(
    header: list[str],
    rows: list[Row],
    fh: TextIO,
    fmt: str = "csv",
    comments: Sequence[str] = (),
) -> None:
    """Emit rows as CSV (with `#` comment lines) or as a JSON array."""
    if fmt == "csv":
        for comment in comments:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif fmt == "json":
        payload = {
            "comments": list(comments),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


# ----------------------------------------------------- experiment config

@dataclass(frozen=True)
class ExperimentConfig:
    n_sellers: int = 20
    seed: int = 0
    availabilities: tuple[int | None, ...] = (None,)
    q_max: int = 200
    method: str = "exact"

    def population(self) -> PopulationSpec:
        return PopulationSpec(n_sellers=self.n_sellers, seed=self.seed)


def read_experiment_config(path: str) -> ExperimentConfig:
    """Parse a `key = value` config file (# comments allowed).

    Each error names the offending key and the line it was set on; keys
    left out keep the `ExperimentConfig` defaults.
    """
    lines: dict[str, tuple[int, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(path, line_no, "expected `key = value`")
            key, _, value = line.partition("=")
            lines[key.strip().lower()] = (line_no, value.strip())

    fields: dict[str, object] = {}
    for key, (line_no, value) in lines.items():
        try:
            if key in ("n_sellers", "seed", "q_max"):
                fields[key] = int(value)
                least = 0 if key == "seed" else 1
                if fields[key] < least:
                    raise ValueError(f"must be at least {least}, got {value}")
            elif key == "method":
                if value not in ("exact", "greedy"):
                    raise ValueError(f"must be exact or greedy, got {value!r}")
                fields[key] = value
            elif key == "availabilities":
                parsed: list[int | None] = []
                for chunk in value.split(","):
                    chunk = chunk.strip().lower()
                    availability = None if chunk in ("unlimited", "inf") else int(chunk)
                    if availability in parsed:
                        raise ValueError(f"{chunk!r} repeats an earlier entry")
                    parsed.append(availability)
                fields[key] = tuple(parsed)
            else:
                raise ValueError("unknown config key")
        except ValueError as exc:
            raise ParseError(path, line_no, f"{key}: {exc}") from None
    return ExperimentConfig(**fields)


def experiment_comments(config: ExperimentConfig) -> list[str]:
    return [
        f"rng={RNG_ALGORITHM} seed={config.seed} n_sellers={config.n_sellers} "
        f"q_max={config.q_max} method={config.method}"
    ]


# ------------------------------------------------------------- scenarios

@dataclass(frozen=True)
class ScenarioEvent:
    at: float
    action: str  # "join" or "advance"
    order: BuyerOrder | None = None


@dataclass(frozen=True)
class Scenario:
    product_id: str
    sellers: tuple[Seller, ...]
    config: FairConfig
    opened_at: float
    events: tuple[ScenarioEvent, ...]
    what_if: tuple[int, ...] = ()


def _whole(value, name: str) -> int:
    """A scenario integer: `2`, `2.0` and `"2"` pass; `2.9` and `true` do not."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _finite(value, name: str) -> float:
    """An input number: `10`, `10.5` and `"10"` pass; `true`, NaN and inf do not."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _name(value, name: str) -> str:
    """An id: a non-empty JSON string; `null`, numbers and `""` do not pass."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _shaped(value, kind: type, name: str):
    """A JSON list (`kind` list) or object (`kind` dict), as it stands."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be {'a list' if kind is list else 'an object'}")
    return value


def _order(raw: dict, at: float) -> BuyerOrder:
    """The buyer order of a join event that happens at `at`."""
    timing = PaymentTiming(str(raw.get("payment_timing", "after")))
    if "history" in raw:
        hist = _shaped(raw["history"], dict, "history")
        fidelity = fidelity_score(
            BuyerHistory(
                purchases=_whole(hist.get("purchases", 0), "purchases"),
                payment_timing=PaymentTiming(str(hist.get("payment_timing", "after"))),
                social_actions=_whole(hist.get("social_actions", 0), "social_actions"),
                join_earliness=_finite(hist.get("join_earliness", 0.0), "join_earliness"),
            )
        )
    else:
        fidelity = ratio(str(raw.get("fidelity", 0)))
    dest = None
    if "destination" in raw:
        point = raw["destination"]
        if not (isinstance(point, list) and len(point) == 2):
            raise ValueError(f"destination must be [x, y], got {point!r}")
        dest = Position(*(_finite(c, "destination") for c in point))
    return BuyerOrder(
        buyer_id=_name(raw["buyer_id"], "buyer_id"),
        quantity=_whole(raw["quantity"], "quantity"),
        max_wait=_finite(raw["max_wait"], "max_wait"),
        join_time=at,
        payment_timing=timing,
        destination=dest,
        fidelity=fidelity,
    )


# a scenario's `config` keys, each read by (value, key name)
_CONFIG_READERS = {
    "max_duration": _finite,
    "margin": lambda value, _: ratio(str(value)),
    "fidelity_discount": lambda value, _: ratio(str(value)),
    "curve_horizon": _whole,
}


def read_scenario(path: str) -> Scenario:
    """Parse a fair-simulation scenario (JSON).

    Schema: product_id, sellers (curve-row objects), optional config
    (max_duration, margin, fidelity_discount, curve_horizon), opened_at,
    events: list of {at, action} where action is `join` (buyer_id,
    quantity, max_wait, optional payment_timing/fidelity/history/
    destination) or `advance` (clock tick that re-checks end conditions).
    Every error is reported at line 1 and names the part of the file
    being read (`config: `, `sellers[i]: `, `events[i]: `, `what_if[i]: `).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None

    where = ""
    try:
        _shaped(data, dict, "scenario")
        product_id = _name(data["product_id"], "product_id")
        seller_rows = _shaped(data["sellers"], list, "sellers")
        raw_events = _shaped(data.get("events", []), list, "events")
        raw_what_if = _shaped(data.get("what_if", []), list, "what_if")
        cfg = _shaped(data.get("config", {}), dict, "config")
        opened_at = _finite(data.get("opened_at", 0.0), "opened_at")

        sellers: list[Seller] = []
        seen: set[str] = set()
        for i, row in enumerate(seller_rows):
            where = f"sellers[{i}]: "
            _shaped(row, dict, "seller")
            form = str(row.get("form", "linear")).lower()
            cells = [_name(row["id"], "id"), form]
            if form == "linear":
                cells += [str(row.get("p1", "")), str(row.get("rate", "")), str(row.get("sat", ""))]
            else:
                cells += [str(row.get("thresholds", "")), str(row.get("prices", ""))]
            cells.append(str(row.get("availability", "unlimited")))
            cells += [str(row.get("x", 0.0)), str(row.get("y", 0.0))]
            sellers.append(_seller_row([c.strip() for c in cells], seen))

        where = "config: "
        fields = {}
        for key, value in cfg.items():
            if key not in _CONFIG_READERS:
                raise ValueError(f"unknown key {key!r}")
            fields[key] = _CONFIG_READERS[key](value, key)
        config = FairConfig(**fields)  # a key left out keeps FairConfig's default

        events: list[ScenarioEvent] = []
        for i, raw in enumerate(raw_events):
            where = f"events[{i}]: "
            _shaped(raw, dict, "event")
            at = _finite(raw["at"], "timestamp")
            if at < (events[-1].at if events else opened_at):
                raise ValueError("timestamps must not decrease")
            action = raw["action"]
            if action == "join":
                events.append(ScenarioEvent(at=at, action="join", order=_order(raw, at)))
            elif action == "advance":
                events.append(ScenarioEvent(at=at, action="advance"))
            else:
                raise ValueError(f"unknown action {action!r}")

        what_if = []
        for i, q in enumerate(raw_what_if):
            where = f"what_if[{i}]: "
            q = _whole(q, "demand")
            if q < 1:
                raise ValueError(f"demand must be at least 1, got {q}")
            what_if.append(q)
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        raise ParseError(path, 1, f"{where}{detail}") from None
    return Scenario(
        product_id=product_id,
        sellers=tuple(sellers),
        config=config,
        opened_at=opened_at,
        events=tuple(events),
        what_if=tuple(what_if),
    )


# ------------------------------------------------------------ event log

def write_event_log(records: Iterable[dict], fh: TextIO) -> None:
    """One strict JSON object per line, keys sorted.

    Records hold only JSON types: a value of another type raises TypeError,
    and a NaN or infinite number raises ValueError, as neither is JSON.
    """
    for record in records:
        fh.write(json.dumps(record, sort_keys=True, allow_nan=False))
        fh.write("\n")


def settlement_record(settlement: Settlement) -> dict:
    buyer_header, buyer_rows = settlement_buyer_rows(settlement)
    seller_header, seller_rows = settlement_seller_rows(settlement)
    return {
        "fair_id": settlement.fair_id,
        "allocation": settlement.allocation.summary() if settlement.allocation else "",
        "buyers": [dict(zip(buyer_header, row)) for row in buyer_rows],
        "sellers": [dict(zip(seller_header, row)) for row in seller_rows],
        "buyers_total": frac_str(settlement.buyers_total_cents),
        "sellers_total": cu_str(settlement.sellers_total_cents),
        "manager_revenue": frac_str(settlement.manager_revenue_cents),
        "settled_at": settlement.settled_at,
    }
