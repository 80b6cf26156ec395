"""Opt-in tracing for the benchmark: spans and counters around public calls.

`install()` wraps fair-engine's public functions and methods in place (module
attributes, class methods), so the engine itself carries no tracing code.
Each wrapped call records a span (id, name, start, end, parent) in memory;
a span's self time is its duration minus the time of its child spans.
Seller-curve `price_at` calls are only counted, since a span per call would
swamp the work it measures.  Spans are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

# The benchmark opens this span around each join event (join + check_end),
# so curve builds made inside one can be counted per join.
JOIN_EVENT = "bench.join_event"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.self_ms: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds spent in child spans]
        self._open: Counter = Counter()
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_ms[name] += (duration - frame[1]) * 1000.0
            self.counts[name + ".calls"] += 1
            self.spans.append((frame[0], name, start, end, parent))

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.self_ms.clear()

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.counts), Counter(self.self_ms)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                    )
                )
                fh.write("\n")


def _replace_everywhere(modules, original, wrapper) -> None:
    """Point every module attribute bound to `original` at `wrapper`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _dp_cells(sellers, q_cap: int) -> int:
    """Cells the exact DP fills for one sweep to q_cap (computed, not counted)."""
    return sum(s.capacity(q_cap) * (q_cap + 1) for s in sellers)


def install(tracer: Tracer) -> None:
    """Wrap fair-engine's public layer functions so calls feed `tracer`."""
    import fair_engine
    from fair_engine import allocation, cli, curves, fair, fileio, geo, synth

    modules = [fair_engine, allocation, cli, curves, fair, fileio, geo, synth]
    counts = tracer.counts

    def curve_built(curve, sellers, q_max, method="exact", *args, **kwargs):
        counts["allocation.curve_points"] += len(curve.points)
        if tracer.is_open(JOIN_EVENT):
            counts["fair.join_event_curve_builds"] += 1
        if method == "exact":
            total = allocation.total_availability(sellers)
            q_cap = q_max if total is None else min(q_max, total)
            if q_cap >= 1:
                counts["allocation.dp_cells"] += _dp_cells(sellers, q_cap)

    def allocated(result, sellers, q, *args, **kwargs):
        counts["allocation.dp_cells"] += _dp_cells(sellers, q)

    def planned(plan, *args, **kwargs):
        counts["geo.routes"] += len(plan.routes)

    spanned = [
        (allocation, "fair_price_curve", "allocation.fair_price_curve", curve_built),
        (allocation, "optimal_allocation", "allocation.optimal_allocation", allocated),
        (allocation, "greedy_allocation", "allocation.greedy_allocation", None),
        (allocation, "optimal_demand", "allocation.optimal_demand", None),
        (geo, "shipping_plan", "geo.shipping_plan", planned),
        (synth, "generate_sellers", "synth.generate_sellers", None),
        (cli, "main", "cli.main", None),
    ]
    spanned += [(fileio, fn, "fileio.read", None) for fn in
                ("read_scenario", "read_experiment_config", "read_sellers_csv")]
    spanned += [(fileio, fn, "fileio.write", None) for fn in
                ("write_rows", "write_event_log", "write_shipping_plan")]
    for module, attr, name, after in spanned:
        original = getattr(module, attr)
        _replace_everywhere(modules, original, _spanned(tracer, name, original, after))

    for method in ("join", "check_end", "settle"):
        original = getattr(fair.Fair, method)
        setattr(fair.Fair, method, _spanned(tracer, f"fair.{method}", original))

    effective = fair.SellerLedger.effective_sellers

    def effective_sellers(self, sellers):
        counts["fair.ledger.effective_sellers.calls"] += 1
        return effective(self, sellers)

    commit = fair.SellerLedger.commit

    def ledger_commit(self, allocation_):
        try:
            commit(self, allocation_)
        except fair.LedgerCapacityError:
            counts["fair.ledger.rejections"] += 1
            raise
        counts["fair.ledger.commits"] += 1

    fair.SellerLedger.effective_sellers = effective_sellers
    fair.SellerLedger.commit = ledger_commit

    for cls in (curves.LinearPlateauCurve, curves.TabularCurve):
        price_at = cls.price_at

        def counted(self, q, _price_at=price_at):
            counts["curves.price_at.calls"] += 1
            return _price_at(self, q)

        cls.price_at = counted
