"""Turn pytest-benchmark's `--benchmark-json` output into a BENCH record.

    python -m pytest benchmarks --benchmark-json=results.json
    python benchmarks/record.py results.json BENCH_<n>.json --label change

A record holds one run per label.  Each run keeps, per case (the pytest
node id), the median and IQR in seconds, the rounds and the parameters, and
beside them the git SHA and dirty flag of the checkout that ran, the Python
and numpy versions and `os.cpu_count()`.  Recording a label that the file
already holds replaces that run, so a parent and a change run sit side by
side.

With `--expect FILE`, the node ids listed in FILE (the output of
`pytest benchmarks --collect-only -q`) must each be in the results.  An
input with no cases, a case without a median, IQR, rounds or parameters,
or a missing expected case is refused with exit code 2 and no file written.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import metadata
from pathlib import Path

STATS = ("median", "iqr", "rounds")


class RecordError(ValueError):
    """The results cannot be recorded."""


def cases_of(results: dict) -> dict[str, dict]:
    """Each case's median, IQR, rounds and parameters, by node id."""
    benchmarks = results.get("benchmarks") or []
    if not benchmarks:
        raise RecordError("the results hold no benchmark cases")
    cases = {}
    for bench in benchmarks:
        name = bench.get("fullname")
        stats = bench.get("stats") or {}
        missing = [key for key in STATS if key not in stats]
        if "params" not in bench:
            missing.append("params")
        if not name or missing:
            raise RecordError(f"case {name!r} lacks {', '.join(missing) or 'a name'}")
        cases[name] = {
            "median_s": stats["median"],
            "iqr_s": stats["iqr"],
            "rounds": stats["rounds"],
            "params": bench["params"] or {},
        }
    return cases


def expected_ids(collected: str) -> list[str]:
    """The node ids in `pytest --collect-only -q` output: its lines holding `::`."""
    return [line.strip() for line in collected.splitlines() if "::" in line]


def run_of(results: dict, label: str, expect: list[str] = ()) -> dict:
    cases = cases_of(results)
    absent = [name for name in expect if name not in cases]
    if absent:
        raise RecordError(f"{len(absent)} expected case(s) missing, first {absent[0]}")
    commit = results.get("commit_info") or {}
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "label": label,
        "git_sha": commit.get("id"),
        "dirty": commit.get("dirty"),
        "datetime": results.get("datetime"),
        "python": (results.get("machine_info") or {}).get("python_version"),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "cases": dict(sorted(cases.items())),
    }


def record(results: dict, out: Path, label: str, expect: list[str] = ()) -> dict:
    """Write the run of `results` under `label` into the record at `out`; return the record."""
    run = run_of(results, label, expect)
    existing = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"runs": []}
    runs = [r for r in existing["runs"] if r["label"] != label] + [run]
    data = {"runs": runs}
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="pytest-benchmark --benchmark-json output")
    parser.add_argument("out", help="the BENCH record to write or update")
    parser.add_argument("--label", required=True, help="the run's name in the record")
    parser.add_argument("--expect", help="`pytest --collect-only -q` output naming every case")
    args = parser.parse_args(argv)
    try:
        results = json.loads(Path(args.results).read_text(encoding="utf-8"))
        expect = expected_ids(Path(args.expect).read_text(encoding="utf-8")) if args.expect else []
        if args.expect and not expect:
            raise RecordError(f"{args.expect} names no case")
        data = record(results, Path(args.out), args.label, expect)
    except (OSError, ValueError) as exc:  # RecordError and JSON errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cases = data["runs"][-1]["cases"]
    print(f"{args.out}: run {args.label!r} with {len(cases)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
