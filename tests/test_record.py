"""Tests for `benchmarks/record.py`, the pytest-benchmark to BENCH record converter."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record", Path(__file__).parent.parent / "benchmarks" / "record.py"
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


def case(name, median, params=None, **stats):
    return {
        "fullname": f"benchmarks/test_x.py::{name}",
        "params": params,
        "stats": {"median": median, "iqr": median / 10, "rounds": 5, "mean": median, **stats},
    }


def results(*cases, sha="abc123"):
    return {
        "benchmarks": list(cases),
        "commit_info": {"id": sha, "dirty": False},
        "machine_info": {"python_version": "3.11.7"},
        "datetime": "2026-01-01T00:00:00",
    }


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_a_run_keeps_each_case_and_the_environment(tmp_path):
    src = write(tmp_path / "r.json", results(case("t[a]", 0.5, {"shape": "a"}), case("t0", 0.25)))
    out = tmp_path / "BENCH.json"
    assert record.main([src, str(out), "--label", "change"]) == 0
    (run,) = json.loads(out.read_text())["runs"]
    assert run["label"] == "change"
    assert (run["git_sha"], run["dirty"], run["python"]) == ("abc123", False, "3.11.7")
    assert run["cpu_count"] >= 1 and run["numpy"]
    assert run["cases"] == {
        "benchmarks/test_x.py::t0": {"median_s": 0.25, "iqr_s": 0.025, "rounds": 5, "params": {}},
        "benchmarks/test_x.py::t[a]": {
            "median_s": 0.5, "iqr_s": 0.05, "rounds": 5, "params": {"shape": "a"},
        },
    }


def test_a_label_recorded_again_replaces_its_run_beside_the_others(tmp_path):
    out = tmp_path / "BENCH.json"
    record.main([write(tmp_path / "p.json", results(case("t", 2.0), sha="p")), str(out),
                 "--label", "parent"])
    record.main([write(tmp_path / "c.json", results(case("t", 1.0))), str(out), "--label", "change"])
    record.main([write(tmp_path / "c.json", results(case("t", 0.5))), str(out), "--label", "change"])
    runs = json.loads(out.read_text())["runs"]
    assert [(r["label"], r["cases"]["benchmarks/test_x.py::t"]["median_s"]) for r in runs] == [
        ("parent", 2.0), ("change", 0.5)
    ]


@pytest.mark.parametrize(
    "data, message",
    [
        (results(), "no benchmark cases"),
        ({}, "no benchmark cases"),
        (results({"fullname": "x::t", "params": None, "stats": {"median": 1, "rounds": 5}}),
         "lacks iqr"),
        (results({"fullname": "x::t", "stats": {"median": 1, "iqr": 0, "rounds": 5}}),
         "lacks params"),
    ],
    ids=["empty", "no-key", "no-iqr", "no-params"],
)
def test_results_without_cases_or_keys_are_refused(tmp_path, capsys, data, message):
    out = tmp_path / "BENCH.json"
    assert record.main([write(tmp_path / "r.json", data), str(out), "--label", "l"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_collected_case_missing_from_the_results_is_refused(tmp_path, capsys):
    src = write(tmp_path / "r.json", results(case("t[a]", 0.5)))
    collected = tmp_path / "collected.txt"
    collected.write_text(
        "benchmarks/test_x.py::t[a]\nbenchmarks/test_x.py::t[b]\n\n2 tests collected in 0.1s\n"
    )
    out = tmp_path / "BENCH.json"
    args = [src, str(out), "--label", "l", "--expect", str(collected)]
    assert record.main(args) == 2
    assert "1 expected case(s) missing, first benchmarks/test_x.py::t[b]" in capsys.readouterr().err
    assert not out.exists()
    collected.write_text("no tests ran\n")
    assert record.main(args) == 2
    assert "names no case" in capsys.readouterr().err
    collected.write_text("benchmarks/test_x.py::t[a]\n")
    assert record.main(args) == 0
