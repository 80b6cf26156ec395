"""Byte-for-byte regression of CLI outputs against committed golden files.

Each case runs one `fair-engine` command on the fixed inputs in
tests/data/golden/ and compares every file it writes, its stdout and its
stderr with the copies under tests/data/golden/expected/<case>/.  The
expected files were written by the engine before the refactors they now
guard; a change that alters any output byte fails here.
"""

from pathlib import Path

import pytest

from fair_engine.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
EXPECTED = GOLDEN / "expected"

# argv per case: `{data}` is the golden input directory, `{out}` the case's
# fresh output directory
CASES = {
    "allocate_exact": ["allocate", "{data}/curves.csv", "12", "--method", "exact",
                       "--out", "{out}/allocation.csv"],
    "allocate_greedy": ["allocate", "{data}/curves.csv", "12", "--method", "greedy",
                        "--out", "{out}/allocation.csv"],
    "envelope": ["envelope", "{data}/curves.csv", "--q-max", "40",
                 "--out", "{out}/envelope.csv"],
    "curve_sellers": ["curve", "{data}/curves.csv", "--q-max", "40",
                      "--out", "{out}/curve.csv"],
    "curve_fair_exact": ["curve", "{data}/curves.csv", "--fair", "--q-max", "25",
                         "--method", "exact", "--out", "{out}/fair_curve.csv"],
    "curve_fair_greedy": ["curve", "{data}/curves.csv", "--fair", "--q-max", "25",
                          "--method", "greedy", "--out", "{out}/fair_curve.csv"],
    "fair_sim_optimal": ["fair-sim", "{data}/scenario_optimal.json", "--out", "{out}"],
    "fair_sim_time": ["fair-sim", "{data}/scenario_time.json", "--out", "{out}"],
    "fair_sim_json": ["fair-sim", "{data}/scenario_optimal.json", "--out", "{out}",
                      "--format", "json"],
    "experiment_csv": ["experiment", "{data}/experiment.cfg", "--out", "{out}"],
    "experiment_json": ["experiment", "{data}/experiment.cfg", "--out", "{out}",
                        "--format", "json"],
}


def run_case(argv: list[str], out: Path) -> tuple[int, dict[str, bytes]]:
    """Run one command; return its exit code and written files by name."""
    out.mkdir(parents=True, exist_ok=True)
    code = main([a.format(data=GOLDEN, out=out) for a in argv])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(case, tmp_path, capsys):
    code, written = run_case(CASES[case], tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 0
    expected_dir = EXPECTED / case
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    written["stdout.txt"] = captured.out.encode("utf-8")
    written["stderr.txt"] = captured.err.encode("utf-8")
    assert sorted(written) == sorted(expected)
    for name, data in expected.items():
        assert written[name] == data, f"{case}/{name} differs from the golden copy"
