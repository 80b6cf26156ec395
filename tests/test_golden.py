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


def run_case(argv: list[str], out: Path, data: Path = GOLDEN) -> tuple[int, dict[str, bytes]]:
    """Run one command on the inputs in `data`; return its exit code and written files by name."""
    out.mkdir(parents=True, exist_ok=True)
    code = main([a.format(data=data, out=out) for a in argv])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def check_against_golden(case: str, out: Path, capsys, data: Path = GOLDEN) -> None:
    code, written = run_case(CASES[case], out, data)
    captured = capsys.readouterr()
    assert code == 0
    expected_dir = EXPECTED / case
    expected = {p.name: p.read_bytes() for p in sorted(expected_dir.iterdir())}
    written["stdout.txt"] = captured.out.encode("utf-8")
    written["stderr.txt"] = captured.err.encode("utf-8")
    assert sorted(written) == sorted(expected)
    for name, content in expected.items():
        assert written[name] == content, f"{case}/{name} differs from the golden copy"


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(case, tmp_path, capsys):
    check_against_golden(case, tmp_path / "out", capsys)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_byte_order_mark_on_every_input_changes_no_output_byte(case, tmp_path, capsys):
    # editors on some platforms start a UTF-8 file with U+FEFF; the readers drop it
    data = tmp_path / "bom"
    data.mkdir()
    for source in GOLDEN.glob("*.*"):
        (data / source.name).write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    check_against_golden(case, tmp_path / "out", capsys, data)
