"""The `experiment` command and its curve-row writer, timed with pytest-benchmark.

Both use the `experiment_sweep` shape: 60 generated sellers, demands to
200, one unlimited and one stock-10 entry, exact method.

- `curve_rows`: `fileio.experiment_curve_rows` of one entry's run, its
  splits already read, for each availability;
- `command`: `experiment` end to end through `cli.main`, writing CSV into a
  temporary directory; each round draws its own population, so it fills
  every price table afresh.

Run with `python -m pytest benchmarks`; `--benchmark-disable` runs each case
once, as a smoke test.  Tier-1 (`testpaths = tests`) does not collect them.
"""

import contextlib
import io

import pytest

from fair_engine import cli
from fair_engine.fileio import experiment_curve_rows
from fair_engine.synth import PopulationSpec, generate_sellers, run_experiment

CONFIG = "n_sellers = 60\nseed = 27\navailabilities = unlimited, 10\nq_max = 200\nmethod = exact\n"


@pytest.mark.parametrize("availability", [None, 10], ids=["unlimited", "stock-10"])
def test_curve_rows(benchmark, availability):
    run = run_experiment(generate_sellers(PopulationSpec(n_sellers=60, seed=27)), availability, 200)
    run.curve_exact.summaries()
    _, rows = benchmark.pedantic(experiment_curve_rows, args=(run,), rounds=20, warmup_rounds=1)
    assert len(rows) == 200


def test_command(benchmark, tmp_path):
    config = tmp_path / "experiment.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    argv = ["experiment", str(config), "--out", str(tmp_path / "out")]

    def command():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    assert benchmark.pedantic(command, rounds=10, warmup_rounds=1) == 0
    assert (tmp_path / "out" / "experiment_summary.csv").exists()
