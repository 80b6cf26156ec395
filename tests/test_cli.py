"""End-to-end tests for the command-line interface and its exit codes."""

import csv
import io
import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from fair_engine import allocation, cli, synth
from fair_engine.cli import main
from fair_engine.curves import LinearPlateauCurve

AB_CROSSOVER = "A,linear,100,5,70\nB,linear,110,8,60\n"
CAPPED = "A,linear,10,1,8,2\nB,linear,12,1,9,2\n"


@pytest.fixture
def ab_file(tmp_path):
    path = tmp_path / "ab.csv"
    path.write_text(AB_CROSSOVER, encoding="utf-8")
    return str(path)


@pytest.fixture
def capped_file(tmp_path):
    path = tmp_path / "capped.csv"
    path.write_text(CAPPED, encoding="utf-8")
    return str(path)


class TestEnvelope:
    def test_single_seller_csv_equals_curve(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("A,linear,100,5,70\n", encoding="utf-8")
        out = tmp_path / "env.csv"
        assert main(["envelope", str(path), "--q-max", "3", "--out", str(out)]) == 0
        assert out.read_text() == "q,seller_id,price\n1,A,100.00\n2,A,95.00\n3,A,90.00\n"
        assert "segment q=1..3 best=A" in capsys.readouterr().out

    def test_crossover_segment_boundary(self, ab_file, tmp_path, capsys):
        out = tmp_path / "env.csv"
        assert main(["envelope", ab_file, "--q-max", "10", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "segment q=1..4 best=A" in printed
        assert "segment q=5..10 best=B" in printed
        lines = out.read_text().splitlines()
        assert lines[5] == "5,B,78.00"

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["envelope", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for row, message in [
            ("B,linear,oops,1,2", ":2:"),
            ("B,linear,10,1,5,3,7,8,junk", ":2: extra cells after y: ['junk']"),
            ("B,tabular,1|10,4|3,9,0,7,,", ":2: extra cells after y: ['', '']"),
        ]:
            path.write_text(f"A,linear,100,5,70\n{row}\n", encoding="utf-8")
            assert main(["envelope", str(path)]) == 2
            assert message in capsys.readouterr().err


class TestAllocate:
    def test_exact_worked_example(self, capped_file, tmp_path):
        out = tmp_path / "alloc.csv"
        assert main(["allocate", capped_file, "3", "--out", str(out)]) == 0
        assert out.read_text() == (
            "q,seller_id,q_sigma,unit_price_sigma,fair_unit_price\n"
            "3,A,2,9.00,10.0000\n"
            "3,B,1,12.00,10.0000\n"
        )

    def test_single_unit_goes_to_envelope_best(self, capped_file, tmp_path):
        out = tmp_path / "alloc.csv"
        assert main(["allocate", capped_file, "1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("1,A,1,")

    def test_greedy_method_flag(self, capped_file, tmp_path):
        out = tmp_path / "alloc.csv"
        code = main(["allocate", capped_file, "3", "--method", "greedy", "--out", str(out)])
        assert code == 0
        assert "3,A,2,9.00" in out.read_text()

    def test_greedy_prints_a_price_beyond_28_digits(self, tmp_path):
        # 10^26 CU at four places is 31 digits; the greedy path refuses no
        # cost scale, so the price is rendered exactly
        path = tmp_path / "huge.csv"
        huge = "100000000000000000000000000"
        path.write_text(f"A,linear,{huge},0,{huge},unlimited,0,0\n", encoding="utf-8")
        out = tmp_path / "alloc.csv"
        code = main(["allocate", str(path), "3", "--method", "greedy", "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1] == f"3,A,3,{huge}.00,{huge}.0000"

    def test_infeasible_demand_exits_3(self, capped_file, capsys):
        assert main(["allocate", capped_file, "9"]) == 3
        assert "short by 5" in capsys.readouterr().err

    def test_impossible_demand_is_refused_up_front(self, tmp_path, monkeypatch, capsys):
        # one unlimited seller and q = 10^8 would fill 10^16 DP cells; the
        # refusal comes before any price is read, so a solver that started
        # the sweep fails here at once instead of running for minutes
        def unpriced(self, q):
            raise AssertionError("the DP started")

        monkeypatch.setattr(LinearPlateauCurve, "price_at", unpriced)
        path = tmp_path / "unlimited.csv"
        path.write_text("U,linear,100,1,50,unlimited\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["allocate", str(path), "100000000"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "demand 100000000" in err and f"budget of {1 << 30}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "curves.csv"],
            ["allocate", "curves.csv", "3"],
            ["curve", "curves.csv"],
            ["fair-sim", "scenario.json"],
        ],
    )
    def test_seed_belongs_to_experiment_only(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestCurve:
    def test_per_seller_sweep(self, ab_file, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["curve", ab_file, "--q-max", "2", "--out", str(out)]) == 0
        assert out.read_text() == (
            "seller_id,q,price\nA,1,100.00\nA,2,95.00\nB,1,110.00\nB,2,102.00\n"
        )

    def test_fair_curve_mode(self, capped_file, tmp_path, capsys):
        out = tmp_path / "fair.csv"
        assert main(["curve", capped_file, "--fair", "--q-max", "4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "q,z,alloc_summary"
        assert lines[3] == "3,10.0000,A:2+B:1"
        assert "optimal q*=" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["exact", "greedy"])
    def test_fair_curve_without_stock_exits_2_naming_the_file_and_writes_nothing(
        self, tmp_path, capsys, method
    ):
        path = tmp_path / "zero.csv"
        path.write_text("A,linear,10,1,8,0\nB,linear,12,1,9,0\n", encoding="utf-8")
        out = tmp_path / "fc.csv"
        argv = ["curve", str(path), "--fair", "--q-max", "5", "--method", method]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: no seller has stock, so the fair price curve is empty\n"
        )
        assert not out.exists()

    def test_json_format(self, ab_file, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["curve", ab_file, "--q-max", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["rows"][0] == {"seller_id": "A", "q": 1, "price": "100.00"}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, status",
        [
            (["envelope", "--q-max", "3"], "segment q=1..3 best=A\n"),
            (["curve", "--fair", "--q-max", "3"], "optimal q*=2 z*=9.0000\n"),
        ],
    )
    def test_rows_on_stdout_parse_and_the_status_line_goes_to_stderr(
        self, capped_file, capsys, argv, status, fmt
    ):
        assert main([argv[0], capped_file, *argv[1:], "--format", fmt]) == 0
        captured = capsys.readouterr()
        if fmt == "json":
            assert len(json.loads(captured.out)["rows"]) == 3
        else:
            rows = list(csv.reader(io.StringIO(captured.out)))
            assert len(rows) == 4 and {len(row) for row in rows} == {len(rows[0])}
        assert captured.err == status

    @pytest.mark.parametrize("argv", [["envelope"], ["curve"], ["curve", "--fair"]])
    def test_zero_q_max_exits_2(self, ab_file, capsys, argv):
        assert main([argv[0], ab_file, *argv[1:], "--q-max", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "quantity must be a positive integer, got 0" in captured.err


def write_scenario(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


def base_scenario(events):
    return {
        "product_id": "paper",
        "opened_at": 0.0,
        "config": {"max_duration": 1000, "margin": "0.05"},
        "sellers": [
            {"id": "A", "form": "linear", "p1": 100, "rate": 10, "sat": 10,
             "availability": 5},
            {"id": "B", "form": "linear", "p1": 200, "rate": 0, "sat": 200},
        ],
        "events": events,
    }


class TestFairSim:
    def test_optimal_price_ending(self, tmp_path):
        # demand 5 drains A exactly at its 60 CU optimum
        scenario = base_scenario(
            [
                {"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2,
                 "max_wait": 5000},
                {"at": 20, "action": "join", "buyer_id": "b2", "quantity": 3,
                 "max_wait": 5000},
            ]
        )
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["open", "join", "join", "end", "settle"]
        end = events[3]
        assert end["status"] == "ended_by_optimal_price"
        settle = events[4]
        assert settle["sellers_total"] == "300.00"
        assert settle["buyers_total"] == "315.0000"
        assert settle["manager_revenue"] == "15.0000"

    def test_no_joins_ends_by_time_with_empty_settlement(self, tmp_path):
        scenario = base_scenario([])
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["event"] for e in events] == ["open", "end", "settle"]
        assert events[1]["status"] == "ended_by_time"
        assert events[2]["buyers"] == []
        buyers_csv = (out / "settlement_buyers.csv").read_text().splitlines()
        assert buyers_csv == ["buyer_id,q,unit_price,total"]

    def test_settlement_satisfies_revenue_inequality(self, tmp_path):
        scenario = base_scenario(
            [
                {"at": 5, "action": "join", "buyer_id": "b1", "quantity": 1,
                 "max_wait": 5000, "fidelity": "0.9"},
                {"at": 6, "action": "join", "buyer_id": "b2", "quantity": 2,
                 "max_wait": 5000},
            ]
        )
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        settle = events[-1]
        assert Fraction(settle["buyers_total"]) >= Fraction(settle["sellers_total"])
        diff = Fraction(settle["buyers_total"]) - Fraction(settle["sellers_total"])
        assert diff == Fraction(settle["manager_revenue"])

    def test_join_after_the_deadline_ends_the_fair_by_time(self, tmp_path):
        scenario = base_scenario(
            [
                {"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2,
                 "max_wait": 100},
                {"at": 200, "action": "join", "buyer_id": "b2", "quantity": 1,
                 "max_wait": 100},
            ]
        )
        scenario["sellers"] = scenario["sellers"][:1]
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert [e["event"] for e in events] == ["open", "join", "end", "settle"]
        assert events[1]["buyer_id"] == "b1"
        end = events[2]
        assert (end["event"], end["at"], end["status"]) == ("end", 200.0, "ended_by_time")
        settle = events[3]
        assert settle["at"] == 110.0
        assert [b["buyer_id"] for b in settle["buyers"]] == ["b1"]
        assert sum(s["q"] for s in settle["sellers"]) == 2

    def test_refused_join_names_the_event_and_the_buyer(self, tmp_path, capsys):
        # seller A holds 5 units and B none: joins of 3 and then 4 units
        scenario = base_scenario(
            [
                {"at": 10, "action": "join", "buyer_id": "b1", "quantity": 3, "max_wait": 500},
                {"at": 20, "action": "join", "buyer_id": "b2", "quantity": 4, "max_wait": 500},
            ]
        )
        scenario["sellers"][1]["availability"] = 0
        path = write_scenario(tmp_path, scenario)
        assert main(["fair-sim", path, "--out", str(tmp_path / "sim")]) == 3
        assert capsys.readouterr().err == (
            "infeasible: events[1]: buyer b2: demand 7 exceeds total availability 5 "
            "(short by 2)\n"
        )

    def test_a_refused_join_makes_no_output_directory(self, tmp_path):
        scenario = base_scenario(
            [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 6, "max_wait": 500}]
        )
        scenario["sellers"][1]["availability"] = 0
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 3
        assert not out.exists()

    def test_join_over_the_dp_budget_names_the_event_and_the_buyer(self, tmp_path, capsys):
        # B has no stock limit, so a join of 10^8 units passes the stock check
        # and is refused by the exact solver's cell budget
        scenario = base_scenario(
            [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 10**8, "max_wait": 500}]
        )
        path = write_scenario(tmp_path, scenario)
        assert main(["fair-sim", path, "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: events[0]: buyer b1: demand 100000000 needs "
        )

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"product_id": "x"}), encoding="utf-8")
        assert main(["fair-sim", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_destinations_produce_a_shipping_plan(self, tmp_path):
        scenario = base_scenario(
            [
                {"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2,
                 "max_wait": 5000, "destination": [3, 4]},
                {"at": 20, "action": "join", "buyer_id": "b2", "quantity": 1,
                 "max_wait": 5000, "destination": [3, 4]},
            ]
        )
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        plan = (out / "shipping_plan.csv").read_text().splitlines()
        assert plan[0] == "# coordinates=planar-km"
        # both buyers share one destination and one seller: a single route
        assert len(plan) == 4  # 2 comments + header + 1 route

    @pytest.mark.parametrize(
        "events, config, where",
        [
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
               "max_wait": float("nan")}], {}, "events[0]"),
            ([], {"max_duration": float("inf")}, "config"),
            ([{"at": float("nan"), "action": "advance"},
              {"at": 5, "action": "advance"}], {}, "events[0]"),
            ([{"at": True, "action": "advance"}], {}, "events[0]: timestamp"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
               "max_wait": True}], {}, "events[0]: max_wait"),
            ([], {"max_duration": True}, "config: max_duration"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
               "max_wait": 100, "destination": [True, False]}], {}, "events[0]: destination"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1, "max_wait": 100,
               "history": {"join_earliness": True}}], {}, "events[0]: join_earliness"),
            ([], {"margin": "Infinity"}, "config: amount must be finite"),
            ([], {"margin": float("inf")}, "config: amount must be finite"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1, "max_wait": 100,
               "fidelity": "Infinity"}], {}, "events[0]: amount must be finite"),
            # refused before an integer of 10^999999999 is built
            ([], {"fidelity_discount": "1e999999999"}, "config: amount '1e999999999'"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1, "max_wait": 100,
               "fidelity": "1e999999999"}], {}, "events[0]: amount '1e999999999'"),
        ],
    )
    def test_non_finite_input_exits_2(self, tmp_path, capsys, events, config, where):
        scenario = base_scenario(events)
        scenario["config"].update(config)
        assert main(["fair-sim", write_scenario(tmp_path, scenario),
                     "--out", str(tmp_path / "sim")]) == 2
        assert where in capsys.readouterr().err

    def test_a_deadline_past_the_largest_float_exits_2_naming_the_product(self, tmp_path, capsys):
        # each time is finite, their sum is not: it used to be written as `Infinity`
        scenario = base_scenario([{"at": 1e308, "action": "advance"}])
        scenario["opened_at"] = 1e308
        scenario["config"]["max_duration"] = 1e308
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 2
        assert "error: product paper: deadline inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("margin", ["1.0001", "1e4300"])
    def test_margin_above_a_full_markup_exits_2_before_any_output(self, tmp_path, capsys, margin):
        # a 4301-digit margin would fail only when printed, past every check
        scenario = base_scenario([])
        scenario["config"]["margin"] = margin
        path = write_scenario(tmp_path, scenario)
        out = tmp_path / "sim"
        assert main(["fair-sim", path, "--out", str(out)]) == 2
        assert f"{path}:1: config: margin must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_a_full_markup_doubles_the_cost(self, tmp_path):
        scenario = base_scenario([{"at": 10, "action": "join", "buyer_id": "b1",
                                   "quantity": 2, "max_wait": 100}])
        scenario["config"]["margin"] = "1"
        out = tmp_path / "sim"
        assert main(["fair-sim", write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        settle = records[-1]
        assert Decimal(settle["buyers_total"]) == 2 * Decimal(settle["sellers_total"]) > 0

    @pytest.mark.parametrize(
        "events, extra, where",
        [
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2.9,
               "max_wait": 100}], {}, "events[0]: quantity"),
            ([], {"config": {"max_duration": 1000, "curve_horizon": 20.7}},
             "config: curve_horizon"),
            ([], {"what_if": [2, True]}, "what_if[1]"),
            ([{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
               "max_wait": 100, "history": 5}], {}, "events[0]: history must be an object"),
            ([], {"what_if": ["x"]}, "what_if[0]"),
            ([], {"opened_at": False}, "opened_at must be a finite number"),
            ([], {"sellers": 5}, "sellers must be a list"),
            ([], {"events": 7}, "events must be a list"),
            ([], {"events": {"at": 1}}, "events must be a list"),
            ([], {"what_if": [0, -3, 2]}, "what_if[0]: demand must be at least 1, got 0"),
            ([], {"sellers": [{"id": "A", "p1": 10, "rate": 1, "sat": 5},
                              {"id": "A", "p1": 10, "rate": 1, "sat": 5, "availability": 3}]},
             "sellers[1]: duplicate seller id 'A'"),
            ([], {"sellers": [{"id": "A", "form": "cubic"}]},
             "sellers[0]: unknown curve form 'cubic'"),
        ],
    )
    def test_malformed_integer_field_exits_2(self, tmp_path, capsys, events, extra, where):
        scenario = {**base_scenario(events), **extra}
        path = write_scenario(tmp_path, scenario)
        assert main(["fair-sim", path, "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: {where}")
        assert not (tmp_path / "sim").exists()


EXPERIMENT_CFG = (
    "n_sellers = 6\nseed = 42\navailabilities = 3, unlimited\nq_max = 12\nmethod = exact\n"
)


class TestExperiment:
    def test_writes_one_curve_file_per_availability_plus_summary(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG, encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        for name in ("experiment_curves_3.csv", "experiment_curves_unlimited.csv"):
            curves = (out / name).read_text().splitlines()
            assert curves[0].startswith("# rng=pcg64 seed=42")
            assert curves[1] == "availability,q,z_exact,z_greedy,best_allocation"
        summary = (out / "experiment_summary.csv").read_text().splitlines()
        assert summary[1] == "availability,q_star,z_star,nonmonotone,max_greedy_gap"
        assert len(summary) == 4  # comment + header + one row per availability

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG, encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["experiment", str(cfg), "--out", str(out1)]) == 0
        assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
        names = [p.name for p in sorted(out1.iterdir())]
        assert names == [
            "experiment_curves_3.csv",
            "experiment_curves_unlimited.csv",
            "experiment_summary.csv",
        ]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_one_draw_and_no_allocation_per_command(self, tmp_path, monkeypatch):
        # the summaries come from the curves' splits, and every availability
        # entry reads the one population the command drew
        built, drawn = [], []
        build, draw = allocation._build_allocation, synth.generate_sellers
        monkeypatch.setattr(
            allocation, "_build_allocation", lambda *args: built.append(1) or build(*args)
        )
        counted = lambda spec: drawn.append(spec) or draw(spec)
        monkeypatch.setattr(synth, "generate_sellers", counted)
        monkeypatch.setattr(cli, "generate_sellers", counted)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("3, unlimited", "3, unlimited, 0, 10"),
                       encoding="utf-8")
        assert main(["experiment", str(cfg), "--out", str(tmp_path / "runs")]) == 0
        assert built == []
        assert len(drawn) == 1

    def test_an_entry_without_stock_fails_alone_naming_the_missing_stock(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("3, unlimited", "unlimited, 0, 3"),
                       encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "availability=0 failed: no seller has stock, so the fair price curve is empty\n"
        )
        assert sorted(p.name for p in out.iterdir()) == [
            "experiment_curves_3.csv",
            "experiment_curves_unlimited.csv",
            "experiment_summary.csv",
        ]

    def test_truncation_notice_on_stderr(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_sellers = 2\nseed = 1\navailabilities = 2\nq_max = 50\n",
                       encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        assert "truncated" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXPERIMENT_CFG, encoding="utf-8")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["experiment", str(cfg), "--out", str(out1), "--seed", "777"]) == 0
        assert main(["experiment", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "experiment_curves_3.csv").read_text() != (
            out2 / "experiment_curves_3.csv"
        ).read_text()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["experiment", str(tmp_path / "nope.cfg")]) == 2

    def test_config_error_names_the_key_and_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_sellers = 4\nseed = 1\n# note\n\nq_max = x8\n", encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:5: q_max: invalid literal")
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("seed = 1\nq_max = 0\n", [], "exp.cfg:2: q_max: must be at least 1"),
            ("seed = 1\n", ["--seed", "-1"], "--seed must be at least 0"),
        ],
    )
    def test_out_of_range_setting_exits_2_before_writing(
        self, tmp_path, capsys, text, flags, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_availability_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n_sellers = 4\nseed = 1\navailabilities = 3, unlimited, inf\nq_max = 8\n",
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 2
        assert "availabilities: 'inf' repeats an earlier entry" in capsys.readouterr().err
        assert not out.exists()

    def test_every_entry_failing_makes_no_output_directory(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_sellers = 4\nseed = 1\navailabilities = -1\nq_max = 8\n",
                       encoding="utf-8")
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 2
        assert "every availability entry failed" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_availability_list_still_processes(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n_sellers = 4\nseed = 3\navailabilities = -5, 3\nq_max = 8\n",
            encoding="utf-8",
        )
        out = tmp_path / "runs"
        assert main(["experiment", str(cfg), "--out", str(out)]) == 0
        assert "availability=-5 failed" in capsys.readouterr().err
        assert not (out / "experiment_curves_-5.csv").exists()
        summary = (out / "experiment_summary.csv").read_text().splitlines()
        assert len(summary) == 3  # comment + header + the surviving entry
        assert summary[2].startswith("3,")


def test_internal_invariant_breach_exits_4(ab_file, monkeypatch, capsys):
    import fair_engine.cli as cli

    def boom(args):
        raise AssertionError("forced breach")

    monkeypatch.setitem(cli._COMMANDS, "envelope", boom)
    assert main(["envelope", ab_file]) == 4
    assert "internal invariant breach" in capsys.readouterr().err
