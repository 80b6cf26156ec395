"""Tests for file formats: curve CSV, config, scenarios, writers."""

import io
import json
import re

import pytest

from fair_engine.allocation import optimal_allocation
from fair_engine.curves import lower_envelope
from fair_engine.fileio import (
    ExperimentConfig,
    ParseError,
    allocation_rows,
    envelope_rows,
    parse_seller_rows,
    read_experiment_config,
    read_scenario,
    read_sellers_csv,
    write_rows,
    write_shipping_plan,
)

CURVES_CSV = """\
A,linear,100,2,60,5,0,0
B,tabular,1|10|30|60,4.69|4.19|3.69|3.09,unlimited,3,4
C,linear,80,1.5,40
"""


@pytest.fixture
def curves_file(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text(CURVES_CSV, encoding="utf-8")
    return str(path)


class TestSellerCsv:
    def test_parses_linear_and_tabular_rows(self, curves_file):
        sellers = {s.id: s for s in read_sellers_csv(curves_file)}
        assert sellers["A"].availability == 5
        assert sellers["A"].curve.price_at(11) == 8000
        assert sellers["B"].availability is None
        assert sellers["B"].curve.price_at(10) == 419
        assert (sellers["B"].position.x, sellers["B"].position.y) == (3.0, 4.0)
        assert sellers["C"].availability is None
        assert sellers["C"].curve.price_at(3) == 7700  # 80 - 1.5*2

    def test_comments_and_blank_lines_are_skipped(self):
        rows = [["# header"], [], ["A", "linear", "10", "1", "5"]]
        sellers = parse_seller_rows(rows)
        assert [s.id for s in sellers] == ["A"]

    def test_error_carries_line_number(self):
        rows = [["A", "linear", "10", "1", "5"], ["B", "linear", "10", "1"]]
        with pytest.raises(ParseError) as err:
            parse_seller_rows(rows, source="x.csv")
        assert err.value.line == 2
        assert "x.csv:2" in str(err.value)

    def test_rejects_unknown_form(self):
        with pytest.raises(ParseError):
            parse_seller_rows([["A", "spline", "1", "2", "3"]])

    def test_rejects_mismatched_band_lists(self):
        with pytest.raises(ParseError):
            parse_seller_rows([["A", "tabular", "1|10", "4.69"]])

    def test_rejects_duplicate_ids(self):
        rows = [["A", "linear", "10", "1", "5"], ["A", "linear", "11", "1", "5"]]
        with pytest.raises(ParseError):
            parse_seller_rows(rows)

    def test_rejects_empty_file(self):
        with pytest.raises(ParseError):
            parse_seller_rows([])

    def test_rejects_bad_availability(self):
        with pytest.raises(ParseError):
            parse_seller_rows([["A", "linear", "10", "1", "5", "-3"]])


class TestShippingPlanOutput:
    def test_plan_csv_carries_coordinate_note_and_total(self):
        import io

        from fair_engine.geo import Position
        from fair_engine.curves import linear_curve
        from fair_engine.allocation import Seller
        from fair_engine.geo import shipping_plan

        seller = Seller("S1", linear_curve(10, 0, 10), position=Position(0, 0))
        alloc = optimal_allocation([seller], 2)
        plan = shipping_plan(alloc, [seller], [("b1", 2)], {"b1": Position(10, 0)})
        buf = io.StringIO()
        write_shipping_plan(plan, buf)
        text = buf.getvalue()
        assert text.startswith("# coordinates=planar-km\n# total_cost=6.00\n")
        assert "S1,10.000,0.000,2,10.000,6.00" in text


class TestWriters:
    def test_envelope_rows_round_to_cu_strings(self):
        from fair_engine.curves import linear_curve

        env = lower_envelope([("A", linear_curve(100, 5, 70))], 3)
        header, rows = envelope_rows(env)
        assert header == ["q", "seller_id", "price"]
        assert rows == [[1, "A", "100.00"], [2, "A", "95.00"], [3, "A", "90.00"]]

    def test_allocation_rows_carry_fair_price(self):
        from fair_engine.allocation import Seller
        from fair_engine.curves import linear_curve

        sellers = [
            Seller("A", linear_curve(10, 1, 8), availability=2),
            Seller("B", linear_curve(12, 1, 9), availability=2),
        ]
        alloc = optimal_allocation(sellers, 3)
        header, rows = allocation_rows(alloc)
        assert rows == [
            [3, "A", 2, "9.00", "10.0000"],
            [3, "B", 1, "12.00", "10.0000"],
        ]

    def test_csv_and_json_formats(self):
        header = ["a", "b"]
        rows = [[1, "x"], [2, "y"]]
        csv_buf, json_buf = io.StringIO(), io.StringIO()
        write_rows(header, rows, csv_buf, fmt="csv", comments=["note"])
        assert csv_buf.getvalue() == "# note\na,b\n1,x\n2,y\n"
        write_rows(header, rows, json_buf, fmt="json")
        payload = json.loads(json_buf.getvalue())
        assert payload["rows"] == [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            write_rows(["a"], [[1]], io.StringIO(), fmt="xml")


class TestExperimentConfig:
    def test_parses_keys_and_availability_list(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\nn_sellers = 20\nseed = 42\n"
            "availabilities = 10, 46, unlimited\nq_max = 120\nmethod = exact\n",
            encoding="utf-8",
        )
        config = read_experiment_config(str(path))
        assert config == ExperimentConfig(
            n_sellers=20,
            seed=42,
            availabilities=(10, 46, None),
            q_max=120,
            method="exact",
        )

    def test_defaults_apply(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 9\n", encoding="utf-8")
        config = read_experiment_config(str(path))
        assert config.n_sellers == 20 and config.q_max == 200
        assert config.availabilities == (None,)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("sellers = 3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_experiment_config(str(path))

    def test_rejects_missing_equals(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed 9\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_experiment_config(str(path))

    def test_rejects_bad_method(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("method = magic\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_experiment_config(str(path))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("n_sellers = 4\nseed = 1\n# note\n\nq_max = x8\n", 5, "q_max: invalid literal"),
            ("seed = 1\nmethod = magic\n", 2, "method: must be exact or greedy"),
            ("seed = 1\nq_max = 8\navailabilities = 3, x\n", 3, "availabilities: invalid"),
            ("seed = 1\nsellers = 3\nbogus = 1\n", 2, "sellers: unknown config key"),
            ("n_sellers = 0\n", 1, "n_sellers: must be at least 1, got 0"),
            ("seed = 1\nq_max = 0\n", 2, "q_max: must be at least 1, got 0"),
            ("# note\nseed = -1\n", 2, "seed: must be at least 0, got -1"),
        ],
    )
    def test_errors_name_the_key_and_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: {message}")) as err:
            read_experiment_config(str(path))
        assert err.value.line == line

    @pytest.mark.parametrize(
        "entries, repeated", [("3, 3, unlimited", "'3'"), ("unlimited, 4, inf", "'inf'")]
    )
    def test_rejects_repeated_availability(self, tmp_path, entries, repeated):
        # `unlimited` and `inf` are one entry; a repeat would run and be written twice
        path = tmp_path / "exp.cfg"
        path.write_text(f"availabilities = {entries}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"availabilities: {repeated} repeats"):
            read_experiment_config(str(path))


SCENARIO = {
    "product_id": "paper",
    "opened_at": 0.0,
    "config": {"max_duration": 86400, "margin": "0.05", "fidelity_discount": "0.04"},
    "sellers": [
        {"id": "A", "form": "linear", "p1": 100, "rate": 10, "sat": 10, "availability": 5},
        {"id": "B", "form": "linear", "p1": 200, "rate": 0, "sat": 200},
    ],
    "events": [
        {"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2, "max_wait": 864000},
        {
            "at": 20,
            "action": "join",
            "buyer_id": "b2",
            "quantity": 3,
            "max_wait": 864000,
            "payment_timing": "before",
            "history": {"purchases": 10, "payment_timing": "on_delivery",
                        "social_actions": 25, "join_earliness": 0.5},
        },
        {"at": 500, "action": "advance"},
    ],
}


class TestScenario:
    def test_parses_full_scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO), encoding="utf-8")
        scenario = read_scenario(str(path))
        assert scenario.product_id == "paper"
        assert [s.id for s in scenario.sellers] == ["A", "B"]
        joins = [e for e in scenario.events if e.action == "join"]
        assert joins[0].order.quantity == 2
        assert joins[1].order.fidelity == 0.5  # from the history block
        assert scenario.events[-1].action == "advance"

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario(str(path))

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"product_id": "x"}), encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario(str(path))

    def test_rejects_decreasing_timestamps(self, tmp_path):
        bad = dict(SCENARIO)
        bad["events"] = [
            {"at": 20, "action": "advance"},
            {"at": 10, "action": "advance"},
        ]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario(str(path))

    def test_rejects_unknown_action(self, tmp_path):
        bad = dict(SCENARIO)
        bad["events"] = [{"at": 10, "action": "dance"}]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ParseError):
            read_scenario(str(path))

    @pytest.mark.parametrize(
        "change, where",
        [
            ({"opened_at": float("nan")}, "opened_at"),
            ({"config": {"max_duration": float("inf")}}, "config"),
            ({"events": [{"at": float("nan"), "action": "advance"}]}, "events[0]"),
            ({"events": [{"at": float("inf"), "action": "advance"}]}, "events[0]"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": float("nan")}]}, "events[0]"),
            # JSON booleans are not times, though float() would read them as 0 and 1
            ({"opened_at": False}, "opened_at"),
            ({"config": {"max_duration": True}}, "config: max_duration"),
            ({"events": [{"at": True, "action": "advance"}]}, "events[0]: timestamp"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": True}]}, "events[0]: max_wait"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "destination": [True, False]}]},
             "events[0]: destination"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "destination": [0, "nan"]}]},
             "events[0]: destination"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "history": {"join_earliness": True}}]},
             "events[0]: join_earliness"),
            # exact amounts: a non-finite one, or one too large to build exactly
            ({"config": {"margin": "Infinity"}}, "config: amount must be finite"),
            # JSON's 1e999 reads as this float
            ({"config": {"fidelity_discount": float("inf")}}, "config: amount must be finite"),
            ({"config": {"margin": "1e999999999"}}, "config: amount '1e999999999'"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "fidelity": "Infinity"}]},
             "events[0]: amount must be finite"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "fidelity": "1e999999999"}]},
             "events[0]: amount '1e999999999'"),
            ({"sellers": [{"id": "A", "p1": "Infinity", "rate": 1, "sat": 5}]},
             "sellers[0]: amount must be finite"),
        ],
    )
    def test_rejects_non_finite_numbers(self, tmp_path, change, where):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, **change}), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(where)):
            read_scenario(str(path))

    @pytest.mark.parametrize(
        "change, where",
        [
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 2.9,
                          "max_wait": 100}]}, "events[0]: quantity"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": True,
                          "max_wait": 100}]}, "events[0]: quantity"),
            ({"config": {"curve_horizon": 20.7}}, "config: curve_horizon"),
            ({"config": {"curve_horizon": False}}, "config: curve_horizon"),
            ({"what_if": [2.9, True]}, "what_if[0]"),
            ({"what_if": [2, True]}, "what_if[1]"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "history": {"purchases": 2.5}}]},
             "events[0]: purchases"),
            ({"events": [{"at": 10, "action": "advance"},
                         {"at": 11, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "history": {"social_actions": True}}]},
             "events[1]: social_actions"),
        ],
    )
    def test_rejects_truncated_integers(self, tmp_path, change, where):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, **change}), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(where) + ".*whole number"):
            read_scenario(str(path))

    def test_accepts_whole_numbers_as_ints_floats_and_strings(self, tmp_path):
        events = [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": "2",
                   "max_wait": 100, "history": {"purchases": 3.0, "social_actions": "4"}}]
        change = {"events": events, "config": {"curve_horizon": "20"}, "what_if": [2, "3", 4.0]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, **change}), encoding="utf-8")
        scenario = read_scenario(str(path))
        assert scenario.events[0].order.quantity == 2
        assert scenario.config.curve_horizon == 20
        assert scenario.what_if == (2, 3, 4)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "history": 5}]},
             "events[0]: history must be an object"),
            ({"what_if": ["x"]}, "what_if[0]: invalid literal"),
            ({"what_if": "12"}, "what_if must be a list"),
            ({"sellers": 5}, "sellers must be a list"),
            ({"events": 7}, "events must be a list"),
            ({"events": {"at": 1}}, "events must be a list"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "b1", "quantity": 1,
                          "max_wait": 100, "destination": [1, 2, 3]}]},
             "events[0]: destination must be [x, y], got [1, 2, 3]"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": None, "quantity": 1,
                          "max_wait": 100}]},
             "events[0]: buyer_id must be a non-empty string, got None"),
            ({"events": [{"at": 10, "action": "join", "buyer_id": "", "quantity": 1,
                          "max_wait": 100}]},
             "events[0]: buyer_id must be a non-empty string, got ''"),
            ({"product_id": None}, "product_id must be a non-empty string, got None"),
            ({"sellers": [{"id": None, "p1": 10, "rate": 1, "sat": 5}]},
             "sellers[0]: id must be a non-empty string, got None"),
            ({"sellers": [{"id": 5, "p1": 10, "rate": 1, "sat": 5}]},
             "sellers[0]: id must be a non-empty string, got 5"),
            ({"sellers": [{"id": "A", "p1": 10, "rate": 1, "sat": 5},
                          {"id": "A", "p1": 10, "rate": 1, "sat": 5}]},
             "sellers[1]: duplicate seller id 'A'"),
            ({"sellers": [{"id": "A", "form": "cubic"}]},
             "sellers[0]: unknown curve form 'cubic'"),
            ({"sellers": [{"id": "A", "p1": 10, "rate": 1, "sat": 50}]},
             "sellers[0]: saturation price cannot exceed the single-product price"),
            ({"what_if": [0, -3, 2]}, "what_if[0]: demand must be at least 1, got 0"),
            ({"what_if": [2, -3]}, "what_if[1]: demand must be at least 1, got -3"),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, change, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({**SCENARIO, **change}), encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: {message}")):
            read_scenario(str(path))

