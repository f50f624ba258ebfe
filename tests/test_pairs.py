"""The arithmetic of `tools/pairs.py` on canned benchmark result lines; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def result_line(peak, items, op1=80.0, op2=250.0, setup=0.2, failed=0):
    metrics = {"setup_s": setup, "peak_rss_mb": peak, "items_per_s": items,
               "op1_ms": op1, "op2_ms": op2}
    return json.dumps({
        "correct": True, "attempted": 89, "failed": failed,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    })


def test_parse_result_reads_the_last_line():
    out = "# train  seed 1\n  peak_rss_mb  117.2 MB\n" + result_line(117.2, 405.0, failed=1)
    got = pairs.parse_result(out)
    assert got["metrics"]["peak_rss_mb"] == 117.2 and got["metrics"]["items_per_s"] == 405.0
    assert (got["attempted"], got["failed"], got["correct"]) == (89, 1, True)
    with pytest.raises(ValueError, match="no result line"):
        pairs.parse_result("\n")


def test_quartiles_interpolate():
    assert pairs.quartiles([1, 2, 3, 4, 5]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25)


def test_nine_wins_of_ten_beyond_the_parent_spread_are_a_gain():
    parent = [100.0] * 9 + [90.0]
    change = [90.0] * 9 + [95.0]
    row = pairs.judge(parent, change, "lower", 0.1)
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["parent"] == (100.0, 100.0, 100.0) and row["change"] == (90.0, 90.0, 90.0)
    assert row["ratio"] == pytest.approx((0.9, 0.9, 95.0 / 90.0))
    assert row["spread"] == 0.0 and row["bound"] == pytest.approx(10.0)
    assert row["verdict"] == "gain"


def test_eight_wins_are_no_gain_and_ties_count_for_neither():
    parent = [100.0] * 10
    change = [90.0] * 8 + [100.0, 110.0]
    row = pairs.judge(parent, change, "lower", 0.1)
    assert row["wins"] == 8
    assert row["verdict"] == "within bound"


def test_higher_is_better_flips_the_direction():
    parent = [400.0, 402.0, 401.0, 399.0]
    change = [250.0, 251.0, 252.0, 249.0]
    assert pairs.judge(parent, change, "higher", 0.25)["verdict"] == "worse"
    assert pairs.judge(change, parent, "higher", 0.25)["verdict"] == "gain"
    assert pairs.judge(parent, change, "lower", 0.25)["verdict"] == "gain"


def test_worse_beyond_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5]
    assert pairs.judge(parent, [111.0, 112.0, 110.5, 111.5], "lower", 0.1)["verdict"] == "worse"
    assert pairs.judge(parent, [105.0, 106.0, 104.5, 105.5], "lower", 0.1)["verdict"] == (
        "within bound"
    )


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # quartiles 218-277 ms around 230 ms: a 59 ms spread against a 57.5 ms bound
    parent = [200.0, 218.0, 218.0, 230.0, 230.0, 277.0, 277.0, 290.0]
    change = [210.0, 220.0, 225.0, 228.0, 232.0, 240.0, 260.0, 280.0]
    row = pairs.judge(parent, change, "lower", 0.25)
    assert row["spread"] > row["bound"]
    assert row["verdict"] == "unresolved"
    # unless every change run reads better than every parent run
    assert pairs.judge(parent, [150.0 + i for i in range(8)], "lower", 0.25)["verdict"] == "gain"
    assert pairs.judge(parent, [190.0] * 8, "lower", 0.25)["verdict"] == "within bound"


def test_judge_needs_paired_runs():
    with pytest.raises(ValueError, match="paired"):
        pairs.judge([1.0, 2.0], [1.0], "lower", 0.1)


def test_summarize_and_table_cover_every_end_to_end_metric():
    parent = [pairs.parse_result(result_line(125.0 + i % 2, 400.0 + i)) for i in range(10)]
    change = [pairs.parse_result(result_line(116.0 + i % 2, 401.0 + i)) for i in range(10)]
    rows = pairs.summarize(parent, change, END_TO_END)
    assert list(rows) == [m["name"] for m in END_TO_END]
    assert rows["peak_rss_mb"]["verdict"] == "gain"
    assert rows["peak_rss_mb"]["wins"] == 10
    assert rows["op1_ms"]["verdict"] == "within bound" and rows["op1_ms"]["wins"] == 0
    assert rows["items_per_s"]["wins"] == 10
    table = pairs.format_table(rows)
    assert table.count("\n") == len(END_TO_END) + 1
    assert "| `peak_rss_mb` | 125.5 [125, 126] | 116.5 [116, 117] | 10/10 | 0.9" in table
