"""The pair statistics and argument checks of `tools/bench_ab.py`.

No test here starts a benchmark process: `run_once` is replaced by a
function that fails the test if it is called.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


@pytest.fixture(autouse=True)
def no_bench_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench_ab, "run_once", refuse)


def test_quartiles_of_one_value_are_that_value():
    assert bench_ab.quartiles([3.5]) == (3.5, 3.5)


def test_quartiles_of_an_even_count():
    # the exclusive method: positions (n + 1)/4 and 3(n + 1)/4
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 3.75)


def test_quartiles_of_an_odd_count():
    assert bench_ab.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == (1.5, 4.5)


def _pair(parent, change):
    return {"parent": dict(zip(bench_ab.METRICS, parent)),
            "change": dict(zip(bench_ab.METRICS, change))}


def test_summarize_reads_medians_parent_iqr_and_wins():
    # setup_s, op_p50_ref, peak_rss_mb per side; a tie is not a win
    pairs = [
        _pair((0.04, 35.0, 26.0), (0.05, 24.0, 26.0)),
        _pair((0.03, 36.0, 26.0), (0.03, 25.0, 25.5)),
        _pair((0.05, 34.0, 26.5), (0.04, 26.0, 26.0)),
        _pair((0.06, 33.0, 26.0), (0.02, 34.0, 27.0)),
    ]
    summary = bench_ab.summarize(pairs)
    assert summary.keys() == set(bench_ab.METRICS)
    op = summary["op_p50_ref"]
    assert op["parent_median"] == 34.5 and op["change_median"] == 25.5
    assert op["parent_iqr"] == pytest.approx(35.75 - 33.25)
    assert op["change_wins"] == 3
    assert summary["setup_s"]["change_wins"] == 2
    rss = summary["peak_rss_mb"]
    assert rss["parent_median"] == 26.0 and rss["change_median"] == 26.0
    assert rss["change_wins"] == 2


def test_zero_pairs_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        bench_ab.main([str(tmp_path), str(tmp_path), "--workload", "roundtrip",
                       "--pairs", "0"])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


# the end-to-end bounds of the repository's benchmark
END_TO_END = json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]


def _summary(name, parent, change):
    return {name: {"parent_median": parent, "change_median": change,
                   "parent_iqr": 0, "change_wins": 0}}


def test_a_setup_30_percent_worse_is_over_its_bound_and_20_percent_is_not():
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in END_TO_END
    assert bench_ab.over_bound(_summary("setup_s", 0.040, 0.052), END_TO_END) == ["setup_s"]
    assert bench_ab.over_bound(_summary("setup_s", 0.040, 0.048), END_TO_END) == []
    assert bench_ab.over_bound(_summary("setup_s", 0.040, 0.020), END_TO_END) == []


def test_a_higher_is_better_metric_is_over_its_bound_only_when_it_falls():
    spec = [{"name": "rate", "better": "higher", "bound": 0.1}]
    assert bench_ab.over_bound(_summary("rate", 100.0, 80.0), spec) == ["rate"]
    assert bench_ab.over_bound(_summary("rate", 100.0, 95.0), spec) == []
    assert bench_ab.over_bound(_summary("rate", 100.0, 150.0), spec) == []


def test_without_a_workload_every_declared_workload_runs_in_order(monkeypatch, tmp_path, capsys):
    # the parent's BENCHMARK.json names the workloads; the change's
    # setup_s reads 30% worse, which the printed summary marks
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"workloads": [{"name": "second"}, {"name": "first"}], "end_to_end": END_TO_END}))
    change = tmp_path / "change"
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree == change, workload, seed))
        return {"setup_s": 0.052 if tree == change else 0.040,
                "op_p50_ref": 10.0, "peak_rss_mb": 20.0}

    monkeypatch.setattr(bench_ab, "run_once", fake_run)
    out = tmp_path / "ab.json"
    assert bench_ab.main([str(tmp_path), str(change), "--pairs", "2", "--seed", "5",
                          "--json", str(out)]) == 0
    assert calls == [(False, "second", 5), (True, "second", 5), (True, "second", 6),
                     (False, "second", 6), (False, "first", 5), (True, "first", 5),
                     (True, "first", 6), (False, "first", 6)]
    data = json.loads(out.read_text())
    assert list(data["workloads"]) == ["first", "second"]
    assert "OVER BOUND" not in out.read_text()
    lines = capsys.readouterr().out.splitlines()
    flagged = [line for line in lines if "OVER BOUND" in line]
    assert flagged == [line for line in lines if line.startswith(("second setup_s", "first setup_s"))]
    assert len(flagged) == 2
