"""The pair statistics and argument checks of `tools/bench_ab.py`.

No test here starts a benchmark process: `run_once` is replaced by a
function that fails the test if it is called.
"""

from __future__ import annotations

import importlib.util
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
