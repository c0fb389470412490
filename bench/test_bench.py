"""Self-tests of the benchmark: smoke runs and negative controls.

    python3 -m pytest bench/test_bench.py -q

Each negative control corrupts one op output and requires the
workload's check to reject it.
"""

from __future__ import annotations

import csv
import io
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from contactk import bracket_closed, multiply, render_report, run_suites  # noqa: E402
from contactk.cli import load_config  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import (  # noqa: E402
    LAYER_METRICS, WORKLOADS, CheckFailed, Decompose, Roundtrip, Suite, Table,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONFIGS = BENCH / "configs"


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_run_metrics():
    assert [m["name"] for m in SPEC["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_smoke(workload):
    result = result_of(run_bench(ROOT, "--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", "0"))
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = result_of(run_bench(ROOT, "--workload", "table", "--seed", "3",
                                 "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 4 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "table", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- negative controls -------------------------------------------------

def subset(state, name):
    return {name: state[name]}


def test_table_check_rejects_a_flipped_coefficient():
    out = dict(Table.op(subset(Table.setup(CONFIGS), "l4"), None, NullTracer()))
    config, radius, text = out["l4"]
    Table.check_csv("l4", config, radius, text, random.Random(0), NullTracer())
    rows = list(csv.reader(io.StringIO(text)))
    row = next(r for r in rows[1:] if r[3] != "0")
    row[3] = str(-Fraction(row[3]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with pytest.raises(CheckFailed, match="is not minus"):
        Table.check_csv("l4", config, radius, buf.getvalue(), random.Random(0),
                        NullTracer())


def test_suite_check_rejects_a_wrong_bracket():
    config = load_config(CONFIGS / "caseB.cfg")

    def bad_bracket(u, v):
        return bracket_closed(u, v) + multiply(u, v)

    results = run_suites(config, 11, Suite.SAMPLES, bracket_fn=bad_bracket)
    assert not {r.name: r for r in results}["jacobi"].passed
    report = render_report(config, 11, Suite.SAMPLES, results)
    with pytest.raises(CheckFailed):
        Suite.check_report("caseB", 11, report)


def test_decompose_check_rejects_a_perturbed_coefficient():
    state = subset(Decompose.setup(CONFIGS), "decomp")
    inp = Decompose.draw(state, random.Random(5))
    out = dict(Decompose.op(state, inp, NullTracer()))
    Decompose.check(state, inp, out, random.Random(0), NullTracer(), True)
    result = out["decomp"]
    p = next(iter(result.outer_coeffs))
    result.outer_coeffs[p] += 1
    with pytest.raises(CheckFailed, match="outer coefficients"):
        Decompose.check(state, inp, out, random.Random(0), NullTracer(), True)


def test_roundtrip_check_rejects_an_altered_functional():
    state = subset(Roundtrip.setup(CONFIGS), "l5")
    tables = Roundtrip.draw(state, random.Random(5))
    out = dict(Roundtrip.op(state, tables, NullTracer()))
    Roundtrip.check(state, tables, out, random.Random(0), NullTracer(), True)
    _config, _probe, window, _pairs = state["l5"]
    _text, f, report = out["l5"]
    idx = window[len(window) // 2]
    f.table[idx] = f.eval_basis(idx) + 1
    # the verifier's passing report is kept: the emitted values alone
    # must expose the change
    bad = (Roundtrip.emit(f, window, NullTracer(), "l5"), f, report)
    with pytest.raises(CheckFailed, match="emitted f differs"):
        Roundtrip.check(state, tables, {"l5": bad}, random.Random(0), NullTracer(), True)
