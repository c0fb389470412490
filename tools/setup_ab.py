"""Time benchmark set-up in two contactk trees, alternating in one process.

    python3 tools/setup_ab.py PARENT CHANGE

For each workload that the parent's `BENCHMARK.json` names, in its order,
it runs ROUNDS rounds, and each round sets the workload up once in each
tree; the tree that goes first alternates from round to round.  One set-up
is what `bench/run.py`'s `fresh_setup` times: purge `contactk` and
`workloads` from `sys.modules`, collect garbage, import `workloads` (and
through it `contactk`) from the tree, and call the workload's `setup` on
the tree's `bench/configs`.  The import and the `setup` call are timed
apart; their sum is what `bench/run.py` reports as `setup_s`.

Set-up times differ by tens of percent from one process to the next, for
either tree alike, so two trees are compared inside one process.  No
bytecode is read or written: every import compiles its sources, as under
`tools/bench_ab.py`, whatever `__pycache__` either tree holds.

It prints, per workload, the parent and the change median in milliseconds
of the import, of the set-up and of their sum, each with the parent's
interquartile range.  Standard library only.
"""

from __future__ import annotations

import gc
import importlib
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROUNDS = 30
PARTS = ("import", "setup", "setup_s")


def fresh_setup(tree: Path, workload: str) -> tuple[float, float]:
    """Seconds of the import of `tree`'s `workloads` and of its set-up of
    `workload`, after purging both packages as `bench/run.py` does."""
    for name in [m for m in sys.modules
                 if m in ("contactk", "workloads") or m.startswith("contactk.")]:
        del sys.modules[name]
    gc.collect()
    sys.path[:0] = [str(tree / "bench"), str(tree / "src")]
    try:
        start = perf_counter()
        module = importlib.import_module("workloads")
        imported = perf_counter()
        module.WORKLOADS[workload].setup(tree / "bench" / "configs")
        return imported - start, perf_counter() - imported
    finally:
        del sys.path[:2]


def compare(trees: dict, workload: str) -> dict:
    """Per side, the milliseconds of each of `PARTS` over `ROUNDS` rounds."""
    times = {side: {part: [] for part in PARTS} for side in trees}
    for k in range(ROUNDS):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            imported, setup = fresh_setup(trees[side], workload)
            for part, seconds in zip(PARTS, (imported, setup, imported + setup)):
                times[side][part].append(1000 * seconds)
    return times


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit(f"usage: {Path(__file__).name} PARENT CHANGE")
    trees = {side: Path(tree).resolve() for side, tree in zip(("parent", "change"), args)}
    try:
        declared = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        sys.exit(f"error: {trees['parent']}: cannot read BENCHMARK.json: {err}")
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    with tempfile.TemporaryDirectory() as empty:
        sys.dont_write_bytecode, sys.pycache_prefix = True, empty
        try:
            for workload in [w["name"] for w in declared["workloads"]]:
                times = compare(trees, workload)
                for part in PARTS:
                    parent, change = times["parent"][part], times["change"][part]
                    q1, _q2, q3 = statistics.quantiles(parent, n=4)
                    print(f"{workload} {part}: median {statistics.median(parent):.4g} -> "
                          f"{statistics.median(change):.4g} ms, parent IQR {q3 - q1:.4g} ms",
                          flush=True)
        finally:
            sys.dont_write_bytecode, sys.pycache_prefix = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
