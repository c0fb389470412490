"""Compare benchmark workloads between two contactk trees, in pairs.

    python3 tools/bench_ab.py PARENT CHANGE [--workload W] --pairs N [--json PATH]

Without `--workload`, every workload that the parent's `BENCHMARK.json`
names runs, in its order.

Runs `bench/run.py` of each tree from that tree's root, N times each, with
`--trace 0`.  Pair k runs both trees with seed `--seed` + k, and the tree
that goes first alternates from pair to pair, so slow drift of the machine
falls on both sides alike.  Every child runs with PYTHONDONTWRITEBYTECODE=1,
so neither tree gains `__pycache__` files that would change what `setup_s`
measures in later runs.

It prints each pair's end-to-end metrics (parent/change), then per metric
the two medians, the parent's interquartile range and the change's win
count: the pairs in which the change reads lower (every metric of
`bench/run.py` is better lower).  A metric whose change median is worse
than the parent's by more than its `bound` in the parent's
`BENCHMARK.json` (read with its `better`) is marked `OVER BOUND`.  The
exit code is 1 when a run fails, is not `correct`, or has a failed op.
With `--json PATH` the pairs and the summary go into PATH under each
workload's name; the other workloads already in PATH are kept, and the
marks are not written.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "op_p50_ref", "peak_rss_mb")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one `bench/run.py` run in `tree`, or SystemExit."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {tree}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {tree}: seed {seed}: correct {result['correct']}, "
                 f"failed {result['failed']} of {result['attempted']} ops")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, q3 = quartiles(parent)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_wins": sum(c < p for p, c in zip(parent, change)),
        }
    return out


def over_bound(summary: dict, end_to_end: list[dict]) -> list[str]:
    """The metrics of `summary` whose change median is worse than the
    parent median by more than the fraction `bound` of it, where `better`
    says which way is worse."""
    out = []
    for spec in end_to_end:
        if (s := summary.get(spec["name"])) is not None:
            worse = s["change_median"] - s["parent_median"]
            if spec["better"] == "higher":
                worse = -worse
            if worse > spec["bound"] * abs(s["parent_median"]):
                out.append(spec["name"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", help="one workload (default: all, in order)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=17001, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20, help="loop time per run")
    parser.add_argument("--json", type=Path, help="file to write or update")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        declared = json.loads((args.parent / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        sys.exit(f"error: {args.parent}: cannot read BENCHMARK.json: {err}")
    workloads = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]

    for workload in workloads:
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {k + 1} seed {seed} ({order[0]} first): " + ", ".join(
                f"{name} {pair['parent'][name]:.4g}/{pair['change'][name]:.4g}"
                for name in METRICS), flush=True)

        summary = summarize(pairs)
        over = over_bound(summary, declared["end_to_end"])
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['parent_median']:.4g} -> "
                  f"{s['change_median']:.4g}, parent IQR {s['parent_iqr']:.4g}, "
                  f"change lower in {s['change_wins']} of {len(pairs)} pairs"
                  + ", OVER BOUND" * (name in over), flush=True)

        if args.json:
            data = json.loads(args.json.read_text()) if args.json.exists() else {}
            data.setdefault("python", sys.version.split()[0])
            data.setdefault("workloads", {})[workload] = {
                "seconds": args.seconds, "pairs": pairs, "summary": summary}
            args.json.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
