"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload table --seed 1 --seconds 20 --trace 0

Runs from the root of a contactk checkout, importing `src/contactk`
in-process: one process, no threads.  The run sets the workload up
SETUP_REPEATS times (fresh import, config load, input generation) and
reports the median as `setup_s`.  It then runs a closed loop of ops for
`--seconds`.  An op is one command invocation per config; each of these
steps is timed on its own, with REF_SAMPLES runs of a fixed stdlib-only
reference kernel between consecutive steps, and the op's output is checked
outside the timed region.  The op's time in reference units is the sum
over its steps of the step's time divided by the mean kernel time on
either side of it; `op_p50_ref` is the median of that over ops.  The
machine's speed drifts by tens of percent between processes and within
seconds; kernel samples next to each step see the drift the step sees,
so the ratio holds where raw seconds do not.  The raw median op time and
ops per second are printed on the info line above the result, not as
metrics: their run-to-run spread reached a quarter of their median.

With `--trace 1` the run records spans around its calls into contactk,
runs one op of every other workload after the loop so that every layer
is measured, prints the per-layer metrics instead of the end-to-end ones
and writes the spans to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = BENCH / "configs"
OUT = BENCH / "out"
SETUP_REPEATS = 9
REF_ROUNDS = 1000
REF_SAMPLES = 2
# peak RSS is read once this many ops are done, so that it measures a
# fixed amount of work: sessions whose caches grow per op would otherwise
# report a peak that follows the machine's speed through the op count
MEM_OPS = 6

WORKLOAD_NAMES = ("table", "suite", "decompose", "roundtrip")


def reference_kernel():
    """Fixed work shaped like contactk's inner loops, using no contactk code:
    `Fraction` arithmetic, tuple-keyed dict updates and small allocations."""
    acc: dict[tuple, Fraction] = {}
    total = Fraction(0)
    for i in range(REF_ROUNDS):
        key = (i % 13, i % 7 - 3)
        q = Fraction(i % 9 - 4, i % 5 + 1)
        value = acc.get(key, 0) + q
        if value:
            acc[key] = value
        else:
            acc.pop(key, None)
        total += q * q
        row = [key, (i, q)]
    return total, len(acc), row


def fresh_setup(workload: str):
    """Import contactk and the workloads anew, then set `workload` up.

    Returns (seconds, workloads module, state)."""
    for name in [m for m in sys.modules
                 if m in ("contactk", "workloads") or m.startswith("contactk.")]:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    module = importlib.import_module("workloads")
    state = module.WORKLOADS[workload].setup(CONFIGS)
    return perf_counter() - start, module, state


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


class Run:
    """Counters and timings of one run."""

    def __init__(self, seed, tracer):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.op_times: list[float] = []
        self.op_refs: list[float] = []  # op time in reference-kernel units
        self.ref_times: list[float] = []

    def one_op(self, workload, state):
        """Run one op step by step with reference-kernel samples between the
        steps, then check the op's output."""
        gc.collect()
        inp = workload.draw(state, self.rng)
        reference_kernel()  # warm-up: the collection above leaves caches cold
        self.tracer.op = self.attempted
        self.attempted += 1
        out, elapsed, in_ref = {}, 0.0, 0.0
        try:
            with self.tracer.span("op"):
                ref = self.reference_samples()
                steps = workload.op(state, inp, self.tracer)
                while True:
                    start = perf_counter()
                    step = next(steps, None)
                    seconds = perf_counter() - start
                    if step is None:
                        break
                    after = self.reference_samples()
                    elapsed += seconds
                    in_ref += seconds / statistics.fmean(ref + after)
                    ref = after
                    out[step[0]] = step[1]
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        self.op_times.append(elapsed)
        self.op_refs.append(in_ref)
        try:
            workload.check(state, inp, out, self.rng, self.tracer,
                           self.attempted == 1)
        except Exception as err:
            self.correct = False
            print(f"check failed: {type(err).__name__}: {err}", file=sys.stderr)

    def reference_samples(self) -> list[float]:
        samples = []
        with self.tracer.span("bench.reference_kernel"):
            for _ in range(REF_SAMPLES):
                start = perf_counter()
                reference_kernel()
                samples.append(perf_counter() - start)
        self.ref_times += samples
        return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contactk" / "__init__.py").is_file():
        print(f"error: no contactk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, module, state = fresh_setup(args.workload)
        setup_times.append(seconds)
    workload = module.WORKLOADS[args.workload]

    tracer = Tracer() if args.trace else NullTracer()
    run = Run(args.seed, tracer)
    peak_rss_kb = None
    loop_start = perf_counter()
    while True:
        run.one_op(workload, state)
        if run.attempted == MEM_OPS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if perf_counter() - loop_start >= args.seconds:
            break
    if peak_rss_kb is None:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_ops = len(run.op_times)
    if args.trace:
        for other in WORKLOAD_NAMES:
            if other != args.workload:
                extra = module.WORKLOADS[other]
                run.one_op(extra, extra.setup(CONFIGS))

    if not run.op_times:
        print("error: every op failed", file=sys.stderr)
        return 1
    op_times = run.op_times[:loop_ops]
    op_p50_ref = statistics.median(run.op_refs[:loop_ops])
    # raw seconds are printed, not gated: they follow the machine's speed
    print(f"info: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {platform.python_version()}, src lines {src_line_count()}, "
          f"attempted {run.attempted}, failed {run.failed}, loop ops {loop_ops}, "
          f"reference kernel median {statistics.median(run.ref_times) * 1e3:.3f} ms, "
          f"op_p50_ms {statistics.median(op_times) * 1e3:.1f}, "
          f"ops_per_s {len(op_times) / sum(op_times):.4f}, "
          f"op_p50_ref {op_p50_ref:.3f}")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = tracer.layer_metrics(module.LAYER_METRICS)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_ref": {"value": op_p50_ref, "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
