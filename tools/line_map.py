"""List the lines of `src/contactk` that neither Tier-1 nor the benchmark reaches.

    python3 tools/line_map.py

Runs the Tier-1 suite (`pytest -q` over the `testpaths` of
`pyproject.toml`) in this process, then one op of each benchmark workload
through `bench/run.py`'s own `Run.one_op` (seed 0), with a trace function
that records the lines run in files under `src/contactk`.  Commands that
tests start in a child process (with `src` on PYTHONPATH, as in Tier-1's
command line) are not seen.  For each module it then prints the
executable lines (those its compiled code maps an instruction to) that
neither run reached, with their text, and a total.  Tracing slows the
suite about three times: expect a minute and a half.  The exit code is 1
when a test or a benchmark op fails.  Standard library only, besides the
pytest that Tier-1 itself needs.
"""

from __future__ import annotations

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "contactk"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that the compiled code of `path` maps instructions to."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while todo:
        code = todo.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def trace_lines(root: Path, run) -> dict[Path, set[int]]:
    """Call `run()` with a line tracer on; returns, per file under `root`,
    the lines run.  Any trace function set before is restored after."""
    inside = str(root.resolve()) + os.sep
    seen: dict[Path, set[int]] = {}
    local: dict[str, object] = {}  # per code filename: its line tracer or None

    def tracer_for(filename: str):
        path = Path(filename).resolve()
        if not str(path).startswith(inside):
            return None
        lines = seen.setdefault(path, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local:
            local[filename] = tracer_for(filename)
        return local[filename]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


def unreached(path: Path, seen: set[int]) -> list[tuple[int, str]]:
    """(line number, text) of each executable line of `path` not in `seen`."""
    text = path.read_text(encoding="utf-8").splitlines()
    return [(n, text[n - 1]) for n in sorted(executable_lines(path) - seen)]


def _tier1_and_bench() -> bool:
    """Tier-1, then one op of each workload; True when all of it passed."""
    import pytest

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                        "--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml")])
    sys.path.insert(0, str(ROOT / "bench"))
    import run as bench
    import workloads

    ops = bench.Run(0, bench.NullTracer())
    for name in bench.WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        ops.one_op(workload, workload.setup(bench.CONFIGS))
    return code == 0 and not ops.failed and ops.correct


def main() -> int:
    # as Tier-1's command line does, for the tests' child processes too
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    passed = []
    seen = trace_lines(PACKAGE, lambda: passed.append(_tier1_and_bench()))
    total = 0
    print("\nlines of src/contactk that no test and no benchmark op reached:")
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = unreached(path, seen.get(path.resolve(), set()))
        total += len(lines)
        print(f"{path.relative_to(ROOT)}: {len(lines)}")
        for n, text in lines:
            print(f"  {n:4d}  {text.strip()}")
    print(f"total: {total}")
    return 0 if passed and passed[0] else 1


if __name__ == "__main__":
    sys.exit(main())
