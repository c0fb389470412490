"""The line tracer of `tools/line_map.py`, on a module of its own.

No test here runs the suite or the benchmark under the tracer.
"""

from __future__ import annotations

import importlib.util
import runpy
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "line_map.py"
_spec = importlib.util.spec_from_file_location("line_map", _PATH)
line_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_map)

SAMPLE = '''\
def sign(x):
    """The sign of a nonzero number."""
    if x < 0:
        return -1
    return 1


SIGN = sign(5)
'''


def test_the_one_line_no_call_reaches_is_listed(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE)
    before = sys.gettrace()
    seen = line_map.trace_lines(tmp_path, lambda: runpy.run_path(str(module)))
    assert sys.gettrace() is before
    assert line_map.unreached(module, seen[module.resolve()]) == [(4, "        return -1")]
    # without a run, every executable line is listed; the docstring is not
    assert [n for n, _ in line_map.unreached(module, set())] == [1, 3, 4, 5, 8]
