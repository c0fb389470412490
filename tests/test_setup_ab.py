"""`tools/setup_ab.py` on two stub trees: each side imports its own tree."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "setup_ab.py"
_spec = importlib.util.spec_from_file_location("setup_ab", _PATH)
setup_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(setup_ab)

# a stub `bench/workloads.py`: its one workload's set-up logs the tree of
# this module, of the `contactk` it imported and of the configs it was given
WORKLOADS = '''
from pathlib import Path

import contactk

TREE = Path(__file__).parents[1].name


class Logged:
    @staticmethod
    def setup(config_dir):
        with open(config_dir.parents[2] / "log.txt", "a") as log:
            log.write(f"{TREE} {contactk.TREE} {config_dir.parents[1].name}\\n")


WORKLOADS = {"logged": Logged}
'''


def _purged():
    return [m for m in sys.modules
            if m in ("contactk", "workloads") or m.startswith("contactk.")]


@pytest.fixture
def restored_modules():
    """The test process's own `contactk` modules, back after the tool's purges."""
    saved = {m: sys.modules[m] for m in _purged()}
    yield
    for m in _purged():
        del sys.modules[m]
    sys.modules.update(saved)


def _stub_tree(root: Path, name: str) -> Path:
    tree = root / name
    (tree / "src" / "contactk").mkdir(parents=True)
    (tree / "bench" / "configs").mkdir(parents=True)
    (tree / "src" / "contactk" / "__init__.py").write_text(f"TREE = {name!r}\n")
    (tree / "bench" / "workloads.py").write_text(WORKLOADS)
    (tree / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "logged"}]}))
    return tree


def test_each_side_imports_its_own_tree(tmp_path, capsys, restored_modules):
    parent, change = _stub_tree(tmp_path, "parent"), _stub_tree(tmp_path, "change")
    assert setup_ab.main([str(parent), str(change)]) == 0
    lines = (tmp_path / "log.txt").read_text().splitlines()
    assert len(lines) == 2 * setup_ab.ROUNDS
    # the side that goes first alternates, and every set-up sees one tree
    firsts = ("parent", "change") * (setup_ab.ROUNDS // 2)
    assert [line.split()[0] for line in lines[::2]] == list(firsts)
    assert all(len(set(line.split())) == 1 for line in lines)
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == [
        "logged import", "logged setup", "logged setup_s"]
    assert not list(tmp_path.rglob("__pycache__"))
    assert sys.path.count(str(parent / "src")) == sys.path.count(str(change / "src")) == 0


def test_two_trees_are_required(capsys):
    with pytest.raises(SystemExit) as exit_info:
        setup_ab.main(["only-one"])
    assert "usage" in str(exit_info.value.code)
