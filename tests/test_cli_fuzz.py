"""Fuzzed cocycle input files: every line ends in an answer or a clean error.

Arbitrary lines go to `cocycle check`, `trivialize` and `verify` through
`cli.main`, as `--coboundary`, `--table` and `--functional` files.  Each
run must return exit code 0, 1 or 2 and raise nothing.  The lines mix
valid literals and values with broken ones (wrong entry counts, entries
off the lattice, integers of up to 5,000 digits, malformed rationals) and
with arbitrary text.  Examples that once ended in a traceback are pinned.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from contactk.cli import main

CONFIGS = {
    "caseB": "ell: 1 0 0 0 0 0\nj0: zero\ngamma: 1 0 0\ngamma: 0 1 0\ngamma: 0 0 1\n",
    "l2": "ell: 0 1 0 0 0 0\nj0: naturals\ngamma: 0 1 0\ngamma: 0 0 1\n",
    "l6z": "ell: 0 0 0 0 0 1\nj0: zero\ngamma: 1 0 0\n",
}
# a valid coboundary file per config, for the fuzzed --functional files
FORMS = {
    "caseB": "x[0,1,1] 3\n",
    "l2": "x[0,1,1] 3\nx[0,0,0]t[1,0,0] -1/2\n",
    "l6z": "x[1,0,0]t[0,0,1] 2\n",
}

# a literal in each config's lattice with exponents at its exponent slots
VALID = {
    "caseB": "x[{a},{b},{c}]",
    "l2": "x[0,{b},{c}]t[{i},0,{k}]",
    "l6z": "x[{a},0,0]t[0,{j},{k}]",
}

_odd = st.one_of(
    st.integers(-10**60, 10**60).map(str),
    st.sampled_from(["1/2", "-3/4", "1/0", "0/5", "1.5", "1e3", "1e5000", "-1e-5000",
                     "9" * 5000, "", " ", "a", "-", "1//2", "nan", "inf", "+2"]))
_entries = st.lists(st.one_of(st.integers(-2, 2).map(str), _odd), max_size=4).map(",".join)
_any_literals = st.builds(
    lambda alpha, exps: f"x[{alpha}]" + ("" if exps is None else f"t[{exps}]"),
    _entries, st.none() | _entries)
_values = st.one_of(st.sampled_from(["1", "-2", "3/2", "0"]), _odd)
_junk = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
                max_size=12)


def _files(name, kind):
    # mostly valid literals and values in lines of the width `kind` reads
    # (literal-literal-value for a table, literal-value otherwise), so that
    # many files get past the parser, with arbitrary lines mixed in
    coord, exp = st.integers(-2, 2), st.integers(0, 2)
    valid = st.builds(VALID[name].format, a=coord, b=coord, c=coord, i=exp, j=exp, k=exp)
    literals = st.one_of(valid, valid, valid, valid, _any_literals)
    values = st.one_of(st.sampled_from(["1", "-2", "3/2"]), _values)
    table = st.builds("{} {} {}".format, literals, literals, values)
    functional = st.builds("{} {}".format, literals, values)
    shaped = table if kind == "--table" else functional
    lines = st.one_of(
        shaped, shaped, shaped, table | functional,
        st.lists(st.one_of(literals, values, _junk), max_size=4).map(" ".join),
        _junk.map(lambda text: "x[0,0,0] 1 #" + text))
    return st.lists(lines, max_size=3).map(lambda lines: "\n".join(lines) + "\n")


def _cases(kinds):
    # (config name, file kind, file text)
    return st.tuples(st.sampled_from(sorted(CONFIGS)), st.sampled_from(kinds)).flatmap(
        lambda nk: st.tuples(st.just(nk[0]), st.just(nk[1]), _files(*nk)))


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz_configs")
    paths = {}
    for name, text in CONFIGS.items():
        paths[name] = base / f"{name}.cfg"
        paths[name].write_text(text)
    return paths


def _exit_code(argv) -> int:
    # main must return; an exception here is a traceback in the command
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


def _fuzz(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@_fuzz(80)
@given(case=_cases(["--coboundary", "--table"]),
       command=st.sampled_from(["check", "trivialize", "verify"]))
@example(case=("l2", "--table", "x[0,1,0] x[0,0,1] 1e5000\n"), command="check")
@example(case=("l2", "--coboundary", "x[0,1,0] 1e5000\n"), command="trivialize")
@example(case=("l2", "--table", "x[0,0,1] x[0,1,0]t[0,0,1e5000] 1\n"), command="check")
@example(case=("l2", "--table", f"x[0,1,0] x[0,0,{'9' * 4300}] 1\n"), command="check")
@example(case=("l2", "--table", f"x[0,1,0] x[0,0,1] {'9' * 4300}\n"), command="check")
def test_fuzzed_form_files_exit_cleanly(config_paths, tmp_path_factory, case, command):
    name, kind, text = case
    form = tmp_path_factory.mktemp("form") / "form.txt"
    form.write_text(text, encoding="utf-8")
    argv = ["cocycle", command, "--config", config_paths[name], kind, form]
    if command == "check":
        argv += ["--triples", "5"]
    elif command == "trivialize":
        argv += ["--radius", "1", "--out", form.with_name("f.txt")]
    else:
        argv += ["--functional", form, "--radius", "1"]
    assert _exit_code(argv) in (0, 1, 2)


@_fuzz(40)
@given(case=_cases(["--functional"]))
def test_fuzzed_functional_files_exit_cleanly(config_paths, tmp_path_factory, case):
    name, _kind, text = case
    base = tmp_path_factory.mktemp("functional")
    form = base / "g.txt"
    form.write_text(FORMS[name])
    functional = base / "f.txt"
    functional.write_text(text, encoding="utf-8")
    argv = ["cocycle", "verify", "--config", config_paths[name], "--coboundary", form,
            "--functional", functional, "--radius", "1"]
    assert _exit_code(argv) in (0, 1, 2)


@_fuzz(20)
@given(data=st.binary(max_size=40))
@example(data=b"\x80 x[0,1,0] 1\n")
def test_undecodable_files_exit_2(config_paths, tmp_path_factory, data):
    # bytes that are not UTF-8 end in a clean error like any other bad file
    path = tmp_path_factory.mktemp("bytes") / "form.txt"
    path.write_bytes(data)
    code = _exit_code(["cocycle", "check", "--config", config_paths["l2"],
                       "--table", path, "--triples", "5"])
    assert code in (0, 1, 2)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert code == 2
