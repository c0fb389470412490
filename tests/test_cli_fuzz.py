"""Fuzzed input files and specs: every input ends in an answer or a clean error.

Arbitrary lines go to `cocycle check`, `trivialize` and `verify` through
`cli.main`, as `--coboundary`, `--table` and `--functional` files; config
files (as text and as raw bytes) go to `check-config`, and operator specs
to `deriv check --op`.  Each run must return exit code 0, 1 or 2 and raise
nothing.  The inputs mix valid literals, values, config lines and operator
terms with broken ones (wrong entry counts, entries off the lattice,
integers of up to 5,000 digits, malformed rationals) and with arbitrary
text.  Examples that once ended in a traceback or a wrong answer are
pinned.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from contactk import Shape
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


# -- config files and operator specs ----------------------------------

_small = st.integers(-2, 2).map(str)
_rationals = st.one_of(_small, _small, st.sampled_from(["1/2", "-1/3", "2/4"]), _odd)


@st.composite
def _config_texts(draw):
    # a valid config (unit generators at its required slots, perhaps at
    # slot 0 too), then a few edits that may or may not keep it valid, so
    # that files reach each check of the parser and the lattice
    ell = draw(st.lists(st.integers(0, 1), min_size=6, max_size=6).filter(any))
    shape = Shape(ell)
    n = shape.n
    slots = [shape.slot(p) for p in shape.blocks(1, 5)]
    slots += [shape.slot(p + n) for p in shape.blocks(1, 3)]
    zero_slot = draw(st.booleans())
    rows = [[0] * shape.dim for _ in range(len(slots) + zero_slot)]
    for row, s in zip(rows, [0] * zero_slot + slots):
        row[s] = 1
    rows = [[str(x) for x in row] for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["entry", "entry", "halve", "drop", "extra"]))
        if edit == "entry" and rows[k]:
            rows[k][draw(st.integers(0, len(rows[k]) - 1))] = draw(_rationals)
        elif edit == "halve":
            rows[k] = [f"{x}/2" for x in rows[k]]
        elif edit == "drop":
            rows.pop(k)
        else:
            rows.append(draw(st.lists(_rationals, max_size=shape.dim + 1)))
    j0 = "zero" if zero_slot and draw(st.booleans()) else "naturals"
    lines = [f"ell: {' '.join(map(str, ell))}", f"j0: {j0}"]
    lines += [f"gamma: {' '.join(row)}" for row in rows]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        key = lines[k].partition(":")[0]
        lines[k] = draw(st.one_of(
            _junk, st.lists(st.one_of(_small, _odd), max_size=7).map(" ".join)
            .map(f"{key}: {{}}".format)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@_fuzz(150)
@given(text=_config_texts())
@example(text="ell: 0 0 0 0 0 1\nj0: naturals\ngamma: 1e-400 0 0\n")
def test_fuzzed_config_files_exit_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("config") / "fuzz.cfg"
    path.write_text(text, encoding="utf-8")
    assert _exit_code(["check-config", "--config", path]) in (0, 2)


@_fuzz(20)
@given(data=st.binary(max_size=60))
@example(data=b"ell: 0 0 0 0 0 1\nj0: naturals\ngamma: 1 0 \xff\n")
def test_fuzzed_config_bytes_exit_cleanly(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("config_bytes") / "fuzz.cfg"
    path.write_bytes(data)
    assert _exit_code(["check-config", "--config", path]) in (0, 2)


_l2_literal = st.builds(
    VALID["l2"].format, a=st.just(0), b=st.integers(-2, 2), c=st.integers(-2, 2),
    i=st.integers(0, 2), j=st.just(0), k=st.integers(0, 2))
_coeffs = st.sampled_from(["1", "-2", "3/2"])
# on l2 a hom vanishes on the block-2 shift (0, -1, -1) when its values
# are (a, -a); index 1bar is the one outer lowering
_valid_terms = st.one_of(
    st.builds("ad {}*{}".format, _coeffs, _l2_literal),
    st.builds("ad {}*{} + {}*{}".format, _coeffs, _l2_literal, _coeffs, _l2_literal),
    st.integers(-3, 3).map(lambda a: f"dmu {a} {-a}"),
    st.just("dt 1bar"))
_odd_terms = st.one_of(
    st.builds("ad {}*{}".format, _values, _any_literals),
    st.builds("dmu {} {}".format, _rationals, _rationals),
    st.builds("dmu {}".format, st.lists(_rationals, max_size=3).map(" ".join)),
    st.builds("dt {}".format, st.sampled_from(
        ["1", "0", "2", "0bar", "3bar", "bar", "-1", "1barbar", ""])),
    _junk)
_scalars = st.sampled_from(["", "", "2 ", "-1/2*", "3*", "1/0 ", "0 ", "1e3 "])
_op_specs = st.lists(
    st.tuples(_scalars, st.one_of(_valid_terms, _valid_terms, _odd_terms)).map("".join),
    max_size=3).map(" + ".join)


@_fuzz(60)
@given(spec=_op_specs)
def test_fuzzed_operator_specs_exit_cleanly(config_paths, spec):
    # "--op=SPEC": argparse would take a spec such as "-1/2*" for a flag
    argv = ["deriv", "check", "--config", config_paths["l2"], f"--op={spec}",
            "--samples", "5"]
    assert _exit_code(argv) in (0, 1, 2)
