"""End-to-end command-line behavior, file formats, exit codes."""

from __future__ import annotations

import gc
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from contactk import (
    CheckReport, check_cocycle, coboundary, format_basis_index, parse_basis_index,
    parse_element, sample_index, trivialize, window_indices,
)
from contactk.algebra import bracket_support, bracket_terms, pair_reaching
from contactk.cohomology import targeted_triples
from contactk.cli import (
    load_config, load_functional, load_table_cocycle, main, parse_operator_spec,
)

GOLDEN = Path(__file__).parent / "golden"
CASEB = "ell: 1 0 0 0 0 0\nj0: zero\ngamma: 1 0 0\ngamma: 0 1 0\ngamma: 0 0 1\n"
L2 = "ell: 0 1 0 0 0 0\nj0: naturals\ngamma: 0 1 0\ngamma: 0 0 1\n"
L3 = "ell: 0 0 1 0 0 0\nj0: naturals\ngamma: 0 1 0\ngamma: 0 0 1\n"
DECOMP = "ell: 0 1 0 0 0 0\nj0: naturals\ngamma: 1 0 0\ngamma: 0 1 0\ngamma: 0 0 1\n"


@pytest.fixture()
def caseb_path(tmp_path):
    p = tmp_path / "caseB.cfg"
    p.write_text(CASEB)
    return str(p)


@pytest.fixture()
def l2_path(tmp_path):
    p = tmp_path / "l2.cfg"
    p.write_text(L2)
    return str(p)


@pytest.fixture()
def l3_path(tmp_path):
    p = tmp_path / "l3.cfg"
    p.write_text(L3)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_config(capsys, caseb_path):
    code, out, _ = run(capsys, ["check-config", "--config", caseb_path])
    assert code == 0
    assert out.startswith("ok: blocks 1 0 0 0 0 0")


def test_check_config_rejects_bad_file(capsys, tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("ell: 1 0 0 0 0 0\nj0: zero\ngamma: 0 1 0\ngamma: 0 0 1\n")
    code, _, err = run(capsys, ["check-config", "--config", str(p)])
    assert code == 2
    assert "error:" in err


def test_bracket_example(capsys, caseb_path):
    code, out, _ = run(capsys, [
        "bracket", "--config", caseb_path, "1*x[0,2,0]", "1*x[0,0,2]"])
    assert code == 0
    assert out.strip() == "4*x[0,1,1]"


def test_bracket_oracle_flag(capsys, caseb_path):
    code, out, _ = run(capsys, [
        "bracket", "--config", caseb_path, "--oracle",
        "2*x[0,1,0] + 1*x[0,0,1]", "1*x[0,1,1]"])
    assert code == 0


def test_bracket_oracle_disagreement_prints_both_routes(capsys, caseb_path, monkeypatch):
    # both routes agree on every input; a stand-in oracle shows the report
    config = load_config(caseb_path)
    monkeypatch.setattr("contactk.cli.bracket_operator",
                        lambda u, v: parse_element(config, "-1*x[0,1,1]"))
    assert run(capsys, ["bracket", "--config", caseb_path, "--oracle",
                        "1*x[0,2,0]", "1*x[0,0,2]"]) == (
        1, "", "route disagreement:\n  closed:   4*x[0,1,1]\n  operator: -1*x[0,1,1]\n")


def test_bracket_bad_literal(capsys, caseb_path):
    code, _, err = run(capsys, [
        "bracket", "--config", caseb_path, "nonsense", "1*x[0,0,1]"])
    assert code == 2
    assert "error:" in err


def test_bracket_zero_denominator_coefficient(capsys, l2_path):
    code, _, err = run(capsys, [
        "bracket", "--config", l2_path, "1/0*x[0,1,1]", "1*x[0,0,0]"])
    assert code == 2
    assert "error: bad rational" in err


def test_mul(capsys, caseb_path):
    code, out, _ = run(capsys, [
        "mul", "--config", caseb_path, "2*x[0,1,0]", "3*x[0,0,1]"])
    assert code == 0
    assert out.strip() == "6*x[0,1,1]"


def test_table_radius_zero(capsys, caseb_path):
    code, out, _ = run(capsys, ["table", "--config", caseb_path, "--radius", "0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lhs_index,rhs_index,result_term_index,coefficient"
    assert lines[1] == '"x[0,0,0]","x[0,0,0]",0,0'
    assert len(lines) == 2


def test_huge_radius_exits_2_before_any_bracket(capsys, l2_path, tmp_path, monkeypatch):
    # radius 12 on l2 is 105,625 window indices, under the window cap, but
    # about 5.6e9 pairs to verify or trivialize and 1.1e10 to table: all
    # three stop at once
    import contactk.algebra as algebra
    import contactk.cli as cli
    import contactk.cohomology as cohomology

    def no_work(*args, **kwargs):
        raise AssertionError("work started past the pair cap")

    for module in (algebra, cohomology):
        monkeypatch.setattr(module, "bracket_terms", no_work)
    for module in (algebra, cli):
        monkeypatch.setattr(module, "window_indices", no_work)
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] 3\n")
    code, out, err = run(capsys, [
        "cocycle", "verify", "--config", l2_path, "--coboundary", str(func),
        "--functional", str(func), "--radius", "12"])
    assert (code, out) == (2, "")
    assert err == ("error: window of radius 12 gives 5578373125 bracket pairs; "
                   "the cap is 1000000\n")
    code, out, err = run(capsys, ["table", "--config", l2_path, "--radius", "12"])
    assert (code, out) == (2, "")
    assert "gives 11156640625 bracket pairs" in err
    code, out, err = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--coboundary", str(func),
        "--radius", "12"])
    assert (code, out) == (2, "")
    assert "gives 5578373125 bracket pairs" in err


def test_decompose_past_the_pair_cap_exits_2_before_any_window(
        capsys, l2_path, monkeypatch):
    # radius 6 / 6 on l2: 8,281 window indices times 8,281 inner columns
    import contactk.algebra as algebra
    import contactk.cli as cli
    import contactk.derivations as derivations

    def no_work(*args, **kwargs):
        raise AssertionError("work started past the pair cap")

    for module in (algebra, derivations):
        monkeypatch.setattr(module, "bracket_terms", no_work)
    for module in (algebra, cli):
        monkeypatch.setattr(module, "window_indices", no_work)
    code, out, err = run(capsys, [
        "deriv", "decompose", "--config", l2_path, "--op", "dmu 1 -1",
        "--radius", "6", "--inner-radius", "6"])
    assert (code, out) == (2, "")
    assert err == ("error: windows of radius 6 and inner radius 6 give 68574961 "
                   "(window index, inner column) pairs; the cap is 1000000\n")


def test_table_file_and_determinism(capsys, caseb_path, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code, _, _ = run(capsys, [
            "table", "--config", caseb_path, "--radius", "2", "--out", str(out)])
        assert code == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert b'"x[0,2,0]","x[0,0,2]","x[0,1,1]",4' in data


def test_suite_deterministic_and_exit_zero(capsys, l2_path):
    code1, out1, err1 = run(capsys, [
        "suite", "--config", l2_path, "--seed", "9", "--samples", "40"])
    code2, out2, _ = run(capsys, [
        "suite", "--config", l2_path, "--seed", "9", "--samples", "40"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: PASS" in out1
    assert "duration:" in err1 and "duration:" not in out1


def test_deriv_check(capsys, l2_path):
    code, out, _ = run(capsys, [
        "deriv", "check", "--config", l2_path,
        "--op", "dt 1bar", "--samples", "50"])
    assert code == 0
    assert out.startswith("PASS derivation-law")


def test_deriv_check_compound_op(capsys, caseb_path):
    code, out, _ = run(capsys, [
        "deriv", "check", "--config", caseb_path,
        "--op", "ad 1*x[0,1,0] + 2*x[0,0,1] + 3 dmu 3 1 -1", "--samples", "40"])
    assert code == 0


def test_deriv_check_failure_prints_its_witness(capsys, caseb_path, monkeypatch):
    # every operator the spec language builds is a derivation; a stand-in
    # checker that reports one failure shows the failure's lines
    config = load_config(caseb_path)
    failure = (parse_basis_index(config, "x[0,1,0]"), parse_basis_index(config, "x[0,0,1]"),
               parse_element(config, "2*x[0,1,1]"), parse_element(config, "3/2*x[0,0,0]"))
    monkeypatch.setattr("contactk.cli.check_derivation",
                        lambda op, pairs: CheckReport(len(list(pairs)), [failure]))
    assert run(capsys, ["deriv", "check", "--config", caseb_path, "--op", "ad 1*x[0,0,0]",
                        "--samples", "4"]) == (
        1, "FAIL derivation-law (4 samples)\n"
           "  witness: x[0,1,0] , x[0,0,1]\n"
           "  action on bracket: 2*x[0,1,1]\n"
           "  bracket of actions: 3/2*x[0,0,0]\n", "")


def test_deriv_check_rejects_bad_spec(capsys, caseb_path):
    for spec in ["dt 1", "dmu 1 0", "spin 3", "dmu 1 0 1"]:
        code, _, err = run(capsys, [
            "deriv", "check", "--config", caseb_path, "--op", spec])
        assert code == 2, spec
        assert "error:" in err


def test_deriv_check_zero_denominator_scalar(capsys, l3_path):
    code, _, err = run(capsys, [
        "deriv", "check", "--config", l3_path, "--op", "1/0 dt 1bar"])
    assert code == 2
    assert "error: bad rational in operator scalar" in err


def test_deriv_decompose(capsys, l2_path):
    code, out, _ = run(capsys, [
        "deriv", "decompose", "--config", l2_path,
        "--op", "dt 1bar + 2 ad 1*x[1,0]".replace("1*x[1,0]", "1*x[0,1,0]"),
        "--radius", "2", "--inner-radius", "1"])
    assert code == 0
    assert "dt 1bar: 1" in out
    assert "inner: 2*x[0,1,0]" in out
    assert out.strip().endswith("residual: zero")


def test_deriv_decompose_prints_a_hom_part(capsys, tmp_path):
    config = tmp_path / "decomp.cfg"
    config.write_text(DECOMP)
    assert run(capsys, ["deriv", "decompose", "--config", str(config), "--op", "dmu 1 0 0"]) == (
        0, "outer:\n  dt 1bar: 0\nhom: 1 0 0\ninner: 0\nresidual: zero\n", "")


def test_deriv_decompose_residual_output(capsys):
    # x[0,3,3] is outside the inner support of radius 1, so the sweep
    # finds an action that no column reproduces
    code, out, err = run(capsys, [
        "deriv", "decompose", "--config", str(GOLDEN / "l2.cfg"),
        "--op", "ad 1*x[0,3,3]"])
    assert code == 1
    assert out == ("residual: unmatched action on x[0,-2,-2]t[0,0,1] "
                   "at result term x[0,0,0]\n")
    assert err == ""


def test_deriv_decompose_ambiguous(capsys, l2_path):
    code, out, _ = run(capsys, [
        "deriv", "decompose", "--config", l2_path, "--op", "dt 1bar",
        "--radius", "0", "--inner-radius", "1"])
    assert code == 1
    assert out == (
        "ambiguous: window does not determine coefficients for: dt 1bar, "
        "ad x[0,-1,-1], ad x[0,-1,-1]t[0,0,1], ad x[0,-1,0], ad x[0,-1,0]t[0,0,1], "
        "ad x[0,-1,1], ad x[0,-1,1]t[0,0,1], ad x[0,0,-1], ad x[0,0,-1]t[0,0,1], "
        "ad x[0,0,0], ad x[0,0,0]t[0,0,1], ad x[0,0,1], ad x[0,0,1]t[0,0,1], "
        "ad x[0,1,-1], ad x[0,1,-1]t[0,0,1], ad x[0,1,0], ad x[0,1,0]t[0,0,1], "
        "ad x[0,1,1], ad x[0,1,1]t[0,0,1]\n")


def test_cocycle_round_trip(capsys, l2_path, tmp_path):
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] 3\nx[0,0,0]t[1,0,0] -1/2\n")
    code, out, _ = run(capsys, [
        "cocycle", "check", "--config", l2_path,
        "--coboundary", str(func), "--triples", "25"])
    assert code == 0
    assert out == "PASS cocycle-axioms (25 triples)\n"

    recovered = tmp_path / "f.txt"
    code, out, _ = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path,
        "--coboundary", str(func), "--radius", "2", "--out", str(recovered)])
    assert (code, out) == (0, "")
    assert recovered.read_text() == "x[0,0,0]t[1,0,0] -1/2\nx[0,1,1] 3\n"

    code, out, _ = run(capsys, [
        "cocycle", "verify", "--config", l2_path,
        "--coboundary", str(func), "--functional", str(recovered),
        "--radius", "2"])
    assert code == 0
    assert out == "PASS trivialization (25425 pairs)\n"


def test_trivialize_honours_or_refuses_a_given_probe(capsys, caseb_path, l2_path, tmp_path):
    # a given probe always reaches the recursive trivializer: in the
    # closed-form regime it is refused, not ignored, and an invalid probe
    # is named as typed
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] 3\n")
    for probe in ("1", "1bar"):
        code, out, err = run(capsys, [
            "cocycle", "trivialize", "--config", caseb_path, "--coboundary", str(func),
            "--probe", probe])
        assert (code, out) == (2, "")
        assert err == "error: recursive trivializer needs exponents or a later block\n"
    code, out, err = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--coboundary", str(func),
        "--probe", "1bar"])
    assert (code, out) == (2, "")
    assert err == "error: invalid probe index 1bar for this configuration\n"
    code, out, err = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--coboundary", str(func),
        "--probe", ""])
    assert (code, out, err) == (2, "", "error: bad index token ''\n")
    code, out, _ = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--coboundary", str(func),
        "--probe", "1"])
    assert (code, out) == (0, "x[0,1,1] 3\n")


def test_trivialize_refuses_a_form_it_cannot_trivialize(capsys, l2_path, tmp_path):
    # a one-entry table that is no coboundary: trivialize prints verify's
    # FAIL and witness lines, exits 1 and writes no functional
    table = tmp_path / "t.txt"
    table.write_text("x[0,0,-1]t[0,0,1] x[0,-1,1] 3/2\n")
    recovered = tmp_path / "f.txt"
    code, out, _ = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--table", str(table),
        "--radius", "2", "--out", str(recovered)])
    assert code == 1
    assert out == ("FAIL trivialization (25425 pairs)\n"
                   "  witness: x[0,-1,1] , x[0,0,-1]t[0,0,1] "
                   "-> form -3/2, functional-on-bracket 0\n")
    assert not recovered.exists()


def test_check_aims_triples_at_a_table_support(capsys, l2_path, tmp_path, cfg_caseB,
                                               cfg_l2, cfg_l3, cfg_l4, cfg_l5):
    # the same one-entry table passes every one of 2,000 uniform triples
    # (they never reach its two indices); the targeted triples, drawn
    # after the uniform ones from the same seed, catch it at the defaults
    table = tmp_path / "t.txt"
    table.write_text("x[0,0,-1]t[0,0,1] x[0,-1,1] 3/2\n")
    config = load_config(l2_path)
    psi = load_table_cocycle(config, str(table))
    rng = random.Random(0)
    uniform = [tuple(sample_index(config, rng) for _ in range(3)) for _ in range(2000)]
    assert check_cocycle(psi, uniform).passed
    code, out, err = run(capsys, [
        "cocycle", "check", "--config", l2_path, "--table", str(table)])
    assert (code, err) == (1, "")
    assert out == ("FAIL cocycle-axioms (50 uniform + 50 targeted triples)\n"
                   "  sum witness: x[0,0,3] , x[0,-1,-2]t[1,0,0] , "
                   "x[0,0,-1]t[0,0,1] -> 3/2\n")

    # every targeted triple is aimed: w is a table index and u + v a sum
    # whose bracket support holds w's partner
    pair = next(iter(psi.entries))
    for iu, iv, iw in targeted_triples(psi, random.Random(5), 200):
        partner = pair[1] if iw == pair[0] else pair[0]
        assert iw in pair
        assert partner in bracket_support(config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))

    # and the aimed pairs reach their target: over 2,000 seeded draws at
    # sampled targets, [u, v] has a term at the target at least 85% of
    # the time.  A support that lists the unshifted sum on a lattice with
    # no slot-0 vector, where the kernel emits nothing, held l2, l3, l4
    # and l5 at 59-74%
    for config in (cfg_caseB, cfg_l2, cfg_l3, cfg_l4, cfg_l5):
        rng = random.Random(6)
        hits = 0
        for _ in range(2000):
            target = sample_index(config, rng)
            hits += target in bracket_terms(config, *pair_reaching(config, target, rng))
        assert hits >= 1700, (config.shape.ell, hits)

    # a table with no nonzero entry gets no targeted triples
    table.write_text("x[0,0,-1]t[0,0,1] x[0,-1,1] 0\n")
    code, out, _ = run(capsys, [
        "cocycle", "check", "--config", l2_path, "--table", str(table)])
    assert (code, out) == (0, "PASS cocycle-axioms (50 uniform + 0 targeted triples)\n")


def test_cocycle_table_check_detects_non_cocycle(capsys, caseb_path, tmp_path):
    # dense skew table over small indices: not closed, and seed 0 samples
    # a witnessing triple
    keys = ["x[0,0,0]", "x[0,1,0]", "x[0,0,1]", "x[0,1,1]", "x[1,0,0]",
            "x[0,-1,0]", "x[0,0,-1]", "x[0,-1,-1]", "x[-1,0,0]", "x[0,2,0]",
            "x[0,0,2]", "x[0,1,-1]", "x[0,-1,1]"]
    vals = [1, 2, -1, 3, 1, -2, 2, 1, -3, 1, 2, -1, 1, 3, -2, 2]
    lines, k = [], 0
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            k += 1
            lines.append(f"{keys[i]} {keys[j]} {vals[k % len(vals)]}")
    table = tmp_path / "t.txt"
    table.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, [
        "cocycle", "check", "--config", caseb_path,
        "--table", str(table), "--triples", "150", "--seed", "0"])
    assert code == 1
    assert out == ("FAIL cocycle-axioms (150 uniform + 150 targeted triples)\n"
                   "  sum witness: x[-1,2,-2] , x[0,1,0] , x[1,1,3] -> 8\n")


def test_cocycle_check_failure_prints_each_witness(capsys, l2_path, tmp_path, monkeypatch):
    # a coboundary always passes; a stand-in checker that reports a sum
    # failure on one shows the sum witness line
    config = load_config(l2_path)
    a, b, c = (parse_basis_index(config, x) for x in ("x[0,1,0]", "x[0,0,1]t[1,0,0]", "x[0,0,0]"))
    monkeypatch.setattr("contactk.cli.check_cocycle", lambda psi, triples: CheckReport(
        len(list(triples)), [(a, b, c, Fraction(-7, 2))]))
    func = tmp_path / "g.fn"
    func.write_text("x[0,1,1] 3\n")
    assert run(capsys, ["cocycle", "check", "--config", l2_path, "--coboundary", str(func),
                        "--triples", "2"]) == (
        1, "FAIL cocycle-axioms (2 triples)\n"
           "  sum witness: x[0,1,0] , x[0,0,1]t[1,0,0] , x[0,0,0] -> -7/2\n", "")


def test_sampled_checks_draw_as_they_check(capsys, l2_path, tmp_path):
    # `deriv check` and `cocycle check` take each sampled pair or triple as
    # it is drawn, so their memory does not grow with the count; holding
    # 5,000 draws in a list peaked at 3.8 to 5.4 MB.  A check stops at its
    # first failure, so a failing one does not grow with its failures
    # either: keeping them all peaked at 3.7 MB for the failing table
    func = tmp_path / "g.fn"
    func.write_text("x[0,1,1] 3\nx[0,0,1]t[0,0,1] 1/2\n")
    table = tmp_path / "t.tab"
    table.write_text("x[0,1,0] x[0,0,1]t[0,0,1] 2\n")

    def traced(argv):
        gc.collect()  # garbage left by earlier runs would move the peak
        tracemalloc.start()
        try:
            code = main(argv)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return code, capsys.readouterr().out, peak

    for argv, code, out in (
            (["deriv", "check", "--op", "dt 1bar", "--samples"], 0,
             "PASS derivation-law (5000 samples)\n"),
            (["cocycle", "check", "--coboundary", str(func), "--triples"], 0,
             "PASS cocycle-axioms (5000 triples)\n"),
            (["cocycle", "check", "--table", str(table), "--triples"], 1,
             "FAIL cocycle-axioms (5000 uniform + 5000 targeted triples)\n")):
        argv[2:2] = ["--config", l2_path]
        main(argv + ["1"])
        capsys.readouterr()
        got, text, peak = traced(argv + ["5000"])
        assert (got, text.splitlines(True)[0]) == (code, out)
        assert peak < 1_000_000, (argv, peak)

    # a functional on the whole window against the zero functional fails
    # at nearly every pair; keeping every failing pair peaked higher than
    # the passing run, at 3.13 against 1.74 MB
    rng = random.Random(3)
    g = tmp_path / "g.fn"
    g.write_text("".join(f"{format_basis_index(i)} {rng.randint(1, 5)}\n"
                         for i in window_indices(load_config(l2_path), 2)))
    zero = tmp_path / "zero.fn"
    zero.write_text("")
    verify = ["cocycle", "verify", "--config", l2_path, "--coboundary", str(g),
              "--radius", "2", "--functional"]
    code, text, passing = traced(verify + [str(g)])
    assert (code, text) == (0, "PASS trivialization (25425 pairs)\n")
    code, text, failing = traced(verify + [str(zero)])
    assert (code, text.splitlines(True)[0]) == (1, "FAIL trivialization (25425 pairs)\n")
    assert failing <= passing, (failing, passing)


def test_cocycle_table_file_errors(capsys, caseb_path, tmp_path):
    table = tmp_path / "bad.txt"
    table.write_text("x[0,1,0] x[0,0,1]\n")
    code, _, err = run(capsys, [
        "cocycle", "check", "--config", caseb_path, "--table", str(table)])
    assert code == 2
    table.write_text("x[0,1,0] x[0,1,0] 3\n")
    code, _, err = run(capsys, [
        "cocycle", "check", "--config", caseb_path, "--table", str(table)])
    assert code == 2
    assert "error:" in err


def test_functional_file_bad_value(capsys, l2_path, tmp_path):
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] abc\n")
    code, _, err = run(capsys, [
        "cocycle", "check", "--config", l2_path, "--coboundary", str(func)])
    assert code == 2
    assert f"error: bad rational in the value at {func}:1" in err


def test_a_zero_diagonal_table_entry_changes_nothing(capsys, caseb_path, tmp_path):
    # nor does the flip of an entry at its negated value
    outputs = []
    for extra in ("", "x[0,1,0] x[0,1,0] 0\n", "x[0,0,1] x[0,1,0] -2\n"):
        table = tmp_path / "t.tab"
        table.write_text("x[0,1,0] x[0,0,1] 2\n" + extra + "x[1,0,0] x[0,0,1] -1\n")
        outputs.append(run(capsys, [
            "cocycle", "check", "--config", caseb_path, "--table", str(table)]))
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0][0] == 1


@pytest.mark.parametrize("form", ["--coboundary", "--functional"])
def test_a_functional_file_gives_each_index_one_value(capsys, l2_path, tmp_path, form):
    good = tmp_path / "good.fn"
    good.write_text("x[0,0,0]t[0,0,1] 1\n")
    func = tmp_path / "g.fn"
    check = {"--coboundary": ["cocycle", "check", "--config", l2_path, "--coboundary"],
             "--functional": ["cocycle", "verify", "--config", l2_path,
                              "--coboundary", str(good), "--functional"]}[form]
    func.write_text("x[0,0,0]t[0,0,1] 1\nx[0,0,0]t[0,0,1] 5\n")
    assert run(capsys, [*check, str(func)]) == (
        2, "", f"error: {func}:2: conflicting duplicate index\n")
    # the same value twice is one entry
    func.write_text("x[0,0,0]t[0,0,1] 1\nx[0,0,0]t[0,0,1] 1\n")
    assert run(capsys, [*check, str(func)])[0] == 0


@pytest.mark.parametrize("argv, text, message", [
    # caseB's zero-slot exponents are off
    (["bracket", "--config", "{caseB}", "--", "1*x[0,1,0]t[1,0,0]", "1*x[0,0,1]"], "",
     "exponent entries must vanish at index 0"),
    # a config error names the file, and the line when it is one line's
    (["check-config", "--config", "{file}"], CASEB + "colour: red\n",
     "{file}:6: unknown key 'colour'"),
    (["check-config", "--config", "{file}"], "ell: 1 0 0 0 0 0\nj0: zero\n",
     "{file}: gamma needs at least one generator"),
    (["deriv", "check", "--config", "{caseB}", "--op", "dmu 1 0"], "",
     "hom needs one value per gamma generator"),
    (["cocycle", "check", "--config", "{caseB}", "--coboundary", "{file}"], "y 2\n",
     "cannot parse basis literal 'y'"),
    (["cocycle", "check", "--config", "{caseB}", "--table", "{file}"],
     "x[0,1,0] x[0,0,1] 2\nx[0,1,0] x[0,0,1] 3\n", "{file}:2: conflicting duplicate pair"),
    # the refusals `TableCocycle` makes, at the table line that causes them
    (["cocycle", "check", "--config", "{caseB}", "--table", "{file}"],
     "x[0,1,0] x[0,0,1] 2\n\nx[0,1,0] x[0,1,0] 3\n",
     "{file}:3: diagonal cocycle entries must be zero"),
    (["cocycle", "check", "--config", "{caseB}", "--table", "{file}"],
     "x[0,1,0] x[0,0,1] 2\nx[0,0,1] x[0,1,0] 3\n",
     "{file}:2: inconsistent values for the pair (x[0,0,1], x[0,1,0])"),
])
def test_malformed_input_exits_2(capsys, caseb_path, tmp_path, argv, text, message):
    file = tmp_path / "input.txt"
    file.write_text(text)
    fill = {"caseB": caseb_path, "file": str(file)}
    assert run(capsys, [a.format(**fill) for a in argv]) == (
        2, "", f"error: {message.format(**fill)}\n")


@pytest.mark.parametrize("brk", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_config_and_value_files_break_lines_alike(capsys, tmp_path, brk):
    # every input file is split at each `str.splitlines` break
    config = tmp_path / "l2.cfg"
    config.write_text(L2.replace("\n", brk), encoding="utf-8")
    func = tmp_path / "g.fn"
    func.write_text(f"x[0,1,1] 3{brk}x[0,0,0]t[1,0,0] -1/2 # a note", encoding="utf-8")
    assert run(capsys, ["cocycle", "verify", "--config", str(config), "--coboundary", str(func),
                        "--functional", str(func), "--radius", "1"]) == (
        0, "PASS trivialization (666 pairs)\n", "")
    func.write_text(f"x[0,1,1] 3{brk}x[0,1,1] 5", encoding="utf-8")
    assert run(capsys, ["cocycle", "check", "--config", str(config), "--coboundary", str(func)]
               ) == (2, "", f"error: {func}:2: conflicting duplicate index\n")


@pytest.mark.parametrize("value", ["1e3", "1E3", "2e-1", "1e999999999", "1_0", "\u0661"])
def test_exponent_notation_is_refused(capsys, l2_path, tmp_path, value):
    # a few characters of exponent notation could stand for an integer of
    # any size, so a value in it is a bad rational, like any malformed one;
    # so is one with `_` or a non-ASCII digit, which Fraction would read
    func = tmp_path / "g.txt"
    func.write_text(f"x[0,1,1] {value}\n")
    code, out, err = run(capsys, [
        "cocycle", "check", "--config", l2_path, "--coboundary", str(func)])
    assert (code, out) == (2, "")
    assert err == f"error: bad rational in the value at {func}:1\n"
    code, _, err = run(capsys, [
        "bracket", "--config", l2_path, f"1*x[0,{value},0]", "1*x[0,0,0]"])
    assert code == 2 and err == "error: bad rational in x[...]\n"


@pytest.mark.parametrize(
    "value", ["1e-400", "1E3", "2e-1", "1e999999999", "1/0", "1_0", "\u0661"])
def test_gamma_lines_take_the_literal_rational_rule(capsys, tmp_path, value):
    # config files and literals read rationals by one rule
    cfg = tmp_path / "l6n.cfg"
    cfg.write_text(f"ell: 0 0 0 0 0 1\nj0: naturals\ngamma: {value} 0 0\n")
    code, out, err = run(capsys, ["check-config", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:3: bad rational in gamma line\n"


@pytest.mark.parametrize("digits", ["\u0661", "1_0"])
@pytest.mark.parametrize("where", ["term", "index token", "scalar", "ell"])
def test_numbers_in_text_are_ascii(capsys, l2_path, tmp_path, where, digits):
    # int and Fraction also read non-ASCII digits (U+0661 is the
    # Arabic-Indic one) and `_` separators; every number contactk reads
    # from text is refused with its usual error unless written in ASCII
    # (entries and file values: `test_exponent_notation_is_refused`)
    cfg = tmp_path / "ell.cfg"
    cfg.write_text(f"ell: {digits} 0 0 0 0 0\nj0: zero\n"
                   "gamma: 1 0 0\ngamma: 0 1 0\ngamma: 0 0 1\n")
    argv, err = {
        "term": (["bracket", "--config", l2_path, f"{digits}*x[0,1,1]", "1*x[0,0,1]"],
                 f"bad rational in term '{digits}*x[0,1,1]'"),
        "index token": (["deriv", "check", "--config", l2_path, f"--op=dt {digits}bar"],
                        f"bad index token '{digits}bar'"),
        "scalar": (["deriv", "check", "--config", l2_path, f"--op={digits} dt 1bar"],
                   "bad rational in operator scalar"),
        "ell": (["check-config", "--config", str(cfg)], f"{cfg}:1: ell needs six integers"),
    }[where]
    code, out, got = run(capsys, argv)
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_ascii_rationals_keep_their_forms(capsys, l2_path, tmp_path):
    # a sign, a bare decimal point on either side, and a/b still parse
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] +2\nx[0,1,0] .5\nx[0,0,1] 5.\nx[0,-1,0] -3/4\n")
    config = load_config(l2_path)
    assert sorted(load_functional(config, str(func)).table.values()) == [
        Fraction(-3, 4), Fraction(1, 2), 2, 5]
    code, out, _ = run(capsys, [
        "cocycle", "check", "--config", l2_path, "--coboundary", str(func)])
    assert code == 0 and out.startswith("PASS cocycle-axioms")


def test_coefficients_and_scalars_are_any_exact_rational(capsys, l2_path):
    # a term's coefficient and an operator's scalar are read like the file
    # values above: decimals parse
    code, out, err = run(capsys, ["bracket", "--config", l2_path, "0.5*x[0,1,0]", "1*x[0,0,1]"])
    assert (code, out, err) == (0, "1/2*x[0,0,0]\n", "")
    assert parse_operator_spec(load_config(l2_path), "0.5 ad 1*x[0,1,0]").tag == (
        "1/2*(ad 1*x[0,1,0])")
    code, out, err = run(capsys, [
        "deriv", "check", "--config", l2_path, "--op=0.5 ad 1*x[0,1,0]"])
    assert (code, out, err) == (0, "PASS derivation-law (100 samples)\n", "")


def test_cocycle_requires_a_source(capsys, caseb_path):
    code, _, err = run(capsys, ["cocycle", "check", "--config", caseb_path])
    assert code == 2
    assert "provide --table or --coboundary" in err


@pytest.mark.parametrize("subcommand", ["check", "trivialize", "verify"])
def test_cocycle_rejects_table_with_coboundary(capsys, caseb_path, tmp_path, subcommand):
    table = tmp_path / "t.txt"
    table.write_text("x[0,1,0] x[0,0,1] 1\n")
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] 3\n")
    argv = ["cocycle", subcommand, "--config", caseb_path,
            "--table", str(table), "--coboundary", str(func)]
    if subcommand == "verify":
        argv += ["--functional", str(func)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: give --table or --coboundary, not both\n"


def test_integral_values_are_int_and_no_float_appears(capsys, l2_path, tmp_path):
    config = load_config(l2_path)
    # element coefficients and operator scalars: int when integral
    terms = parse_element(config, "3*x[0,1,1] + 3/2*x[0,0,1]").terms
    assert [(type(c), c) for c in terms.values()] == [(int, 3), (Fraction, Fraction(3, 2))]
    window = window_indices(config, 1)
    for spec, kind, value in [("3 dt 1bar", int, 3), ("3/2 dt 1bar", Fraction, Fraction(3, 2))]:
        op = parse_operator_spec(config, spec)
        actions = [c for w in window for c in op.rule(w).values()]
        assert actions and all(type(c) is kind and c == value for c in actions)

    # file values stay Fraction even when integral
    func = tmp_path / "g.txt"
    func.write_text("x[0,1,1] 3\nx[0,0,0]t[1,0,0] -2\nx[0,-1,0] 1\n")
    table = tmp_path / "t.txt"
    table.write_text("x[0,1,0] x[0,0,1] 4\n")
    f = load_functional(config, str(func))
    psi = load_table_cocycle(config, str(table))
    assert all(type(v) is Fraction for v in [*f.table.values(), *psi.entries.values()])

    g = trivialize(coboundary(f))
    values = [g.eval_basis(b) for b in window_indices(config, 2)]
    assert any(values) and {type(v) for v in values} <= {int, Fraction}
    code, out, _ = run(capsys, [
        "cocycle", "trivialize", "--config", l2_path, "--coboundary", str(func)])
    assert code == 0 and out and "." not in out


def test_missing_config_file(capsys):
    code, _, err = run(capsys, ["check-config", "--config", "/nope/x.cfg"])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, flag", [
    (["suite", "--samples", "-1"], "--samples"),
    (["suite", "--samples", "0"], "--samples"),
    (["deriv", "check", "--op", "dt 1bar", "--samples", "-3"], "--samples"),
    (["cocycle", "check", "--triples", "-1"], "--triples"),
])
def test_sample_counts_below_one_exit_2(capsys, l2_path, tmp_path, argv, flag):
    # a count below 1 would check nothing and still print PASS
    table = tmp_path / "t.txt"
    table.write_text("x[0,1,0] x[0,0,1] 1\n")
    if argv[0] == "cocycle":
        argv = argv + ["--table", str(table)]
    code, out, err = run(capsys, argv + ["--config", l2_path])
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1\n"


@pytest.mark.parametrize("argv, flag", [
    (["suite", "--samples", "0"], "--samples"),
    (["deriv", "check", "--op", "dt 1bar", "--samples", "0"], "--samples"),
    (["cocycle", "check", "--table", "t.txt", "--triples", "0"], "--triples"),
])
def test_a_count_error_wins_over_a_missing_config(capsys, tmp_path, argv, flag):
    # the counts are checked before the config file is read; with a valid
    # count the same command reports the missing file
    missing = ["--config", str(tmp_path / "missing.cfg")]
    assert run(capsys, argv + missing) == (2, "", f"error: {flag} must be at least 1\n")
    code, out, err = run(capsys, argv[:-1] + ["1"] + missing)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory") and "missing.cfg" in err
