"""Bundled property suites: determinism, coverage, corruption hooks."""

from __future__ import annotations

import gc

import pytest

from contactk import (
    CheckReport, GroupElement, bracket_closed, check_derivation, parse_basis_index,
    render_report, run_suites, weight, window_size,
)


def test_all_suites_pass(cfg_caseB):
    samples = 60
    results = run_suites(cfg_caseB, seed=11, samples=samples)
    assert [r.name for r in results] == [
        "oracle-equivalence", "antisymmetry", "jacobi", "product-rule",
        "grading-eigenvalue", "derivation-law", "round-trip"]
    assert all(r.passed for r in results)
    # the round trip runs every pair u <= v of the radius-1 window, then
    # the sampled extra pairs
    n = window_size(cfg_caseB, 1)
    assert results[-1].samples == n * (n + 1) // 2 + samples // 4


def test_round_trip_suite_skipped_without_route(cfg_l6z):
    # no closed form and no recursion probes on this configuration
    names = [r.name for r in run_suites(cfg_l6z, seed=3, samples=30)]
    assert "round-trip" not in names


def test_mixed_configuration_runs(cfg_mixed):
    results = run_suites(cfg_mixed, seed=5, samples=25)
    assert all(r.passed for r in results), [
        (r.name, r.witness) for r in results if not r.passed]


def test_reports_are_byte_identical(cfg_l2):
    a = render_report(cfg_l2, 7, 50, run_suites(cfg_l2, 7, 50))
    b = render_report(cfg_l2, 7, 50, run_suites(cfg_l2, 7, 50))
    assert a == b
    assert a.endswith("result: PASS (7/7)\n")
    assert "configuration: ell=0 1 0 0 0 0" in a


def test_different_seed_changes_samples_not_format(cfg_l2):
    a = render_report(cfg_l2, 1, 40, run_suites(cfg_l2, 1, 40))
    b = render_report(cfg_l2, 2, 40, run_suites(cfg_l2, 2, 40))
    assert a.splitlines()[0] == b.splitlines()[0]
    assert "seed: 1" in a and "seed: 2" in b


def test_corrupted_bracket_fails_jacobi(cfg_caseB):
    from contactk import multiply

    def bad_bracket(u, v):
        # multiplication is commutative hence not a Lie bracket; the
        # antisymmetry and Jacobi suites must both report witnesses
        return bracket_closed(u, v) + multiply(u, v)

    results = run_suites(cfg_caseB, seed=13, samples=40, bracket_fn=bad_bracket)
    by_name = {r.name: r for r in results}
    assert not by_name["jacobi"].passed
    assert by_name["jacobi"].witness
    assert not by_name["antisymmetry"].passed


def test_sessions_leave_no_state_in_a_config(cfg_mixed):
    # a config holds no table that suites fill: after a warm-up run,
    # further seeds leave the count of live lattice elements unchanged
    def live_elements():
        gc.collect()
        return sum(isinstance(x, GroupElement) for x in gc.get_objects())

    run_suites(cfg_mixed, 0, 60)
    before = live_elements()
    for seed in (1, 2, 3):
        run_suites(cfg_mixed, seed, 60)
    assert live_elements() == before


def test_failed_derivation_law_and_round_trip_name_their_witnesses(cfg_l2, monkeypatch):
    # every derivation the suite builds obeys Leibniz and every round trip
    # closes; stand-in checkers that report one failure show the witnesses
    pair = (parse_basis_index(cfg_l2, "x[0,1,0]"), parse_basis_index(cfg_l2, "x[0,0,1]t[1,0,0]"))

    def one_failure(*args):
        return CheckReport(len(list(args[-1])), [(*pair, 1, 2)])

    monkeypatch.setattr("contactk.suite.check_derivation", one_failure)
    monkeypatch.setattr("contactk.suite.verify_trivialization", one_failure)
    report = render_report(cfg_l2, 4, 8, run_suites(cfg_l2, 4, 8))
    assert report.endswith("FAIL derivation-law (2 samples)\n"
                           "  witness: dmu 1 -1 on x[0,1,0] , x[0,0,1]t[1,0,0]\n"
                           "FAIL round-trip (668 samples)\n"
                           "  witness: x[0,1,0] , x[0,0,1]t[1,0,0]\n"
                           "result: FAIL (5/7)\n")


@pytest.mark.parametrize("name", ["cfg_l4", "cfg_l2", "cfg_caseB", "cfg_l6n"])
def test_derivation_law_reports_the_pairs_it_checked(request, monkeypatch, name):
    # l4 has no lattice hom and no outer index, so its law checks ad of
    # the unit; on every config the count is the pairs checked
    config = request.getfixturevalue(name)
    checked = []

    def spy(op, pairs):
        report = check_derivation(op, pairs)
        checked.append((op.tag, report.checked))
        return report

    monkeypatch.setattr("contactk.suite.check_derivation", spy)
    (law,) = [r for r in run_suites(config, 7, 200) if r.name == "derivation-law"]
    assert law.passed and law.samples == sum(n for _, n in checked) > 0
    if name == "cfg_l4":
        assert checked == [("ad 1*x[0,0,0]", 50)]


def test_failed_product_rule_and_grading_name_their_witnesses(cfg_l2, monkeypatch):
    # derivatives obey the product rule and each monomial's grading is its
    # weight; an identity stand-in for the derivative and a weight one too
    # high fail at the first draw, and the report shows the witnesses
    monkeypatch.setattr("contactk.suite.partial", lambda p, u: u)
    monkeypatch.setattr("contactk.suite.weight", lambda config, idx: weight(config, idx) + 1)
    report = render_report(cfg_l2, 4, 8, run_suites(cfg_l2, 4, 8))
    assert ("FAIL product-rule (8 samples)\n"
            "  witness: index 1 on x[0,0,-2]t[1,0,3] , x[0,0,0]t[0,0,1]\n"
            "FAIL grading-eigenvalue (8 samples)\n"
            "  witness: x[0,0,-2]t[3,0,1]\n") in report
    assert report.endswith("result: FAIL (5/7)\n")
