"""Bundled property suites: determinism, coverage, corruption hooks."""

from __future__ import annotations

import gc

from contactk import GroupElement, bracket_closed, render_report, run_suites


def test_all_suites_pass(cfg_caseB):
    results = run_suites(cfg_caseB, seed=11, samples=60)
    assert [r.name for r in results] == [
        "oracle-equivalence", "antisymmetry", "jacobi", "product-rule",
        "grading-eigenvalue", "derivation-law", "round-trip"]
    assert all(r.passed for r in results)


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
