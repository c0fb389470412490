"""Every exact check stops at its first failing case.

Each check is fed an iterator whose k-th case is the first to fail.  It
must report k cases checked and one failure, that case's, and leave case
k + 1 as the iterator's next item.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from contactk import (
    AlgebraElement, LinearFunctional, LinearOperator, TableCocycle,
    check_cocycle, check_derivation, check_mirror_identity, coboundary,
    parse_basis_index, verify_trivialization, window_indices,
)
from contactk.cohomology import targeted_triples


def assert_stops_at_first_failure(check, candidates, k=3):
    """Run `check` on an iterator of k - 1 passing cases, two failing ones
    and a passing one, each sorted from `candidates` by a check of its own.
    A case is a tuple, and its failure starts with the case's fields."""
    passing = [case for case in candidates if check(iter([case])).passed]
    failing = [case for case in candidates if not check(iter([case])).passed]
    cases = passing[:k - 1] + failing[:2] + passing[k - 1:k]
    assert len(cases) == k + 2
    it = iter(cases)
    report = check(it)
    assert report.checked == k
    (failure,) = report.failures
    assert failure[:len(cases[k - 1])] == cases[k - 1]
    assert next(it) == cases[k]


def test_check_cocycle_stops_at_its_first_failure(cfg_l2):
    # a one-entry table is no cocycle; targeted triples hit its support
    pair = (parse_basis_index(cfg_l2, "x[0,1,0]"),
            parse_basis_index(cfg_l2, "x[0,0,1]t[0,0,1]"))
    psi = TableCocycle(cfg_l2, {pair: Fraction(2)})
    triples = list(targeted_triples(psi, random.Random(0), 40))
    assert_stops_at_first_failure(lambda cases: check_cocycle(psi, cases), triples)


def test_verify_stops_at_its_first_failure(cfg_l2):
    # f is g but at one index, so some pairs fail; the pairs whose sums g - f
    # vanishes on pass without a bracket, and count as checked all the same
    window = window_indices(cfg_l2, 1)
    rng = random.Random(1)
    g = LinearFunctional(cfg_l2, table={i: rng.randint(1, 5) for i in rng.sample(window, 8)})
    f = LinearFunctional(cfg_l2, table=g.table)
    f.table[window[len(window) // 2]] = Fraction(7, 2)
    psi = coboundary(g)
    assert_stops_at_first_failure(
        lambda cases: verify_trivialization(psi, f, cases),
        list(itertools.combinations_with_replacement(window, 2)))


def test_check_derivation_stops_at_its_first_failure(cfg_l2):
    # the identity is no derivation: D[u,v] = [u,v] but [Du,v] + [u,Dv] = 2[u,v]
    identity = LinearOperator(cfg_l2, lambda idx: {idx: Fraction(1)}, "identity")
    window = window_indices(cfg_l2, 1)
    assert_stops_at_first_failure(
        lambda cases: check_derivation(identity, cases),
        list(itertools.combinations_with_replacement(window, 2))[:100])


def test_check_mirror_identity_stops_at_its_first_failure(cfg_l2, monkeypatch):
    # a stand-in lowering that drops every term breaks the identity at
    # indices with an exponent at 1 or 1 bar
    monkeypatch.setattr("contactk.derivations.lower_partial",
                        lambda p, x: AlgebraElement.zero(x.config))
    assert_stops_at_first_failure(
        lambda cases: check_mirror_identity(cfg_l2, 1, (idx for (idx,) in cases)),
        [(idx,) for idx in window_indices(cfg_l2, 1)])
