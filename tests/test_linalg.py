"""Exact linear algebra: the sparse accumulator and row reduction."""

from __future__ import annotations

from fractions import Fraction

from contactk.linalg import add_into, add_term, nullspace, rref


def test_add_into_drops_zero_sums_in_place():
    terms = {"a": 1, "b": Fraction(1, 2)}
    out = add_into(terms, {"a": -1, "c": 3})
    assert out is terms
    assert terms == {"b": Fraction(1, 2), "c": 3}
    add_into(terms, {"b": Fraction(-1, 2), "c": -3})
    assert terms == {}


def test_add_into_applies_scale_and_leaves_other_untouched():
    terms = {"a": Fraction(1, 3)}
    other = {"a": 1, "b": Fraction(2, 5)}
    add_into(terms, other, Fraction(-1, 3))
    assert terms == {"b": Fraction(-2, 15)}
    assert other == {"a": 1, "b": Fraction(2, 5)}
    add_into(terms, other, 0)
    assert terms == {"b": Fraction(-2, 15)}


def test_add_into_mixes_int_and_fraction():
    terms = {"a": 2, "b": Fraction(1, 2), "d": 5}
    add_into(terms, {"a": Fraction(1, 2), "b": Fraction(-1, 4), "c": 4}, 2)
    assert terms == {"a": 3, "c": 8, "d": 5}
    assert all(terms.values())
    assert type(terms["d"]) is int


def test_add_term_matches_add_into():
    terms = {}
    add_term(terms, "x", Fraction(1, 2))
    add_term(terms, "y", 0)
    assert terms == {"x": Fraction(1, 2)}
    add_term(terms, "x", Fraction(-1, 2))
    assert terms == {}


def test_rref_small_matrix():
    rows = [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 2]
    assert reduced == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    assert rows == [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    assert rref([]) == ([], [])


def test_nullspace_small_matrix():
    rows = [[1, 2, 3], [2, 4, 7]]
    basis = nullspace(rows, 3)
    assert basis == [[-2, 1, 0]]
    for v in basis:
        assert [sum(a * x for a, x in zip(row, v)) for row in rows] == [0, 0]
    assert nullspace([[Fraction(1, 2), 0], [0, 3]], 2) == []
