"""Exact linear algebra: the sparse accumulator and the echelon routine."""

from __future__ import annotations

import copy
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from contactk.linalg import Echelon, add_into, add_term


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


def _combined(comb, inputs):
    total = {}
    for tag, x in comb.items():
        add_into(total, inputs[tag], x)
    return total


def test_echelon_small_matrix():
    rows = [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    inputs = {k: dict(enumerate(row)) for k, row in enumerate(rows)}
    ech = Echelon()
    assert [ech.add(inputs[k], k) for k in range(3)] == [True, True, False]
    assert list(ech.rows) == [0, 2]
    assert [[row.get(c, 0) for c in range(3)] for row, _comb in ech.rows.values()] == [
        [1, 2, 0], [0, 0, 1]]
    for row, comb in ech.rows.values():
        assert _combined(comb, inputs) == row
    assert rows == [[1, 2, 3], [2, 4, 7], [1, 2, 4]]
    assert inputs == {k: dict(enumerate(row)) for k, row in enumerate(rows)}
    assert Echelon().rows == {}


def test_echelon_reduce_splits_row_into_residual_and_combination():
    inputs = {"a": {0: 1, 1: 2, 2: 3}, "b": {0: 2, 1: 4, 2: 7}}
    ech = Echelon()
    for tag, row in inputs.items():
        ech.add(row, tag)
    row = {0: 3, 1: 6, 2: Fraction(21, 2)}
    residual, comb = ech.reduce(row)
    assert residual == {}
    assert _combined(comb, inputs) == row
    assert row == {0: 3, 1: 6, 2: Fraction(21, 2)}
    residual, comb = ech.reduce({1: 1})
    assert residual == {1: 1}
    assert comb == {}


def test_echelon_nullspace_small_matrix():
    rows = [[1, 2, 3], [2, 4, 7]]
    ech = Echelon()
    for k, row in enumerate(rows):
        ech.add(dict(enumerate(row)), k)
    basis = ech.nullspace(3)
    assert basis == [[-2, 1, 0]]
    for v in basis:
        assert [sum(a * x for a, x in zip(row, v)) for row in rows] == [0, 0]
    full = Echelon()
    full.add(dict(enumerate([Fraction(1, 2), 0])), 0)
    full.add(dict(enumerate([0, 3])), 1)
    assert full.nullspace(2) == []
    assert list(full.rows.items()) == [(0, ({0: 1}, {0: 2})), (1, ({1: 1}, {1: Fraction(1, 3)}))]
    assert Echelon().nullspace(2) == [[1, 0], [0, 1]]


_ENTRY = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _matrices(draw):
    """(rows, order, probe): a small sparse rational matrix, the order in
    which its rows are added, and one more row to reduce."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=7))
    order = draw(st.permutations(range(len(rows))))
    return rows, order, draw(row)


def _is_normalised(x):
    return type(x) is (int if x.denominator == 1 else Fraction)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_echelon_matches_sympy_rref(case):
    rows, order, probe = case
    ncols = len(probe)
    inputs = {k: {c: x for c, x in enumerate(row) if x} for k, row in enumerate(rows)}
    ech = Echelon()
    for k in order:
        ech.add(inputs[k], k)

    reference, ref_pivots = sympy.Matrix(rows).rref()
    stored = sorted(ech.rows.items(), key=lambda t: t[0])
    assert [pc for pc, _ in stored] == list(ref_pivots)
    assert [[row.get(c, 0) for c in range(ncols)] for _pc, (row, _comb) in stored] == [
        [Fraction(int(x.p), int(x.q)) for x in reference.row(i)]
        for i in range(len(ref_pivots))]
    for row, comb in ech.rows.values():
        assert _combined(comb, inputs) == row
        assert all(_is_normalised(x) for x in [*row.values(), *comb.values()])

    pivots = set(ech.rows)
    target = {c: x for c, x in enumerate(probe) if x}
    residual, comb = ech.reduce(target)
    assert not pivots & set(residual)
    assert add_into(_combined(comb, inputs), residual) == target
    assert all(_is_normalised(x) for x in [*residual.values(), *comb.values()])
    in_span = _combined({k: x for k, x in enumerate(probe[:len(rows)])}, inputs)
    assert ech.reduce(in_span)[0] == {}


_SCALE = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def _interleaved(draw):
    """(steps, ncols): each step is ("row", entries) for a drawn row, or
    ("dependent", scales) for a combination of the inputs added so far."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(_ENTRY, min_size=ncols, max_size=ncols)
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        if steps and draw(st.booleans()):
            steps.append(("dependent", draw(st.lists(_SCALE, min_size=10, max_size=10))))
        else:
            steps.append(("row", draw(row)))
    return steps, ncols


@settings(max_examples=150, deadline=None)
@given(_interleaved())
def test_echelon_rejects_dependent_rows_without_changes(case):
    # a rejected add leaves every stored row, pivot and combination as it
    # was, in value, type and key order; a kept row's combination still
    # rebuilds it from the inputs
    steps, ncols = case
    inputs = {}
    ech = Echelon()
    for tag, (kind, data) in enumerate(steps):
        if kind == "row":
            row = {c: x for c, x in enumerate(data) if x}
        else:
            row = {}
            for k, x in zip(inputs, data):
                add_into(row, inputs[k], x)
        before = copy.deepcopy(ech.rows)
        text = repr(ech.rows)
        kept = ech.add(row, tag)
        inputs[tag] = row
        if kind == "dependent":
            assert not kept
        if not kept:
            assert ech.rows == before and repr(ech.rows) == text
            assert list(ech.rows) == list(before)
        assert len(ech.rows) <= ncols
        for stored, comb in ech.rows.values():
            assert _combined(comb, inputs) == stored
            assert all(_is_normalised(x) for x in [*stored.values(), *comb.values()])
