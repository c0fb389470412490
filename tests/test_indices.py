"""Shape arithmetic, lattice membership, exponent sets, config parsing."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from contactk import (
    BasisIndex, ConfigError, GroupElement, Shape, make_config, parse_config_text, weight,
)
from contactk.indices import ExponentVector


def test_shape_basic_layout():
    s = Shape((1, 0, 0, 0, 0, 0))
    assert s.n == 1
    assert s.dim == 3
    assert s.blocks(1, 1) == [1]
    assert s.blocks(6, 6) == []
    assert s.mirror(1) == 2
    assert s.mirror(2) == 1
    assert s.slot(0) == 0 and s.slot(1) == 1 and s.slot(2) == 2


def test_shape_mixed_layout():
    s = Shape((1, 1, 1, 1, 1, 1))
    assert s.n == 6
    assert s.dim == 13
    assert s.blocks(4, 4) == [4]
    assert s.block_of(4) == 4
    assert s.mirror(4) == 10
    assert s.slot(4) == 7
    assert s.slot(10) == 8


@pytest.mark.parametrize("ell", [
    (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1), (2, 0, 1, 0, 3, 1),
])
def test_block_of_names_each_nonzero_index_its_block(ell):
    # the unbarred indices of block b, from the block sizes alone; a
    # barred index is in its partner's block (1bar of (1,0,0,0,0,0) is in
    # block 1), and 0 is in none
    s = Shape(ell)
    expected = {}
    for b in range(1, 7):
        for p in s.blocks(b, b):
            expected[p] = expected[p + s.n] = b
    assert {p: s.block_of(p) for p in range(1, 2 * s.n + 1)} == expected
    for p in (0, -1, 2 * s.n + 1):
        with pytest.raises(ConfigError):
            s.block_of(p)


def test_shape_rejects_bad_vectors():
    with pytest.raises(ConfigError):
        Shape((0, 0, 0, 0, 0, 0))
    with pytest.raises(ConfigError):
        Shape((1, -1, 0, 0, 0, 0))
    with pytest.raises(ConfigError):
        Shape((1, 0, 0, 0, 0))


def test_index_tokens_round_trip():
    s = Shape((0, 1, 0, 0, 1, 0))
    assert s.index_token(1) == "1"
    assert s.index_token(3) == "1bar"
    assert s.parse_index_token("2") == 2
    assert s.parse_index_token("1bar") == 3
    with pytest.raises(ConfigError):
        s.parse_index_token("5")
    with pytest.raises(ConfigError):
        s.parse_index_token("x")


def test_shift_vectors_per_block():
    s = Shape((1, 1, 1, 1, 1, 1))
    # paired blocks: -1 at both mirror slots
    assert s.shift_vector(1) == s.shift_vector(7)
    assert s.shift_vector(1)[s.slot(1)] == -1
    assert s.shift_vector(1)[s.slot(7)] == -1
    assert sum(s.shift_vector(1)) == -2
    # single-sided blocks: -1 at the unbarred slot only
    assert s.shift_vector(4)[s.slot(4)] == -1
    assert sum(s.shift_vector(4)) == -1
    assert s.shift_vector(10) == s.shift_vector(4)
    # last block carries no shift
    assert s.shift_vector(6) == tuple([0] * 13)
    assert s.shift_vector(0) == tuple([0] * 13)


def test_lattice_membership(cfg_caseB):
    lat = cfg_caseB.lattice
    assert lat.membership((0, -1, -1)) == (0, -1, -1)
    assert lat.membership((Fraction(1, 2), 0, 0)) is None
    assert lat.membership((3, 2, -5)) == (3, 2, -5)


def test_mirror_and_membership_refuse_what_the_shape_does_not_hold(cfg_caseB):
    # caseB has n = 1: indices 1 and 2 mirror each other, and its vectors
    # have three entries
    s = cfg_caseB.shape
    for p in (0, 3):
        with pytest.raises(ConfigError, match=f"index {p} has no mirror"):
            s.mirror(p)
    assert cfg_caseB.lattice.membership((0, 1)) is None
    assert cfg_caseB.lattice.membership((0, 1, 0, 0)) is None


def test_lattice_membership_non_unit_generators():
    c = make_config((1, 0, 0, 0, 0, 0), "zero",
                    [(1, 1, 1), (0, 1, 0), (0, 0, 1)])
    lat = c.lattice
    assert lat.membership((2, 0, 0)) == (2, -2, -2)
    assert lat.membership((1, Fraction(1, 2), 0)) is None


def test_lattice_membership_outside_the_span(cfg_l2):
    lat = cfg_l2.lattice
    assert lat.membership((1, 0, 0)) is None
    assert lat.membership((0, 1, 0)) == (1, 0)
    # rank 3 in dimension 5: the reduced generators pivot at slots 1, 2, 3
    c = make_config((1, 0, 0, 1, 0, 0), "naturals",
                    [(0, 1, 0, 1, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)])
    lat = c.lattice
    assert lat.membership((0, 2, 1, 3, 0)) == (2, 1, 1)
    assert lat.membership((0, 1, 0, 0, 0)) == (1, 0, -1)
    # equal to the first generator on every pivot slot, off it elsewhere
    assert lat.membership((0, 1, 0, 1, 1)) is None
    assert lat.membership((1, 1, 0, 1, 0)) is None


def test_lattice_element_rejects_wrong_length(cfg_caseB):
    lat = cfg_caseB.lattice
    for coords in [(1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(ConfigError):
            lat.element(coords)


# a lattice with a rational generator: its vectors hold Fractions
CFG_HALF = make_config((0, 1, 0, 0, 0, 0), "naturals",
                       [(0, Fraction(1, 2), 0), (0, 0, 1)])


@given(data=st.data())
def test_group_arithmetic_is_value_arithmetic(cfg_mixed, data):
    for lat in (cfg_mixed.lattice, CFG_HALF.lattice):
        coords = st.tuples(*[st.integers(-9, 9)] * len(lat.generators))
        a, b = data.draw(coords), data.draw(coords)
        ea, eb = lat.element(a), lat.element(b)
        assert lat.membership(ea.vector) == a
        expected = [
            (ea.add(eb), lat.element(map(operator.add, a, b))),
            (ea.neg(), lat.element(map(operator.neg, a))),
            (ea.add(ea.neg()), lat.zero),
        ]
        for got, want in expected:
            assert got.coords == want.coords
            assert got.vector == want.vector
            assert got == want and hash(got) == hash(want)
        # equality and hashing follow the coordinates alone
        assert (ea == eb) == (a == b)
        assert len({ea, eb, lat.element(a)}) == (1 if a == b else 2)
        assert GroupElement(a, eb.vector) == ea
        assert hash(GroupElement(a, eb.vector)) == hash(ea)


def test_lattice_requires_unit_members():
    # generators must resolve every paired unit vector
    with pytest.raises(ConfigError):
        make_config((1, 0, 0, 0, 0, 0), "zero", [(0, 2, 0), (0, 0, 1)])


def test_lattice_rejects_dependent_generators():
    with pytest.raises(ConfigError):
        make_config((1, 0, 0, 0, 0, 0), "zero",
                    [(0, 1, 0), (0, 0, 1), (0, 1, 1)])


def test_lattice_support_constraint():
    # no generator weight allowed on the unbarred last block
    with pytest.raises(ConfigError):
        make_config((0, 0, 0, 0, 0, 1), "naturals", [(0, 1, 0)])
    # barred side of single-sided blocks is also off limits
    with pytest.raises(ConfigError):
        make_config((0, 0, 0, 1, 0, 0), "naturals", [(0, 1, 0), (0, 0, 1)])


def test_zero_mode_needs_zero_slot():
    with pytest.raises(ConfigError):
        make_config((0, 1, 0, 0, 0, 0), "zero", [(0, 1, 0), (0, 0, 1)])
    c = make_config((0, 1, 0, 0, 0, 0), "zero",
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert c.lattice.has_zero_slot


def test_exponent_slots(cfg_caseB, cfg_l2, cfg_l5, cfg_l6z, cfg_mixed):
    # ascending, so windows and samplers read them in one fixed order
    assert cfg_caseB.exp_slots == ()
    assert cfg_l2.exp_slots == (0, 2)
    assert cfg_l5.exp_slots == (0, 1, 2)
    assert cfg_l6z.exp_slots == (1, 2)
    s = cfg_mixed.shape
    expected = {0}
    expected |= {s.slot(3), s.slot(5), s.slot(6)}
    expected |= {s.slot(s.mirror(p)) for p in (2, 3, 4, 5, 6)}
    assert cfg_mixed.exp_slots == tuple(sorted(expected))


def test_exponent_vector_validation(cfg_l2):
    ev = ExponentVector.build(cfg_l2, (2, 0, 1))
    assert tuple(ev) == (2, 0, 1)
    with pytest.raises(ConfigError):
        ExponentVector.build(cfg_l2, (0, 1, 0))
    with pytest.raises(ConfigError):
        ExponentVector.build(cfg_l2, (-1, 0, 0))
    with pytest.raises(ConfigError, match="exponent vector has 2 entries, expected 3"):
        ExponentVector.build(cfg_l2, (1, 0))


def test_weight_examples(cfg_caseB, cfg_l4, cfg_l6z):
    z = cfg_caseB.zero_exps
    el = cfg_caseB.lattice.element
    assert weight(cfg_caseB, BasisIndex(el((0, 1, 1)), z)) == 2
    assert weight(cfg_caseB, BasisIndex(el((5, 1, 0)), z)) == 1
    # group weight on the unbarred slot plus exponent weight on the mirror
    ev = ExponentVector.build(cfg_l4, (0, 0, 4))
    assert weight(cfg_l4, BasisIndex(cfg_l4.lattice.element((1,)), ev)) == 5
    ev6 = ExponentVector.build(cfg_l6z, (0, 1, 1))
    assert weight(cfg_l6z, BasisIndex(cfg_l6z.lattice.zero, ev6)) == 2


def test_config_text_round_trip():
    text = """
    # comment line
    ell: 1 0 0 0 0 0
    j0: zero
    gamma: 1 0 0
    gamma: 0 1 0   # trailing comment
    gamma: 0 0 1
    """
    c = parse_config_text(text)
    assert c.shape.ell == (1, 0, 0, 0, 0, 0)
    assert not c.j0_naturals
    assert len(c.lattice.generators) == 3


def test_config_text_errors():
    with pytest.raises(ConfigError):
        parse_config_text("ell: 1 0 0 0 0 0\nj0: maybe\ngamma: 1 0 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("j0: zero\ngamma: 1 0 0\n")
    with pytest.raises(ConfigError):
        parse_config_text("ell: 1 0 0 0 0 0\nj0: zero\n")
    with pytest.raises(ConfigError):
        parse_config_text("ell: 1 0\nj0: zero\ngamma: 1 0 0\n")


def test_make_config_refuses_an_unknown_j0_mode():
    # a config file's j0 line is checked at its line; this is the check
    # that API callers meet
    with pytest.raises(ConfigError, match='j0 must be "zero" or "naturals"'):
        make_config((1, 0, 0, 0, 0, 0), "maybe", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


@given(st.lists(st.integers(min_value=0, max_value=2),
                min_size=6, max_size=6))
def test_mirror_is_an_involution(ell):
    if sum(ell) == 0:
        ell = [1, 0, 0, 0, 0, 0]
    s = Shape(tuple(ell))
    for p in s.indices():
        if p:
            assert s.mirror(s.mirror(p)) == p
            assert s.unbarred(s.mirror(p)) == s.unbarred(p)


@given(st.tuples(*[st.integers(-4, 4) for _ in range(3)]),
       st.tuples(*[st.integers(-4, 4) for _ in range(3)]))
def test_weight_is_additive(a, b):
    c = make_config((1, 0, 0, 0, 0, 0), "zero",
                    [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    z = c.zero_exps
    ea, eb = c.lattice.element(a), c.lattice.element(b)
    assert (weight(c, BasisIndex(ea, z)) + weight(c, BasisIndex(eb, z))
            == weight(c, BasisIndex(ea.add(eb), z)))


def test_mixed_tables_pinned(cfg_mixed):
    # every table the six blocks' slot roles decide, on the config with
    # one index per block: index p sits at slot 2p - 1 and p bar at 2p
    c = cfg_mixed
    assert c.exp_slots == (0, 4, 5, 6, 8, 9, 10, 11, 12)
    # the weight sums are over slot sets; their order is not observable
    assert set(c.weight_group_slots) == {1, 2, 3, 4, 5, 6, 7, 9}
    assert set(c.weight_exp_slots) == {8, 10, 11, 12}
    assert len(c.weight_group_slots) == 8 and len(c.weight_exp_slots) == 4
    assert [(sp, sq, shift.coords, *families)
            for sp, sq, shift, *families in c.pair_rows] == [
        (1, 2, (-1, -1, 0, 0, 0, 0, 0, 0), True, False, False, False),
        (3, 4, (0, 0, -1, -1, 0, 0, 0, 0), True, True, False, False),
        (5, 6, (0, 0, 0, 0, -1, -1, 0, 0), True, True, True, True),
        (7, 8, (0, 0, 0, 0, 0, 0, -1, 0), False, True, False, False),
        (9, 10, (0, 0, 0, 0, 0, 0, 0, -1), False, True, False, True),
        (11, 12, (0, 0, 0, 0, 0, 0, 0, 0), False, False, False, True),
    ]
    assert [(shift.coords, shapes) for shift, shapes in c.bracket_shapes] == [
        ((0, 0, 0, 0, 0, 0, 0, 0), ((0,),)),
        ((-1, -1, 0, 0, 0, 0, 0, 0), ((),)),
        ((0, 0, -1, -1, 0, 0, 0, 0), ((), (4,))),
        ((0, 0, 0, 0, -1, -1, 0, 0), ((), (6,), (5,), (5, 6))),
        ((0, 0, 0, 0, 0, 0, -1, 0), ((8,),)),
        ((0, 0, 0, 0, 0, 0, 0, -1), ((10,), (9, 10))),
        ((0, 0, 0, 0, 0, 0, 0, 0), ((11, 12),)),
    ]
    # -1 at the group slots of each index's pair, the same for p and p bar
    minus = {1: (1, 2), 2: (3, 4), 3: (5, 6), 4: (7,), 5: (9,), 6: ()}
    for p in c.shape.indices():
        slots = minus.get(c.shape.unbarred(p), ()) if p else ()
        assert c.shape.shift_vector(p) == tuple(
            -1 if s in slots else 0 for s in range(13)), p


def test_missing_unit_vectors_are_named_in_index_order():
    # 1bar (slot 2) and 2 (slot 3) both lack their unit vector; the check
    # walks the indices in ascending order, so index 2 is named
    with pytest.raises(ConfigError, match="unit vector at index 2$"):
        make_config((1, 0, 0, 1, 0, 0), "naturals", [(0, 1, 0, 0, 0)])
