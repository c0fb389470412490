"""Shape arithmetic, lattice membership, exponent sets, config parsing."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from contactk import ConfigError, GroupElement, Shape, make_config, parse_config_text
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
    assert cfg_caseB.exp_slots == frozenset()
    assert cfg_l2.exp_slots == frozenset({0, 2})
    assert cfg_l5.exp_slots == frozenset({0, 1, 2})
    assert cfg_l6z.exp_slots == frozenset({1, 2})
    s = cfg_mixed.shape
    expected = {0}
    expected |= {s.slot(3), s.slot(5), s.slot(6)}
    expected |= {s.slot(s.mirror(p)) for p in (2, 3, 4, 5, 6)}
    assert cfg_mixed.exp_slots == frozenset(expected)


def test_exponent_vector_validation(cfg_l2):
    ev = ExponentVector.build(cfg_l2, (2, 0, 1))
    assert tuple(ev) == (2, 0, 1)
    with pytest.raises(ConfigError):
        ExponentVector.build(cfg_l2, (0, 1, 0))
    with pytest.raises(ConfigError):
        ExponentVector.build(cfg_l2, (-1, 0, 0))


def test_weight_examples(cfg_caseB, cfg_l4, cfg_l6z):
    z = cfg_caseB.zero_exps
    el = cfg_caseB.lattice.element
    assert cfg_caseB.weight(el((0, 1, 1)), z) == 2
    assert cfg_caseB.weight(el((5, 1, 0)), z) == 1
    # group weight on the unbarred slot plus exponent weight on the mirror
    ev = ExponentVector.build(cfg_l4, (0, 0, 4))
    assert cfg_l4.weight(cfg_l4.lattice.element((1,)), ev) == 5
    ev6 = ExponentVector.build(cfg_l6z, (0, 1, 1))
    assert cfg_l6z.weight(cfg_l6z.lattice.zero, ev6) == 2


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
    assert c.weight(ea, z) + c.weight(eb, z) == c.weight(ea.add(eb), z)
