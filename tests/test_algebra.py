"""Products, partial operators, grading, literals, windows."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contactk import (
    AlgebraElement, ConfigError, LiteralError, basis_element, bracket_closed,
    format_element, grading, multiply, parse_basis_index, parse_element, sample_element,
    sample_index, unit, weight, window_indices,
)
from contactk.algebra import (
    BasisIndex, check_decompose_cap, check_pair_cap, lower_partial, partial, scale_partial,
    window_size,
)
from contactk.cli import load_config
from contactk.indices import ExponentVector, _index_of_slot
from contactk.linalg import add_into, add_term

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_AND_BENCH = [path for folder in (ROOT / "tests" / "golden", ROOT / "bench" / "configs")
                    for path in sorted(folder.glob("*.cfg"))]


def test_multiply_adds_group_parts(cfg_caseB):
    u = parse_element(cfg_caseB, "2*x[0,1,0]")
    v = parse_element(cfg_caseB, "3*x[0,0,1]")
    assert format_element(multiply(u, v)) == "6*x[0,1,1]"


def test_multiply_adds_exponents(cfg_l6z):
    u = parse_element(cfg_l6z, "1*x[0,0,0]t[0,1,0]")
    v = parse_element(cfg_l6z, "-2*x[0,0,0]t[0,1,1]")
    assert format_element(multiply(u, v)) == "-2*x[0,0,0]t[0,2,1]"


def test_unit_is_multiplicative_identity(cfg_l2):
    rng = random.Random(5)
    for _ in range(20):
        u = sample_element(cfg_l2, rng)
        assert multiply(unit(cfg_l2), u) == u
        assert multiply(u, unit(cfg_l2)) == u


def test_multiply_is_commutative_associative(cfg_l3):
    rng = random.Random(6)
    for _ in range(20):
        u, v, w = (sample_element(cfg_l3, rng) for _ in range(3))
        assert multiply(u, v) == multiply(v, u)
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_element_arithmetic(cfg_caseB):
    u = parse_element(cfg_caseB, "1*x[0,1,0]")
    v = parse_element(cfg_caseB, "2*x[0,1,0] + 1*x[0,0,1]")
    total = u + v
    assert format_element(total) == "1*x[0,0,1] + 3*x[0,1,0]"
    assert format_element(total - total) == "0"
    assert format_element(Fraction(-1, 2) * v) == "-1/2*x[0,0,1] + -1*x[0,1,0]"


def test_grading_eigenvalues(cfg_caseB, cfg_l6z):
    u = basis_element(cfg_caseB, (0, 1, 1))
    assert format_element(grading(u)) == "2*x[0,1,1]"
    t2 = parse_element(cfg_l6z, "1*x[0,0,0]t[0,1,1]")
    assert format_element(grading(t2)) == "2*x[0,0,0]t[0,1,1]"


def test_grading_matches_weight(all_configs):
    rng = random.Random(11)
    for config in all_configs.values():
        for _ in range(25):
            idx = sample_index(config, rng)
            w = weight(config, idx)
            u = AlgebraElement.from_term(config, idx, 1)
            assert grading(u) == w * u


def test_literal_round_trip_examples(cfg_l2):
    for text in ["0", "1*x[0,1,0]", "-3/2*x[0,-1,2]t[1,0,0]",
                 "1*x[0,0,0] + 1*x[0,0,0]t[0,0,1]"]:
        assert format_element(parse_element(cfg_l2, text)) == text


def test_literal_rejects_garbage(cfg_l2):
    for text in ["x[", "1*x[0,0]", "1*x[0,0,0]t[0,0]", "1*x[0,0,0]t[0,0,-1]",
                 "one*x[0,0,0]", "1*x[0,0,0] 1*x[0,1,0]"]:
        with pytest.raises(LiteralError):
            parse_element(cfg_l2, text)


def test_operations_refuse_what_the_config_does_not_hold(cfg_caseB, cfg_l2):
    u = parse_element(cfg_caseB, "1*x[0,1,0]")
    # caseB has n = 1: its indices are 0, 1 and 2
    with pytest.raises(ConfigError, match="index 3 out of range"):
        partial(3, u)
    with pytest.raises(ConfigError, match="different configurations"):
        bracket_closed(u, parse_element(cfg_l2, "1*x[0,1,0]"))


def test_literal_coefficients_are_any_exact_rational(cfg_l2):
    # a coefficient is read by `exact_rational`, as every rational in text
    # is: decimals parse, and a token it refuses is named as a bad rational
    assert (parse_element(cfg_l2, "0.5*x[0,1,0] + -1.25*x[0,0,1]")
            == parse_element(cfg_l2, "1/2*x[0,1,0] + -5/4*x[0,0,1]"))
    for text, message in [("1_0*x[0,1,0]", "bad rational in term '1_0*x[0,1,0]'"),
                          ("1e3*x[0,1,0]", "bad rational in term '1e3*x[0,1,0]'"),
                          ("x[0,1,0]", "cannot parse term 'x[0,1,0]'")]:
        with pytest.raises(LiteralError) as caught:
            parse_element(cfg_l2, text)
        assert str(caught.value) == message


def test_basis_literal_takes_no_coefficient_but_1(cfg_l2):
    index = parse_basis_index(cfg_l2, "x[0,1,0]t[0,0,1]")
    assert parse_basis_index(cfg_l2, " 1 * x[0,1,0]t[0,0,1] ") == index
    for text in ["2*x[0,1,0]", "1.0*x[0,1,0]", "0.5*x[0,1,0]", "*x[0,1,0]"]:
        with pytest.raises(LiteralError, match="cannot parse basis literal"):
            parse_basis_index(cfg_l2, text)


def test_literal_fractional_group_entries(cfg_caseB):
    # rationals are legal in the group part when the lattice resolves them
    c2 = parse_element(cfg_caseB, "1*x[0,2,0]")
    assert format_element(c2) == "1*x[0,2,0]"
    with pytest.raises(LiteralError):
        parse_element(cfg_caseB, "1*x[1/2,0,0]")


def test_format_is_sorted_and_canonical(cfg_caseB):
    u = parse_element(cfg_caseB, "1*x[0,1,0] + 1*x[-1,0,0] + -1*x[0,1,0]")
    assert format_element(u) == "1*x[-1,0,0]"


@settings(max_examples=60)
@given(st.lists(
    st.tuples(st.integers(-2, 2),
              st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                        st.integers(-2, 2))),
    min_size=0, max_size=4))
def test_literal_round_trip_random(terms):
    from contactk import make_config
    config = make_config((1, 0, 0, 0, 0, 0), "zero",
                         [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    u = AlgebraElement.zero(config)
    for coeff, coords in terms:
        u = u + coeff * basis_element(config, coords)
    assert parse_element(config, format_element(u)) == u


def test_window_sizes(cfg_caseB, cfg_l2):
    assert len(window_indices(cfg_caseB, 0)) == 1
    assert len(window_indices(cfg_caseB, 1)) == 27
    # two generator axes and two exponent slots
    assert len(window_indices(cfg_l2, 1)) == 9 * 4
    w = window_indices(cfg_l2, 2)
    assert len(w) == len(set(w)) == 25 * 9


def test_pair_cap_admits_the_documented_radii(cfg_caseB, cfg_l2, cfg_l3):
    # tables: the goldens (caseB r2, the rest r1) and l3 at r2; verify:
    # l2 at r3 (criterion 7's window) and l3 at r2
    check_pair_cap(cfg_caseB, 3, ordered=True)
    check_pair_cap(cfg_l3, 2, ordered=True)
    check_pair_cap(cfg_l2, 3, ordered=False)
    with pytest.raises(ConfigError, match="2051325 bracket pairs"):
        check_pair_cap(cfg_l2, 4, ordered=False)
    with pytest.raises(ConfigError, match="4100625 bracket pairs"):
        check_pair_cap(cfg_l2, 4, ordered=True)


def test_decompose_cap_admits_the_documented_radii(
        cfg_caseB, cfg_l2, cfg_l5, cfg_l6z, cfg_l6n, cfg_decomp):
    # (window radius, inner radius) of criterion 6, tests/test_decompose.py,
    # the README's `deriv decompose` and the bench's decompose workload
    plans = [(cfg_caseB, 4, 3), (cfg_l6z, 4, 3), (cfg_l5, 4, 3),
             (cfg_decomp, 2, 1), (cfg_decomp, 0, 1), (cfg_l2, 2, 1),
             (cfg_l2, 0, 1), (cfg_caseB, 3, 2), (cfg_l6n, 3, 2), (cfg_l5, 3, 2)]
    for config, radius, inner_radius in plans:
        check_decompose_cap(config, radius, inner_radius)
    # the largest: l5 at 4 / 3
    assert window_size(cfg_l5, 4) * window_size(cfg_l5, 3) == 1_125 * 448 == 504_000
    with pytest.raises(ConfigError, match="give 68574961 .* the cap is 1000000"):
        check_decompose_cap(cfg_l2, 6, 6)
    # a window past the window cap keeps its own error, and a negative radius
    with pytest.raises(ConfigError, match="holds 741321 indices"):
        check_decompose_cap(cfg_l2, 20, 0)
    with pytest.raises(ConfigError, match="nonnegative"):
        check_decompose_cap(cfg_l2, 1, -1)


def test_sampling_is_seed_deterministic(cfg_mixed):
    a = [sample_index(cfg_mixed, random.Random(3)) for _ in range(30)]
    b = [sample_index(cfg_mixed, random.Random(3)) for _ in range(30)]
    assert a == b


def composed_grading(u):
    """The grading composed literally: the diagonal derivative at each
    weight group slot, plus t_s times the power rule at each weight
    exponent slot s."""
    config = u.config
    shape = config.shape
    total = AlgebraElement.zero(config)
    for s in config.weight_group_slots:
        total = total + scale_partial(_index_of_slot(shape, s), u)
    zero = config.lattice.zero
    for s in config.weight_exp_slots:
        t_s = AlgebraElement.from_term(config, BasisIndex(zero, config.zero_exps.raised(s)))
        total = total + multiply(t_s, lower_partial(_index_of_slot(shape, s), u))
    return total


def row_by_row_product(u, v):
    """The product as one dict of products per term of u, each added in."""
    terms = {}
    for iu, cu in u.terms.items():
        row = {BasisIndex(iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)): cv
               for iv, cv in v.terms.items()}
        add_into(terms, row, cu)
    return AlgebraElement(u.config, terms)


@pytest.mark.parametrize("path", GOLDEN_AND_BENCH, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_one_pass_operators_equal_their_compositions(path):
    # on sampled elements of every golden and bench config.  u plus its
    # lowering at p makes the power rule and the diagonal part land on
    # the same index, and u·u has colliding products
    config = load_config(path)
    rng = random.Random(path.stem)
    for _ in range(12):
        u, v = sample_element(config, rng), sample_element(config, rng)
        for p in config.shape.indices():
            for w in (u, u + lower_partial(p, u)):
                assert partial(p, w) == scale_partial(p, w) + lower_partial(p, w), p
        assert grading(u) == composed_grading(u)
        assert multiply(u, v) == row_by_row_product(u, v)
        assert multiply(u, u) == row_by_row_product(u, u)


def test_sampling_draws_what_randint_draws(all_configs):
    # the sampler's draws, written with randint: same indices, with the
    # vector the generators give, same elements, and the generator left
    # in the same state
    def index_by_randint(config, rng):
        coords = tuple(rng.randint(-3, 3) for _ in config.lattice.generators)
        entries = [0] * config.shape.dim
        for s in sorted(config.exp_slots):
            entries[s] = rng.randint(0, 4)
        return BasisIndex(config.lattice.element(coords), ExponentVector(entries))

    def element_by_randint(config, rng):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            coeff = 0
            while not coeff:
                coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            add_term(terms, index_by_randint(config, rng), coeff)
        return AlgebraElement(config, terms)

    for name, config in all_configs.items():
        a, b = random.Random(name), random.Random(name)
        gens = config.lattice.generators
        for _ in range(20):
            idx = sample_index(config, a)
            assert idx == index_by_randint(config, b)
            assert idx.alpha.vector == tuple(map(sum, zip(*(
                [c * x for x in g] for c, g in zip(idx.alpha.coords, gens)))))
            assert sample_element(config, a) == element_by_randint(config, b)
        assert a.getstate() == b.getstate()
