"""Bracket routes: pinned values, closed-form families, Lie axioms."""

from __future__ import annotations

import itertools
import random
import types
from fractions import Fraction

import pytest

from contactk import (
    AlgebraElement, basis_element, bracket_closed, bracket_operator,
    format_element, parse_element, sample_element, sample_index,
    structure_rows, unit, weight, window_indices,
)
from contactk.indices import ExponentVector
from contactk import algebra
from contactk.algebra import bracket_support, bracket_terms, sums_reaching
from contactk.linalg import add_into


def jacobi_sum(u, v, w):
    return (bracket_closed(u, bracket_closed(v, w))
            + bracket_closed(v, bracket_closed(w, u))
            + bracket_closed(w, bracket_closed(u, v)))


def test_paired_square_bracket(cfg_caseB):
    u = basis_element(cfg_caseB, (0, 2, 0))
    v = basis_element(cfg_caseB, (0, 0, 2))
    assert format_element(bracket_closed(u, v)) == "4*x[0,1,1]"
    assert format_element(bracket_operator(u, v)) == "4*x[0,1,1]"


def test_mixed_family_bracket(cfg_l2):
    # one term from the group-group family, one from the group-exponent
    # family; value frozen from the operator route
    u = basis_element(cfg_l2, (1, 0))
    v = basis_element(cfg_l2, (0, 1), (0, 0, 1))
    expected = "1*x[0,0,0] + 1*x[0,0,0]t[0,0,1]"
    assert format_element(bracket_closed(u, v)) == expected
    assert format_element(bracket_operator(u, v)) == expected


def test_unit_bracket_scales_by_zero_slot(cfg_caseB, cfg_l6n):
    # [1, y] = 2*beta0*y + 2*j0*(y with the zero-slot exponent lowered)
    one = unit(cfg_caseB)
    v = basis_element(cfg_caseB, (1, 1, 0))
    assert bracket_closed(one, v) == 2 * v
    onez = unit(cfg_l6n)
    w = parse_element(cfg_l6n, "1*x[1,0,0]t[1,0,0]")
    expected = parse_element(cfg_l6n, "2*x[1,0,0] + 2*x[1,0,0]t[1,0,0]")
    assert bracket_closed(onez, w) == expected
    assert bracket_operator(onez, w) == expected


def _rhs_samples(config, rng, count):
    return [sample_index(config, rng) for _ in range(count)]


def test_shift_inverse_bracket_paired_blocks(cfg_caseB, cfg_l2, cfg_l3):
    # [x^{-shift_p}, y] scales by the mirror coordinate difference and,
    # on exponent-carrying blocks, sheds one exponent per mirror slot
    for config, p in ((cfg_caseB, 1), (cfg_l2, 1), (cfg_l3, 1)):
        shape = config.shape
        pb = shape.mirror(p)
        sp, spb = shape.slot(p), shape.slot(pb)
        neg = config.shift_coords[p].neg()
        u = basis_element(config, neg.coords)
        rng = random.Random(40 + p)
        for idx in _rhs_samples(config, rng, 40):
            v = AlgebraElement.from_term(config, idx, 1)
            beta = idx.alpha.vector
            expected = (beta[spb] - beta[sp]) * v
            exps = idx.exps
            block = shape.block_of(p)
            if block >= 2 and exps[spb]:
                expected = expected + exps[spb] * AlgebraElement.from_term(
                    config, type(idx)(idx.alpha, exps.lowered(spb)), 1)
            if block >= 3 and exps[sp]:
                expected = expected - exps[sp] * AlgebraElement.from_term(
                    config, type(idx)(idx.alpha, exps.lowered(sp)), 1)
            assert bracket_closed(u, v) == expected
            assert bracket_operator(u, v) == expected


def test_shift_inverse_bracket_single_blocks(cfg_l4, cfg_l5):
    # lhs x^{-shift_q} t^{1_[mirror q]}: scales by (j_mirror - beta_q),
    # and on the lowering block sheds one unbarred exponent
    for config, q in ((cfg_l4, 1), (cfg_l5, 1)):
        shape = config.shape
        qb = shape.mirror(q)
        sq, sqb = shape.slot(q), shape.slot(qb)
        neg = config.shift_coords[q].neg()
        exps1 = config.zero_exps.raised(sqb)
        u = basis_element(config, neg.coords, exps1)
        rng = random.Random(50 + q)
        for idx in _rhs_samples(config, rng, 40):
            v = AlgebraElement.from_term(config, idx, 1)
            beta = idx.alpha.vector
            exps = idx.exps
            expected = (exps[sqb] - beta[sq]) * v
            if shape.block_of(q) == 5 and exps[sq]:
                expected = expected - exps[sq] * AlgebraElement.from_term(
                    config, type(idx)(idx.alpha, exps.lowered(sq)), 1)
            assert bracket_closed(u, v) == expected
            assert bracket_operator(u, v) == expected


def test_exponent_pair_bracket(cfg_l6z, cfg_l6n):
    # [t^{1_[r]+1_[mirror r]}, y] = (j_mirror - j_r) y
    for config in (cfg_l6z, cfg_l6n):
        shape = config.shape
        r = 1
        sr, srb = shape.slot(r), shape.slot(shape.mirror(r))
        exps = config.zero_exps.raised(sr).raised(srb)
        u = basis_element(config, config.lattice.zero.coords, exps)
        rng = random.Random(61)
        for idx in _rhs_samples(config, rng, 40):
            v = AlgebraElement.from_term(config, idx, 1)
            assert bracket_closed(u, v) == (idx.exps[srb] - idx.exps[sr]) * v
            assert bracket_operator(u, v) == (idx.exps[srb] - idx.exps[sr]) * v


def test_probe_commutation_pinned(cfg_caseB):
    # the mirrored square commutes with the unit and the zero-slot square,
    # is scaled by the shift inverse, and pairs with the plain square
    sq_bar = basis_element(cfg_caseB, (0, 0, 2))
    assert bracket_closed(unit(cfg_caseB), sq_bar).terms == {}
    assert bracket_closed(basis_element(cfg_caseB, (2, 0, 0)), sq_bar).terms == {}
    shift_inv = basis_element(cfg_caseB, (0, 1, 1))
    assert bracket_closed(shift_inv, sq_bar) == 2 * sq_bar
    assert format_element(
        bracket_closed(basis_element(cfg_caseB, (0, 2, 0)), sq_bar)) == "4*x[0,1,1]"


def test_nested_exponent_eigenvalue(cfg_l6n):
    # [t^{2_[mirror p]}, [t^{2_[p]}, y]] = -4*(j_p+1)*j_mirror * y
    config = cfg_l6n
    shape = config.shape
    sp, spb = shape.slot(1), shape.slot(2)
    zero = config.lattice.zero.coords
    t2p = basis_element(config, zero, config.zero_exps.raised(sp).raised(sp))
    t2pb = basis_element(config, zero, config.zero_exps.raised(spb).raised(spb))
    rng = random.Random(9)
    for _ in range(40):
        idx = sample_index(config, rng)
        v = AlgebraElement.from_term(config, idx, 1)
        nested = bracket_closed(t2pb, bracket_closed(t2p, v))
        assert nested == (-4 * (idx.exps[sp] + 1) * idx.exps[spb]) * v


def test_lowering_terms_match_across_routes(cfg_l5):
    # both pair members lower exponents at slots where the other has none;
    # each lowered term has a coefficient of zero unless its entry of the
    # sum is positive, so both routes give the same nonempty bracket
    u = parse_element(cfg_l5, "1*x[0,1,0]t[0,1,0]")
    v = parse_element(cfg_l5, "1*x[0,-1,0]t[0,0,1]")
    b = bracket_closed(u, v)
    assert b == bracket_operator(u, v)
    assert b.terms


def test_antisymmetry_smoke(all_configs):
    for config in all_configs.values():
        rng = random.Random(17)
        for _ in range(30):
            u, v = sample_element(config, rng), sample_element(config, rng)
            assert bracket_closed(u, v) == -1 * bracket_closed(v, u)
            assert bracket_closed(u, u).terms == {}


def test_jacobi_smoke(all_configs):
    for config in all_configs.values():
        rng = random.Random(19)
        for _ in range(10):
            u, v, w = (sample_element(config, rng) for _ in range(3))
            assert jacobi_sum(u, v, w).terms == {}


def test_routes_agree_smoke(all_configs):
    for config in all_configs.values():
        rng = random.Random(23)
        for _ in range(40):
            u, v = sample_element(config, rng), sample_element(config, rng)
            assert bracket_closed(u, v) == bracket_operator(u, v)


def test_bracket_is_bilinear(cfg_l2):
    from fractions import Fraction
    rng = random.Random(29)
    for _ in range(25):
        u, v, w = (sample_element(cfg_l2, rng) for _ in range(3))
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        assert (bracket_closed(u + c * v, w)
                == bracket_closed(u, w) + c * bracket_closed(v, w))
        assert (bracket_closed(w, u + c * v)
                == bracket_closed(w, u) + c * bracket_closed(w, v))


# what the oracle must never name: the closed route, the tables only it
# reads, and the cached weight its unshifted term uses
CLOSED_ROUTE = {"bracket_terms", "bracket_closed", "bracket_support", "sums_reaching",
                "weight", "pair_rows", "bracket_shapes"}


def operator_route_names() -> set:
    """Every name in code reachable from `bracket_operator`: the names of
    its code and nested code (comprehensions), and, transitively, of each
    function, or each function of a `contactk.algebra` class, that one of
    those names stands for in `contactk.algebra`'s namespace."""
    names, seen = set(), set()
    todo = [algebra.bracket_operator.__code__]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in code.co_names:
            names.add(name)
            found = vars(algebra).get(name)
            if isinstance(found, type) and found.__module__ == algebra.__name__:
                members = vars(found).values()
            else:
                members = [found]
            for member in members:
                func = getattr(member, "__func__", getattr(member, "fget", member))
                if isinstance(func, types.FunctionType):
                    todo.append(func.__code__)
    return names


def test_operator_route_never_calls_closed_route():
    # the oracle must stay independent of the route it checks, through
    # every helper it reaches
    names = operator_route_names()
    assert {"_partial_terms", "_product_into", "_grading_terms"} <= names
    assert not names & CLOSED_ROUTE, names & CLOSED_ROUTE


def test_the_independence_walk_sees_into_helpers(monkeypatch):
    # negative control: a helper that names the kernel, and one two calls
    # down that reads the kernel's weight, are both caught
    def leaky(s, terms):
        return bracket_terms
    monkeypatch.setattr(algebra, "_partial_terms", leaky)
    assert "bracket_terms" in operator_route_names()
    monkeypatch.undo()
    monkeypatch.setattr(algebra, "add_term", lambda terms, key, c: key.alpha.weight)
    assert operator_route_names() & CLOSED_ROUTE == {"weight"}


def test_kernel_is_skew_on_whole_windows(all_configs):
    # structure_rows brackets each unordered window pair once and writes
    # [v,u] as [u,v] negated, so the golden tables see the kernel in one
    # orientation only.  Every ordered pair of caseB at radius 2 and of
    # each other golden config at radius 1: [v,u] is [u,v] with every
    # coefficient negated, and [u,u] is empty
    for name, config in all_configs.items():
        if name == "mixed":
            continue
        window = window_indices(config, 2 if name == "caseB" else 1)
        for iu in window:
            assert bracket_terms(config, iu, iu) == {}, (name, iu)
        for iu, iv in itertools.combinations(window, 2):
            negated = {r: -c for r, c in bracket_terms(config, iu, iv).items()}
            assert bracket_terms(config, iv, iu) == negated, (name, iu, iv)


def test_table_brackets_each_unordered_pair_once(cfg_caseB, monkeypatch):
    # N(N-1)/2 kernel calls for the N^2 ordered pairs of the table
    import contactk.algebra as algebra

    calls = []
    kernel = algebra.bracket_terms

    def counting(*args, **kwargs):
        calls.append(frozenset(args[1:3]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(algebra, "bracket_terms", counting)
    n = len(window_indices(cfg_caseB, 2))
    rows = structure_rows(cfg_caseB, 2)
    assert len(calls) == len(set(calls)) == n * (n - 1) // 2
    assert len({row[:2] for row in rows}) == n * n


def test_bracket_terms_adds_into_the_given_dict(all_configs, cfg_l5):
    # the per-pair kernel does terms += c * [iu, iv] in place: checked
    # against the oracle on a dict that already holds terms, one of them
    # set to cancel a term of the bracket
    def cases():
        for config in all_configs.values():
            rng = random.Random(37)
            for _ in range(30):
                c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randrange(1, 4))
                iu, iv = sample_index(config, rng), sample_index(config, rng)
                yield config, iu, iv, c, rng
        # the pair of `test_lowering_terms_match_across_routes`
        u = parse_element(cfg_l5, "1*x[0,1,0]t[0,1,0]")
        v = parse_element(cfg_l5, "1*x[0,-1,0]t[0,0,1]")
        yield cfg_l5, next(iter(u.terms)), next(iter(v.terms)), 1, random.Random(38)

    cancelled = 0
    for config, iu, iv, c, rng in cases():
        oracle = bracket_operator(AlgebraElement.from_term(config, iu),
                                  AlgebraElement.from_term(config, iv)).terms
        start = dict(sample_element(config, rng).terms)
        if oracle:
            r = rng.choice(list(oracle))
            start[r] = -c * oracle[r]
            cancelled += 1
        terms = dict(start)
        assert bracket_terms(config, iu, iv, c, terms) is terms
        assert terms == add_into(dict(start), oracle, c)
        assert all(terms.values())
        assert bracket_terms(config, iu, iv) == oracle
    assert cancelled > 100


def test_both_routes_stay_in_the_bracket_support(all_configs, bracket_shape,
                                                 table_shapes):
    # the lemma behind the verifier's per-sum certificate: every index
    # either route emits for a pair lies in bracket_support of its sums.
    # Every ordered pair of the radius-1 window, and 300 seeded pairs on
    # mixed, whose window passes the cap.  Negative control: on every
    # config, the support with any one shape of its table dropped misses
    # some emitted index, so the table lists no shape the kernel never emits
    def pairs(name, config):
        if name == "mixed":
            rng = random.Random(41)
            return [(sample_index(config, rng), sample_index(config, rng))
                    for _ in range(300)]
        window = window_indices(config, 1)
        return [(iu, iv) for iu in window for iv in window]

    for name, config in all_configs.items():
        killed = set()
        for iu, iv in pairs(name, config):
            alpha_sum, exps_sum = iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)
            support = set(bracket_support(config, alpha_sum, exps_sum))
            oracle = bracket_operator(AlgebraElement.from_term(config, iu),
                                      AlgebraElement.from_term(config, iv)).terms
            closed = bracket_terms(config, iu, iv)
            assert oracle.keys() <= support and closed.keys() <= support, (name, iu, iv)
            killed.update(bracket_shape(r, alpha_sum, exps_sum)
                          for r in {*oracle, *closed})
        assert killed == table_shapes(config), name


def test_bracket_support_lists_no_negative_exponent(all_configs):
    # bracket_support lowers an entry of the exponent sum only where it
    # is positive: every index it lists, for every index sum of two
    # radius-1 window indices of each golden config, has nonnegative
    # exponents
    for name, config in all_configs.items():
        if name == "mixed":
            continue
        window = window_indices(config, 1)
        sums = {(iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))
                for iu, iv in itertools.combinations_with_replacement(window, 2)}
        for alpha_sum, exps_sum in sums:
            listed = bracket_support(config, alpha_sum, exps_sum)
            assert all(e >= 0 for r in listed for e in r.exps), (name, exps_sum)


def test_sums_reaching_inverts_the_bracket_support(all_configs):
    # the lemma behind a coboundary's table-reach skip: for every ordered
    # pair of caseB at radius 2 and of each other golden config at radius
    # 1, the key of the pair's index sum is in sums_reaching of every
    # index either route emits.  Conversely, each key listed for such an
    # index is a valid sum and has that index in its bracket_support
    for name, config in all_configs.items():
        if name == "mixed":
            continue
        ngens = len(config.lattice.generators)
        reaching = {}
        window = window_indices(config, 2 if name == "caseB" else 1)
        for iu, iv in itertools.product(window, repeat=2):
            key = (*iu.alpha.add(iv.alpha).coords, *iu.exps.add(iv.exps))
            oracle = bracket_operator(AlgebraElement.from_term(config, iu),
                                      AlgebraElement.from_term(config, iv)).terms
            closed = bracket_terms(config, iu, iv)
            for r in {*oracle, *closed}:
                if r not in reaching:
                    reaching[r] = set(sums_reaching(config, r))
                assert key in reaching[r], (name, iu, iv, r)
        assert reaching, name
        for r, keys in reaching.items():
            for key in keys:
                alpha = config.lattice.element(key[:ngens])
                exps = ExponentVector.build(config, key[ngens:])
                assert r in bracket_support(config, alpha, exps), (name, r, key)
