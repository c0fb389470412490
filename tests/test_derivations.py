"""Derivation operators: ad, diagonal homs, outer lowering, checkers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contactk import (
    AlgebraElement, ConfigError, LatticeHom, LinearOperator, ad,
    basis_element, bracket_closed, check_derivation, check_mirror_identity,
    diagonal_derivation, format_element, hom_space_basis, hom_star_basis,
    mirror_difference_hom, outer_indices, outer_lower_partial, parse_element,
    probe_sets, recursion_probes, sample_index, unit, window_indices, window_size,
    zero_slot_hom,
)
from contactk.algebra import lower_partial, parse_basis_index, sample_element, scale_partial
from contactk.derivations import hom_combination
from contactk.linalg import add_into


def _pairs(config, seed, count):
    rng = random.Random(seed)
    return [(sample_index(config, rng), sample_index(config, rng))
            for _ in range(count)]


def test_mirror_difference_hom_values(cfg_caseB):
    mu = mirror_difference_hom(cfg_caseB, 1)
    assert [mu.value_on_coords(c)
            for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [0, -1, 1]
    d = diagonal_derivation(mu)
    u = basis_element(cfg_caseB, (0, 2, 0))
    (i,) = u.terms
    assert format_element(AlgebraElement(cfg_caseB, d.rule(i))) == "-2*x[0,2,0]"


def test_mirror_difference_hom_refuses_an_index_outside_blocks_1_to_3(cfg_l4):
    # l4's one pair is in block 4, whose barred slot holds exponents only
    with pytest.raises(ConfigError, match=r"index 1 is not in blocks 1\.\.3"):
        mirror_difference_hom(cfg_l4, 1)


def test_failed_mirror_identity_names_its_index(cfg_l2, monkeypatch):
    # a stand-in lowering that drops every term breaks the identity at an
    # index with an exponent at 1 bar; the failure holds that index, no
    # partner, and both sides
    idx = parse_basis_index(cfg_l2, "x[0,1,0]t[0,0,2]")
    assert check_mirror_identity(cfg_l2, 1, [idx]).passed
    monkeypatch.setattr("contactk.derivations.lower_partial",
                        lambda p, x: AlgebraElement.zero(x.config))
    report = check_mirror_identity(cfg_l2, 1, [idx])
    ((index, partner, lhs, rhs),) = report.failures
    assert (report.checked, index, partner) == (1, idx, None)
    assert lhs != rhs


def test_diagonal_actions_are_int_when_integral(cfg_caseB, cfg_decomp):
    # the hom keeps Fraction values; its diagonal action is an int where
    # integral, so decomposer columns scale by ints
    window = window_indices(cfg_decomp, 1)
    for mu in hom_star_basis(cfg_decomp) + hom_space_basis(cfg_decomp):
        assert all(type(v) is Fraction for v in mu.values)
        d = diagonal_derivation(mu)
        actions = [(w, c) for w in window for c in d.rule(w).values()]
        assert actions and all(type(c) is int and c == mu(w.alpha) for w, c in actions)
    mu = LatticeHom(cfg_caseB, [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)])
    half = diagonal_derivation(mu)
    actions = [c for w in window_indices(cfg_caseB, 1)
               for c in half.rule(w).values()]
    assert {type(c) for c in actions} == {int, Fraction}
    assert all(type(c) is int for c in actions if c.denominator == 1)


def test_lattice_hom_constraint(cfg_caseB):
    # must vanish on the shift vector of every active paired block
    with pytest.raises(ConfigError):
        LatticeHom(cfg_caseB, [0, 1, 0])
    mu = LatticeHom(cfg_caseB, [Fraction(3), Fraction(1), Fraction(-1)])
    assert mu.value_on_coords((0, -1, -1)) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_value_on_coords_matches_the_fraction_sum(cfg_caseB, cfg_decomp, cfg_mixed, data):
    # integer numerators over one denominator give the Fraction sum exactly;
    # each hom-space basis vector is scaled by its own denominator, so the
    # values mix integral entries, halves, thirds and sixths such as -5/6
    config = data.draw(st.sampled_from([cfg_caseB, cfg_decomp, cfg_mixed]))
    basis = hom_space_basis(config)
    dens = data.draw(st.permutations([1, 2, 3, 6]))
    scales = [Fraction(data.draw(st.sampled_from([-5, -1, 1, 2, 7])), d)
              for d in dens[:len(basis)]]
    values = [sum((s * h.values[k] for s, h in zip(scales, basis)), Fraction(0))
              for k in range(len(config.lattice.generators))]
    mu = LatticeHom(config, values)
    assert all(type(v) is Fraction for v in mu.values)
    coords = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=len(values),
                                max_size=len(values)))
    got = mu.value_on_coords(coords)
    assert type(got) is Fraction
    assert got == sum(c * v for c, v in zip(coords, mu.values))
    # moving one value off the hom space on a shift coordinate is refused
    shift = config.shift_coords[config.shape.blocks(1, 5)[0]].coords
    k = next(k for k, c in enumerate(shift) if c)
    values[k] += Fraction(data.draw(st.integers(1, 9)), data.draw(st.sampled_from([1, 2, 3])))
    with pytest.raises(ConfigError, match="does not vanish"):
        LatticeHom(config, values)


def test_ad_rule_equals_the_closed_bracket(all_configs):
    # ad's basis rule calls the per-pair kernel directly: same terms, key
    # order and coefficient types as bracket_closed(u, x_i)
    for config in all_configs.values():
        rng = random.Random(53)
        # mixed's radius-2 window is 7.7e9 indices: it draws from the box
        window = (window_indices(config, 2) if window_size(config, 2) <= 5000
                  else [sample_index(config, rng) for _ in range(200)])
        terms = {}
        for c in (2, Fraction(-1, 3), -1, Fraction(5, 2)):
            terms[sample_index(config, rng)] = c
        u = AlgebraElement(config, terms)
        assert {type(c) for c in u.terms.values()} == {int, Fraction}
        D = ad(u)
        for i in rng.sample(window, 40):
            want = bracket_closed(u, AlgebraElement.from_term(config, i)).terms
            got = D.rule(i)
            assert list(got.items()) == list(want.items())
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_ad_is_a_derivation(all_configs):
    for config in all_configs.values():
        rng = random.Random(31)
        D = ad(sample_element(config, rng))
        report = check_derivation(D, _pairs(config, 32, 40))
        assert report.passed, report.failures[:1]


def test_diagonal_and_outer_are_derivations(all_configs):
    for config in all_configs.values():
        for mu in hom_space_basis(config)[:3]:
            report = check_derivation(diagonal_derivation(mu),
                                      _pairs(config, 33, 40))
            assert report.passed
        for p in outer_indices(config):
            report = check_derivation(outer_lower_partial(config, p),
                                      _pairs(config, 34, 40))
            assert report.passed, (p, report.failures[:1])


def test_scale_partial_alone_is_not_a_derivation(cfg_caseB):
    D = LinearOperator(cfg_caseB, lambda idx: scale_partial(
        1, AlgebraElement.from_term(cfg_caseB, idx, 1)).terms, "scale 1")
    report = check_derivation(D, _pairs(cfg_caseB, 35, 60))
    assert not report.passed
    iu, iv, lhs, rhs = report.failures[0]
    assert lhs != rhs


def test_outer_lower_partial_range(cfg_caseB, cfg_l2, cfg_l3, cfg_l5):
    assert outer_indices(cfg_caseB) == []
    assert outer_indices(cfg_l2) == [2]
    assert outer_indices(cfg_l3) == [1, 2]
    assert outer_indices(cfg_l5) == [1]
    for config, bad in ((cfg_caseB, 1), (cfg_l2, 1), (cfg_l5, 2)):
        with pytest.raises(ConfigError):
            outer_lower_partial(config, bad)


def test_outer_indices_mixed(cfg_mixed):
    s = cfg_mixed.shape
    assert outer_indices(cfg_mixed) == sorted(
        [s.mirror(2), s.mirror(3), 3, 5])


def test_mixed_roles_pinned(cfg_mixed):
    # the index lists and probe families the slot roles decide, in order,
    # on the config with one index per block (p bar is p + 6)
    assert outer_indices(cfg_mixed) == [3, 5, 8, 9]
    assert recursion_probes(cfg_mixed) == [2, 3, 5, 0]

    def x(*at, t=()):
        """x at the given slots (1 each, or (slot, k)) times t at `t`."""
        vec, exps = [0] * 13, [0] * 13
        for s in at:
            s, k = s if isinstance(s, tuple) else (s, 1)
            vec[s] = k
        for s in t:
            exps[s] += 1
        body = "x[" + ",".join(map(str, vec)) + "]"
        return "1*" + body + ("t[" + ",".join(map(str, exps)) + "]" if t else "")

    ps = probe_sets(cfg_mixed)
    assert [format_element(u) for u in ps.triangular] == [
        x(3, 4), x(5, 6), x(9, t=(10,)), x()]
    assert [format_element(u) for u in ps.diagonal] == [
        x(1, 2), x(7, t=(8,)), x(t=(11, 12))]
    assert [format_element(u) for u in ps.raising] == [
        x((1, 2)), x((3, 2)), x((5, 2)), x((7, 2)), x((9, 2)), x(t=(11, 11)),
        x(t=(0,))]
    assert [format_element(u) for u in ps.lowering] == [
        x((2, 2)), x((4, 2)), x((6, 2)), x(t=(8, 8)), x(t=(10, 10)),
        x(t=(12, 12))]


def test_mirror_identity_on_windows(cfg_caseB, cfg_l2, cfg_l3):
    for config in (cfg_caseB, cfg_l2, cfg_l3):
        window = window_indices(config, 2)
        for p in config.shape.blocks(1, 3):
            report = check_mirror_identity(config, p, window)
            assert report.passed, (p, report.failures[:1])


def test_unit_adjoint_constants(cfg_l2, cfg_caseB):
    # ad 1 doubles the zero-slot hom plus, with natural exponents, the
    # zero-slot lowering
    for config in (cfg_l2, cfg_caseB):
        d_mu0 = diagonal_derivation(zero_slot_hom(config))
        parts = [(Fraction(2), d_mu0)]
        if config.j0_naturals:
            zero_lower = LinearOperator(
                config, lambda idx, c=config: _lower0(c, idx), "lower 0")
            parts.append((Fraction(2), zero_lower))
        rhs = LinearOperator.combine(config, parts)
        adu = ad(unit(config))
        for idx in window_indices(config, 2):
            assert adu.rule(idx) == rhs.rule(idx)


def _lower0(config, idx):
    return lower_partial(0, AlgebraElement.from_term(config, idx, 1)).terms


def test_probe_sets_caseB(cfg_caseB):
    ps = probe_sets(cfg_caseB)
    assert [format_element(u) for u in ps.triangular] == []
    assert [format_element(u) for u in ps.diagonal] == [
        "1*x[0,1,1]", "1*x[0,0,0]"]
    assert "1*x[0,2,0]" in [format_element(u) for u in ps.raising]
    assert "1*x[2,0,0]" in [format_element(u) for u in ps.raising]
    assert "1*x[0,0,2]" in [format_element(u) for u in ps.lowering]
    assert "1*x[-2,0,0]" in [format_element(u) for u in ps.lowering]


def test_probe_sets_l6(cfg_l6z, cfg_l6n):
    ps = probe_sets(cfg_l6z)
    assert "1*x[0,0,0]t[0,1,1]" in [format_element(u) for u in ps.diagonal]
    assert "1*x[0,0,0]t[0,2,0]" in [format_element(u) for u in ps.raising]
    assert "1*x[0,0,0]t[0,0,2]" in [format_element(u) for u in ps.lowering]
    psn = probe_sets(cfg_l6n)
    assert "1*x[0,0,0]" in [format_element(u) for u in psn.triangular]
    # zero-slot raising probe falls back to t0 when the lattice lacks
    # a zero-slot axis
    psl2 = probe_sets_l2_raising()
    assert "1*x[0,0,0]t[1,0,0]" in psl2


def test_probe_sets_raise_blocks_4_and_5(cfg_l4, cfg_l5):
    # the probe monomials of blocks 4 and 5 carry t at the mirror slot:
    # block 4's in the diagonal family, block 5's in the triangular one
    ps4, ps5 = probe_sets(cfg_l4), probe_sets(cfg_l5)
    assert [format_element(u) for u in ps4.triangular] == ["1*x[0,0,0]"]
    assert [format_element(u) for u in ps4.diagonal] == ["1*x[0,1,0]t[0,0,1]"]
    assert [format_element(u) for u in ps5.triangular] == [
        "1*x[0,1,0]t[0,0,1]", "1*x[0,0,0]"]
    assert ps5.diagonal == []


def probe_sets_l2_raising():
    from contactk import make_config
    c = make_config((0, 1, 0, 0, 0, 0), "naturals", [(0, 1, 0), (0, 0, 1)])
    return [format_element(u) for u in probe_sets(c).raising]


def test_first_two_probe_sets_commute(all_configs):
    for config in all_configs.values():
        ps = probe_sets(config)
        both = ps.triangular + ps.diagonal
        for i, u in enumerate(both):
            for v in both[i:]:
                assert bracket_closed(u, v).terms == {}, (
                    format_element(u), format_element(v))


def test_hom_space_dimensions(cfg_caseB, cfg_l2, cfg_decomp, cfg_mixed):
    assert len(hom_space_basis(cfg_caseB)) == 2
    assert len(hom_space_basis(cfg_l2)) == 1
    assert len(hom_space_basis(cfg_decomp)) == 2
    # mixed: 8 generators, 5 active shift constraints
    assert len(hom_space_basis(cfg_mixed)) == 3
    for config in (cfg_caseB, cfg_l2, cfg_decomp, cfg_mixed):
        for mu in hom_space_basis(config):
            for p in config.shape.blocks(1, 5):
                assert mu(config.shift_coords[p]) == 0


def test_hom_star_dimensions(cfg_caseB, cfg_l2, cfg_decomp):
    assert len(hom_star_basis(cfg_caseB)) == 0
    assert len(hom_star_basis(cfg_l2)) == 0
    assert len(hom_star_basis(cfg_decomp)) == 1


def test_hom_combination_sums_the_scaled_homs(cfg_mixed):
    homs = hom_space_basis(cfg_mixed)
    coeffs = [Fraction(3, 2), 0, -2]
    hom = hom_combination(cfg_mixed, coeffs, homs)
    assert hom.values == tuple(sum(c * h.values[k] for c, h in zip(coeffs, homs))
                               for k in range(len(cfg_mixed.lattice.generators)))
    assert not any(hom_combination(cfg_mixed, [0] * len(homs), homs).values)


def test_derivation_combination(cfg_l3):
    rng = random.Random(41)
    mu = hom_space_basis(cfg_l3)[0]
    D = LinearOperator.combine(cfg_l3, [
        (Fraction(2, 3), diagonal_derivation(mu)),
        (Fraction(-1), outer_lower_partial(cfg_l3, 1)),
        (Fraction(5), ad(sample_element(cfg_l3, rng))),
    ])
    report = check_derivation(D, _pairs(cfg_l3, 42, 60))
    assert report.passed


def test_in_place_sums_leave_operands_unchanged_and_images_fresh(cfg_l3):
    # operators keep no memo: every call computes its basis images afresh,
    # and the accumulator writes into fresh dicts only, never into an operand
    u = parse_element(cfg_l3, "2*x[0,1,0] + -1/3*x[0,0,1]t[0,1,0] + 5*x[0,-1,1]")
    v = parse_element(cfg_l3, "1*x[0,0,1] + 3/2*x[0,1,0]")
    u_terms, v_terms = dict(u.terms), dict(v.terms)
    assert u + v == v + u
    assert (u - v) + v == u
    assert u.terms == u_terms and v.terms == v_terms

    D = ad(v)
    outer = outer_lower_partial(cfg_l3, 1)
    C = LinearOperator.combine(cfg_l3, [(2, D), (Fraction(-1, 3), outer)])
    assert not any(hasattr(op, "_memo") for op in (D, outer, C))
    for op in (D, outer, C):
        for idx in u.terms:
            a, b = op.rule(idx), op.rule(idx)
            assert a == b and a is not b
        assert u.terms == u_terms and v.terms == v_terms
    for idx in u.terms:
        want = add_into(add_into({}, D.rule(idx), 2), outer.rule(idx), Fraction(-1, 3))
        assert C.rule(idx) == want


def _element_route(kind, config, idx):
    """The image of one basis monomial by the element route that each
    operator kind's rule stands for, as a terms dict."""
    x = AlgebraElement.from_term(config, idx)
    name, arg = kind
    if name == "ad":
        return bracket_closed(arg, x).terms
    if name == "dmu":
        return (arg(idx.alpha) * x).terms
    if name == "dt":
        return lower_partial(arg, x).terms
    total = AlgebraElement.zero(config)
    for s, part in arg:
        total = total + s * AlgebraElement(config, _element_route(part, config, idx))
    return total.terms


def test_each_rule_returns_a_fresh_zero_free_dict_equal_to_its_element_route(
        all_configs, cfg_decomp):
    # ad is the closed bracket, dmu the hom's scaling, dt lower_partial,
    # combine and a parsed spec the scaled sum of their parts; every call
    # returns a new dict with no zero value, on 20 drawn indices and the
    # radius-1 window (100 drawn indices on mixed)
    from contactk.cli import parse_operator_spec
    seen = set()
    for name, config in {**all_configs, "decomp": cfg_decomp}.items():
        rng = random.Random(59)
        indices = [sample_index(config, rng) for _ in range(100 if name == "mixed" else 20)]
        if name != "mixed":
            indices += window_indices(config, 1)
        u = sample_element(config, rng)
        outer = outer_indices(config)
        parts = [(("ad", u), ad(u))]
        parts += [(("dmu", mu), diagonal_derivation(mu)) for mu in hom_space_basis(config)[-1:]]
        parts += [(("dt", p), outer_lower_partial(config, p)) for p in outer]
        scalars = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 3)) for _ in parts]
        combined = LinearOperator.combine(
            config, [(s, op) for s, (_, op) in zip(scalars, parts)])
        spec = " + ".join([f"2 dt {config.shape.index_token(p)}" for p in outer]
                          + [f"-1 ad {format_element(u)}"])
        cases = parts + [
            (("combine", [(s, kind) for s, (kind, _) in zip(scalars, parts)]), combined),
            (("combine", [(2, ("dt", p)) for p in outer] + [(-1, ("ad", u))]),
             parse_operator_spec(config, spec)),
        ]
        for kind, op in cases:
            images = 0
            for idx in indices:
                got = op.rule(idx)
                assert got is not op.rule(idx) and all(got.values()), (name, op.tag)
                assert got == _element_route(kind, config, idx), (name, op.tag, idx)
                images += bool(got)
            assert images, (name, op.tag)
            seen.add(kind[0])
    assert seen == {"ad", "dmu", "dt", "combine"}
