"""Cocycle checking and constructive trivialization."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from contactk import (
    CoboundaryCocycle, ConfigError, LinearFunctional, TableCocycle,
    AlgebraElement, basis_element, bracket_closed, bracket_operator,
    check_cocycle, closed_form_regime,
    coboundary, make_config, parse_basis_index, recursion_probes,
    sample_index, trivialize,
    verify_trivialization, window_indices,
)
from contactk.algebra import bracket_support, bracket_terms
from contactk.cohomology import pair_reaching, probe_recurrence, targeted_triples


def random_functional(config, rng, support_size=6):
    # sampled support: full windows are unaffordable on many-axis configs
    table = {}
    while len(table) < support_size:
        idx = sample_index(config, rng)
        table[idx] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return LinearFunctional(
        config, table={k: v for k, v in table.items() if v}, tag="random")


def window_pairs(config, radius):
    w = window_indices(config, radius)
    return [(w[i], w[j]) for i in range(len(w)) for j in range(i, len(w))]


def test_coboundary_pinned_value(cfg_caseB):
    shift_inv = parse_basis_index(cfg_caseB, "x[0,1,1]")
    f = LinearFunctional(cfg_caseB, table={shift_inv: Fraction(1)}, tag="ind")
    psi = coboundary(f)
    a = parse_basis_index(cfg_caseB, "x[0,2,0]")
    b = parse_basis_index(cfg_caseB, "x[0,0,2]")
    assert psi.on_basis(a, b) == 4
    assert psi.on_basis(b, a) == -4
    assert psi.on_basis(a, a) == 0


def _bilinear(psi, u, v):
    """psi extended bilinearly to elements: the reference that
    check_cocycle's sums over the kernel's bracket must agree with."""
    total = Fraction(0)
    for iu, cu in u.terms.items():
        for iv, cv in v.terms.items():
            val = psi.on_basis(iu, iv)
            if val:
                total += cu * cv * val
    return total


def _reference_check(psi, triples):
    """check_cocycle's failures, computed through elements: the bilinear
    form of bracket_closed brackets."""
    config = psi.config
    sums = []
    for iu, iv, iw in triples:
        xu, xv, xw = (AlgebraElement.from_term(config, i) for i in (iu, iv, iw))
        total = (_bilinear(psi, bracket_closed(xu, xv), xw)
                 + _bilinear(psi, bracket_closed(xv, xw), xu)
                 + _bilinear(psi, bracket_closed(xw, xu), xv))
        if total != 0:
            sums.append((iu, iv, iw, total))
    return sums


def test_check_cocycle_matches_the_bilinear_reference(cfg_caseB, cfg_l2):
    # criterion 8's table with its 300 triples, and the README's l2 form
    # with the triples `cocycle check` draws at its defaults: the same
    # failures, in the same order, with the same totals and their types
    rng = random.Random(108)
    window = window_indices(cfg_caseB, 1)
    entries = {}
    for _ in range(40):
        a, b = rng.sample(window, 2)
        if (b, a) not in entries:
            entries[(a, b)] = Fraction(rng.randrange(1, 6))
    cases = [(TableCocycle(cfg_caseB, entries),
              [tuple(rng.choice(window) for _ in range(3)) for _ in range(300)])]
    pair = (parse_basis_index(cfg_l2, "x[0,0,-1]t[0,0,1]"),
            parse_basis_index(cfg_l2, "x[0,-1,1]"))
    form = TableCocycle(cfg_l2, {pair: Fraction(3, 2)})
    rng = random.Random(0)
    triples = [tuple(sample_index(cfg_l2, rng) for _ in range(3)) for _ in range(50)]
    cases.append((form, triples + targeted_triples(form, rng, 50)))
    for psi, triples in cases:
        report = check_cocycle(psi, triples)
        ref_sums = _reference_check(psi, triples)
        assert report.checked == len(triples)
        assert report.failures == ref_sums and report.failures
        assert [type(t) for *_, t in report.failures] == [type(t) for *_, t in ref_sums]


def skew_on_pairs(psi, triples) -> bool:
    """psi is zero on the diagonal and changes sign with the order of each
    pair of the triples: what `check_cocycle` takes as given."""
    return all(psi.on_basis(a, a) == 0 == psi.on_basis(b, b)
               and psi.on_basis(a, b) == -psi.on_basis(b, a)
               for u, v, w in triples for a, b in ((u, v), (v, w), (u, w)))


class UnsignedTable(TableCocycle):
    """A table whose flipped lookup drops its sign: not skew."""

    __slots__ = ()

    def on_basis(self, iu, iv):
        if iu.sort_key() <= iv.sort_key():
            return self.entries.get((iu, iv), Fraction(0))
        return self.entries.get((iv, iu), Fraction(0))


def test_coboundaries_pass_the_checker(all_configs):
    # both forms are skew by construction, which check_cocycle does not
    # check, so pin it here: on every config a coboundary, through its
    # `_reach` skip, and a random table are skew on their triples' pairs,
    # some of which are aimed where the form is nonzero.  Negative
    # control: the table with the sign of its flipped lookup dropped
    for config in all_configs.values():
        rng = random.Random(81)
        f = random_functional(config, rng)
        psi = coboundary(f)
        assert psi._reach is not None
        triples = [tuple(sample_index(config, rng) for _ in range(3))
                   for _ in range(25)]
        triples += [(*pair_reaching(config, r, rng), sample_index(config, rng))
                    for r in f.table]
        report = check_cocycle(psi, triples)
        assert report.passed, report.failures[:1]
        assert any(psi.on_basis(u, v) for u, v, _w in triples)
        assert skew_on_pairs(psi, triples)

        entries = {}
        for _ in range(6):
            a, b = sample_index(config, rng), sample_index(config, rng)
            if a != b and (b, a) not in entries:
                entries[(a, b)] = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
        table = TableCocycle(config, entries)
        triples = [(a, b, sample_index(config, rng)) for a, b in entries]
        triples += targeted_triples(table, rng, 10)
        assert skew_on_pairs(table, triples)
        assert not skew_on_pairs(UnsignedTable(config, entries), triples)


def test_table_cocycle_orientation(cfg_caseB):
    a = parse_basis_index(cfg_caseB, "x[0,1,0]")
    b = parse_basis_index(cfg_caseB, "x[0,0,1]")
    t = TableCocycle(cfg_caseB, {(a, b): Fraction(2)})
    assert t.on_basis(a, b) == 2
    assert t.on_basis(b, a) == -2
    assert t.on_basis(a, a) == 0


def test_table_cocycle_rejects_inconsistency(cfg_caseB):
    a = parse_basis_index(cfg_caseB, "x[0,1,0]")
    b = parse_basis_index(cfg_caseB, "x[0,0,1]")
    with pytest.raises(ConfigError):
        TableCocycle(cfg_caseB, {(a, b): Fraction(2), (b, a): Fraction(2)})
    with pytest.raises(ConfigError):
        TableCocycle(cfg_caseB, {(a, a): Fraction(1)})
    # mirrored entries with matching skew values are fine
    t = TableCocycle(cfg_caseB, {(a, b): Fraction(2), (b, a): Fraction(-2)})
    assert t.on_basis(a, b) == 2


def test_random_skew_table_fails_jacobi(cfg_caseB):
    rng = random.Random(83)
    window = window_indices(cfg_caseB, 1)
    entries = {}
    for _ in range(12):
        a, b = rng.sample(window, 2)
        entries[(a, b)] = Fraction(rng.randrange(1, 5))
    psi = TableCocycle(cfg_caseB, entries)
    triples = [tuple(rng.choice(window) for _ in range(3)) for _ in range(200)]
    assert check_cocycle(psi, triples).failures, "random table accidentally closed"


def test_regime_flags(all_configs):
    regimes = {name: closed_form_regime(c) for name, c in all_configs.items()}
    assert regimes == {"caseB": True, "l2": False, "l3": False, "l4": False,
                       "l5": False, "l6z": False, "l6n": False, "mixed": False}
    assert recursion_probes(all_configs["caseB"]) == []
    assert recursion_probes(all_configs["l2"]) == [1, 0]
    assert recursion_probes(all_configs["l3"]) == [1, 0]
    assert recursion_probes(all_configs["l5"]) == [1, 0]
    assert recursion_probes(all_configs["l4"]) == [0]
    assert recursion_probes(all_configs["l6n"]) == [0]
    assert recursion_probes(all_configs["l6z"]) == []


def test_no_route_configuration_raises():
    c = make_config((0, 0, 0, 1, 0, 0), "zero", [(1, 0, 0), (0, 1, 0)])
    f = LinearFunctional(c, table={}, tag="zero")
    with pytest.raises(ConfigError):
        trivialize(coboundary(f))


def test_recursive_round_trip_block2(cfg_l2):
    rng = random.Random(85)
    g = random_functional(cfg_l2, rng)
    psi = coboundary(g)
    f = trivialize(psi, 1)
    report = verify_trivialization(psi, f, window_pairs(cfg_l2, 2))
    assert report.passed, report.failures[:1]


@pytest.mark.parametrize("name, probe, deep, shallow", [
    ("cfg_l2", 1, "x[0,1,0]t[0,0,1000]", "x[0,1,0]t[0,0,3]"),
    ("cfg_l3", 1, "x[0,1,0]t[0,0,1000]", "x[0,0,0]t[0,1000,0]"),
    ("cfg_l3", 1, "x[0,1,1]t[0,1000,3]", "x[0,1,0]t[0,40,40]"),
    ("cfg_l5", 1, "x[0,1,0]t[0,1000,0]", "x[0,0,0]t[0,1000,3]"),
    ("cfg_l6n", 0, "x[0,0,0]t[1000,0,0]", "x[1,0,0]t[1000,0,0]"),
])
def test_recursive_trivializer_handles_deep_exponents(request, name, probe, deep, shallow):
    # exponent chains far longer than Python's recursion limit; these
    # algebras are perfect, so f must equal g wherever g is given
    config = request.getfixturevalue(name)
    ideep = parse_basis_index(config, deep)
    ishallow = parse_basis_index(config, shallow)
    g = LinearFunctional(
        config, table={ideep: Fraction(3, 2), ishallow: Fraction(-5)}, tag="g")
    f = trivialize(coboundary(g), probe)
    assert f.eval_basis(ideep) == Fraction(3, 2)
    assert f.eval_basis(ishallow) == -5


def test_recursive_trivializer_reads_table_entries_in_its_chain(cfg_l2):
    # a table entry overrides the rule also where the rule needs a lower
    # exponent: f at x[0,1,0]t[0,0,2] moves by -iq/(aq - ap) = 2 per unit
    g = random_functional(cfg_l2, random.Random(93))
    top = parse_basis_index(cfg_l2, "x[0,1,0]t[0,0,2]")
    low = parse_basis_index(cfg_l2, "x[0,1,0]t[0,0,1]")
    plain = trivialize(coboundary(g), 1)
    altered = trivialize(coboundary(g), 1)
    altered.table[low] = plain.eval_basis(low) + 1
    assert altered.eval_basis(top) == plain.eval_basis(top) + 2


def test_recursive_round_trip_block3_and_5(cfg_l3, cfg_l5):
    for config in (cfg_l3, cfg_l5):
        rng = random.Random(86)
        psi = coboundary(random_functional(config, rng))
        f = trivialize(psi, 1)
        report = verify_trivialization(psi, f, window_pairs(config, 2))
        assert report.passed, report.failures[:1]


def test_recursive_round_trip_zero_slot_probe(cfg_l4, cfg_l6n):
    for config in (cfg_l4, cfg_l6n):
        rng = random.Random(87)
        psi = coboundary(random_functional(config, rng))
        f = trivialize(psi, 0)
        report = verify_trivialization(psi, f, window_pairs(config, 2))
        assert report.passed, report.failures[:1]


def test_closed_form_round_trip(cfg_caseB):
    rng = random.Random(88)
    psi = coboundary(random_functional(cfg_caseB, rng))
    f = trivialize(psi)
    report = verify_trivialization(psi, f, window_pairs(cfg_caseB, 2))
    assert report.passed, report.failures[:1]


def pure_group_config(n):
    """The closed-form regime with n block-1 indices and the standard
    basis, so that a lattice coordinate is the vector entry at its slot."""
    dim = 1 + 2 * n
    return make_config((n, 0, 0, 0, 0, 0), "zero",
                       [tuple(int(k == s) for k in range(dim)) for s in range(dim)])


@pytest.mark.parametrize("seed", [301, 302, 303])
def test_closed_form_round_trip_past_the_first_pivot(seed):
    # caseB has one block-1 pair, so only n >= 2 walks the pivot past it.
    # g holds the reference vector, whose case divides by 4(2 + n), and
    # six window entries.  At n = 2 every window pair u <= v round-trips;
    # at n = 3, 1,500 uniform and 1,500 aimed pairs do.  Both algebras are
    # perfect, so f equals g on the radius-1 window
    for n in (2, 3):
        config = pure_group_config(n)
        rng = random.Random(seed)
        window = window_indices(config, 1)
        ref = basis_element(config, (0,) + (-1,) * (2 * n))
        g = LinearFunctional(config, tag="g", table={
            i: Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4))
            for i in [*rng.sample(window, 6), *ref.terms]})
        psi = coboundary(g)
        f = trivialize(psi)
        if n == 2:
            pairs = window_pairs(config, 1)
            assert len(pairs) == 29646
        else:
            pairs = [(sample_index(config, rng), sample_index(config, rng))
                     for _ in range(1500)]
            pairs += [pair_reaching(config, rng.choice(list(g.table)), rng)
                      for _ in range(1500)]
        report = verify_trivialization(psi, f, pairs)
        assert report.passed, (n, report.failures[:1])
        assert [f.eval_basis(i) for i in window] == [g.eval_basis(i) for i in window], n


def test_trivialize_routes_automatically(cfg_caseB, cfg_l2):
    for config in (cfg_caseB, cfg_l2):
        rng = random.Random(89)
        psi = coboundary(random_functional(config, rng))
        f = trivialize(psi)
        report = verify_trivialization(psi, f, window_pairs(config, 2))
        assert report.passed


def test_trivializer_is_linear_in_the_cocycle(cfg_l2):
    # difference of two coboundaries trivializes to the difference of the
    # recovered functionals on every bracket
    rng = random.Random(90)
    g1, g2 = random_functional(cfg_l2, rng), random_functional(cfg_l2, rng)
    f1 = trivialize(coboundary(g1))
    f2 = trivialize(coboundary(g2))
    pairs = window_pairs(cfg_l2, 1)
    for iu, iv in pairs:
        u = basis_element(cfg_l2, iu.alpha.coords, iu.exps)
        v = basis_element(cfg_l2, iv.alpha.coords, iv.exps)
        b = bracket_closed(u, v)
        lhs = g1.eval_terms(b.terms) - g2.eval_terms(b.terms)
        rhs = f1.eval_terms(b.terms) - f2.eval_terms(b.terms)
        assert lhs == rhs


def test_verify_reports_mismatch(cfg_caseB):
    rng = random.Random(91)
    g = random_functional(cfg_caseB, rng)
    psi = coboundary(g)
    wrong = LinearFunctional(cfg_caseB, table={}, tag="zero")
    report = verify_trivialization(psi, wrong, window_pairs(cfg_caseB, 1))
    assert not report.passed
    iu, iv, lhs, rhs = report.failures[0]
    assert lhs != rhs


def test_verify_witnesses_one_altered_value(cfg_l2):
    # f = g except at one window index; the coboundary route brackets each
    # pair once for both sides, so its witnesses must be exactly the pairs
    # whose bracket (by the independent operator route) has a term there
    rng = random.Random(92)
    g = random_functional(cfg_l2, rng)
    pairs = window_pairs(cfg_l2, 1)
    idx = pairs[len(pairs) // 2][1]
    f = LinearFunctional(cfg_l2, table=g.table, tag="altered")
    f.table[idx] = g.eval_basis(idx) + 1
    report = verify_trivialization(coboundary(g), f, pairs)
    expected = {}
    for iu, iv in pairs:
        b = bracket_operator(AlgebraElement.from_term(cfg_l2, iu),
                             AlgebraElement.from_term(cfg_l2, iv))
        if idx in b.terms:
            expected[(iu, iv)] = b.terms[idx]
    assert expected and report.checked == len(pairs)
    assert {(iu, iv): rhs - lhs for iu, iv, lhs, rhs in report.failures} == expected


def test_verify_checks_table_cocycles_on_basis(cfg_caseB):
    # a table cocycle is not a coboundary: it is read through on_basis,
    # and against the zero functional only its own entry differs
    pairs = window_pairs(cfg_caseB, 1)
    a, b = pairs[7]
    psi = TableCocycle(cfg_caseB, {(b, a): Fraction(-3, 2)})
    zero = LinearFunctional(cfg_caseB, table={}, tag="zero")
    report = verify_trivialization(psi, zero, pairs)
    assert report.failures == [(a, b, Fraction(3, 2), 0)]


def _reference_failures(config, g, f, pairs):
    # witnesses through the independent operator route, summed in full
    out = []
    for iu, iv in pairs:
        b = bracket_operator(AlgebraElement.from_term(config, iu),
                             AlgebraElement.from_term(config, iv)).terms
        lhs = sum(c * g.eval_basis(r) for r, c in b.items())
        rhs = sum(c * f.eval_basis(r) for r, c in b.items())
        if lhs != rhs:
            out.append((iu, iv, lhs, rhs))
    return out


def test_verify_passes_pairs_whose_differences_cancel(cfg_l2):
    # f = g except at r1 and r2, altered by d1 = c2 and d2 = -c1 where
    # c1, c2 are their coefficients in one pair's bracket: that pair sums
    # to zero and must pass, while pairs with other ratios fail
    rng = random.Random(93)
    g = random_functional(cfg_l2, rng)
    pairs = window_pairs(cfg_l2, 1)
    brackets = [bracket_operator(AlgebraElement.from_term(cfg_l2, iu),
                                 AlgebraElement.from_term(cfg_l2, iv)).terms
                for iu, iv in pairs]
    k = next(k for k, b in enumerate(brackets) if len(b) >= 2)
    (r1, c1), (r2, c2) = list(brackets[k].items())[:2]
    f = LinearFunctional(cfg_l2, table=g.table, tag="altered")
    f.table[r1] = g.eval_basis(r1) + c2
    f.table[r2] = g.eval_basis(r2) - c1
    report = verify_trivialization(coboundary(g), f, pairs)
    expected = _reference_failures(cfg_l2, g, f, pairs)
    assert report.checked == len(pairs)
    assert report.failures == expected and expected
    assert pairs[k] not in [(iu, iv) for iu, iv, _, _ in report.failures]


def _sum_key(iu, iv):
    return iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)


def _pairs_of_a_single_sum(pairs):
    # the pairs whose index sum no other pair has, in pair order
    count = Counter(_sum_key(*pair) for pair in pairs)
    return [pair for pair in pairs if count[_sum_key(*pair)] == 1]


def _drawn_then_flipped(config, rng, count):
    # for configs whose window passes the cap: each flipped pair repeats
    # the sum of its drawn pair, later in the sweep
    drawn = [(sample_index(config, rng), sample_index(config, rng))
             for _ in range(count)]
    return drawn + [(iv, iu) for iu, iv in drawn]


@pytest.fixture
def kernel_calls(monkeypatch):
    # the (iu, iv) of every bracket_terms call made from cohomology: with
    # table functionals, which have no rule, the verifier's own calls
    import contactk.cohomology as cohomology

    calls = []
    kernel = cohomology.bracket_terms

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cohomology, "bracket_terms", counting)
    return calls


def _uncertified(config, g, f, pairs):
    # the pairs, in pair order, whose index sum's bracket_support holds an
    # index where g and f differ
    return [(iu, iv) for iu, iv in pairs
            if any(g.eval_basis(r) != f.eval_basis(r) for r in bracket_support(
                config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)))]


def test_verify_brackets_only_the_sums_it_cannot_certify(cfg_l2, kernel_calls):
    # table functionals have no rule, so every kernel call comes from the
    # verifier's own loop.  A table psi is bracketed once per pair, in
    # pair order.  A coboundary checks g - f on each index sum's support
    # at the sum's first pair: when it vanishes there no pair of the sum
    # is bracketed, and otherwise each is bracketed once, in pair order
    calls = kernel_calls
    rng = random.Random(94)
    g = random_functional(cfg_l2, rng)
    pairs = window_pairs(cfg_l2, 1)
    f = LinearFunctional(cfg_l2, table=g.table, tag="altered")
    f.table[pairs[len(pairs) // 3][0]] = Fraction(7, 2)
    table = TableCocycle(cfg_l2, {pairs[5]: Fraction(1)})
    report = verify_trivialization(table, f, iter(pairs))
    assert report.checked == len(calls) == len(pairs)
    assert calls == pairs
    assert report.failures

    psi = coboundary(g)
    calls.clear()
    same = LinearFunctional(cfg_l2, table=g.table, tag="same")
    report = verify_trivialization(psi, same, iter(pairs))
    assert report.passed and report.checked == len(pairs)
    assert calls == []

    report = verify_trivialization(psi, f, iter(pairs))
    expected = _reference_failures(cfg_l2, g, f, pairs)
    assert expected and report.failures == expected
    assert calls == _uncertified(cfg_l2, g, f, pairs)
    assert 0 < len(calls) < len(pairs) and report.checked == len(pairs)


def test_verify_reports_failures_in_pair_order(cfg_l2):
    # failures of two sums, one of them a sum that no other pair has,
    # come in pair order, as the operator-route reference gives them
    g = random_functional(cfg_l2, random.Random(95))
    pairs = window_pairs(cfg_l2, 1)
    single = _pairs_of_a_single_sum(pairs)
    lone = next(p for p in single if bracket_terms(cfg_l2, *p))
    twin = next(p for p in pairs if p not in single and _sum_key(*p) != _sum_key(*lone)
                and bracket_terms(cfg_l2, *p))
    f = LinearFunctional(cfg_l2, table=g.table, tag="altered")
    for iu, iv in (lone, twin):
        r = next(iter(bracket_terms(cfg_l2, iu, iv)))
        f.table[r] = g.eval_basis(r) + 1
    ordered = [lone] + [p for p in pairs if _sum_key(*p) == _sum_key(*twin)]
    report = verify_trivialization(coboundary(g), f, iter(ordered))
    expected = _reference_failures(cfg_l2, g, f, ordered)
    assert report.failures == expected and len(expected) > 1
    assert report.failures[0][:2] == lone and report.checked == len(ordered)


def test_verify_failures_match_the_operator_reference(all_configs, bracket_shape,
                                                      table_shapes, kernel_calls):
    # f = g except at bracket results of the pairs, one drawn for each
    # shape of the config's table, so that a sum's certificate sees every
    # shape.  Every shape is hit, and killed: some failing pair's bracket
    # holds the index altered for it.  Failures equal the operator-route
    # reference in value and order.  The kernel is called, in pair order
    # and once each, for exactly the pairs whose sum's support holds an
    # index where g and f differ
    for name, config in all_configs.items():
        rng = random.Random(96)
        if name == "mixed":
            pairs = _drawn_then_flipped(config, rng, 150)
        else:
            pairs = window_pairs(config, 1)
        g = random_functional(config, rng)
        brackets, by_shape = {}, {}
        for iu, iv in pairs:
            alpha_sum, exps_sum = _sum_key(iu, iv)
            brackets[iu, iv] = bracket_operator(AlgebraElement.from_term(config, iu),
                                                AlgebraElement.from_term(config, iv)).terms
            for r in brackets[iu, iv]:
                by_shape.setdefault(bracket_shape(r, alpha_sum, exps_sum), []).append(r)
        assert by_shape.keys() == table_shapes(config), name
        f = LinearFunctional(config, table=g.table, tag="altered")
        altered = {}
        for shape in sorted(by_shape):
            r = altered[shape] = rng.choice(by_shape[shape])
            f.table[r] = g.eval_basis(r) + rng.choice([-2, -1, Fraction(1, 2), 3])
        kernel_calls.clear()
        report = verify_trivialization(coboundary(g), f, pairs)
        assert report.failures == _reference_failures(config, g, f, pairs), name
        assert report.failures and report.checked == len(pairs)
        failing = [brackets[iu, iv] for iu, iv, _, _ in report.failures]
        for shape, r in altered.items():
            assert any(r in bracket for bracket in failing), (name, shape)
        assert kernel_calls == _uncertified(config, g, f, pairs), name
        assert len(set(kernel_calls)) == len(kernel_calls), name


@pytest.mark.parametrize("probe", ["2", "3", "5", "0"])
def test_recursive_round_trip_on_mixed(cfg_mixed, probe):
    # the only config where every family feeds bracket_support: each
    # recursion probe, on drawn pairs and their flips, so that the
    # per-sum certificate is used
    rng = random.Random(97)
    psi = coboundary(random_functional(cfg_mixed, rng))
    f = trivialize(psi, cfg_mixed.shape.parse_index_token(probe))
    pairs = _drawn_then_flipped(cfg_mixed, rng, 100)
    report = verify_trivialization(psi, f, pairs)
    assert report.passed and report.checked == len(pairs), report.failures[:1]


# per probe token on mixed: the partner c of a one-entry table psi(w, c) =
# 3/2 at the probe monomial w, and f at indices b with d = 0 and a
# positive exponent at the recurrence's `up` slot, as the trivializer
# with one hand-written branch per block computed them
DEGENERATE_PINS = {
    "2": ("x[0,0,0,1,1,0,0,0,0,0,0,0,0]t[0,0,0,0,3,0,0,0,0,0,0,0,0]", {
        "x[0,0,0,1,1,0,0,0,0,0,0,0,0]t[0,0,0,0,2,0,0,0,0,0,0,0,0]": Fraction(1, 2)}),
    "3": ("x[0,0,0,0,0,1,1,0,0,0,0,0,0]t[0,0,0,0,0,1,3,0,0,0,0,0,0]", {
        "x[0,0,0,0,0,1,1,0,0,0,0,0,0]t[0,0,0,0,0,1,2,0,0,0,0,0,0]": Fraction(1, 2),
        "x[0,0,0,0,0,1,1,0,0,0,0,0,0]t[0,0,0,0,0,2,1,0,0,0,0,0,0]": Fraction(1, 2)}),
    "5": ("x[0,0,0,0,0,0,0,0,0,1,0,0,0]t[0,0,0,0,0,0,0,0,0,3,1,0,0]", {
        "x[0,0,0,0,0,0,0,0,0,1,0,0,0]t[0,0,0,0,0,0,0,0,0,2,1,0,0]": Fraction(-1, 2)}),
    "0": ("x[0,1,0,0,0,0,0,0,0,0,0,0,0]t[3,0,0,0,0,0,0,0,0,0,0,0,0]", {
        "x[0,1,0,0,0,0,0,0,0,0,0,0,0]t[2,0,0,0,0,0,0,0,0,0,0,0,0]": Fraction(1, 4)}),
}


@pytest.mark.parametrize("probe", sorted(DEGENERATE_PINS))
def test_degenerate_recursion_on_a_non_coboundary(cfg_mixed, probe):
    # a one-entry table is no cocycle, so no f trivializes it and the f
    # built depends on the recurrence's choice of `up`: on block 3, raising
    # at slot(p) instead of slot(p bar) gives other values here
    p = cfg_mixed.shape.parse_index_token(probe)
    w, d, _kappa, up = probe_recurrence(cfg_mixed, p)
    partner, pins = DEGENERATE_PINS[probe]
    c = parse_basis_index(cfg_mixed, partner)
    f = trivialize(TableCocycle(cfg_mixed, {(w, c): Fraction(3, 2)}), p)
    for literal, value in pins.items():
        b = parse_basis_index(cfg_mixed, literal)
        assert d(b.alpha.vector, b.exps) == 0 and b.exps[up] > 0, literal
        assert f.eval_basis(b) == value, literal


def _skip_cases(all_configs, cfg_decomp):
    # every golden and bench config: (name, config, pairs, g).  g's table
    # is drawn from the radius-1 window (the sampling box on mixed, whose
    # window passes the cap); the pairs are the radius-1 window pairs u <= v,
    # or 100 drawn pairs on mixed, then 100 pairs aimed at g's table
    for name, config in {**all_configs, "decomp": cfg_decomp}.items():
        rng = random.Random(99)
        if name == "mixed":
            pairs = [(sample_index(config, rng), sample_index(config, rng))
                     for _ in range(100)]
            g = random_functional(config, rng)
        else:
            window = window_indices(config, 1)
            pairs = window_pairs(config, 1)
            g = LinearFunctional(config, tag="g", table={
                i: Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4))
                for i in rng.sample(window, 6)})
        table = list(g.table)
        pairs += [pair_reaching(config, rng.choice(table), rng) for _ in range(100)]
        yield name, config, pairs, g


def test_table_reach_skip_changes_no_value(all_configs, cfg_decomp, kernel_calls):
    # a table coboundary answers zero without a bracket for a pair whose
    # sum cannot reach its table; on_basis must still equal g summed over
    # the kernel's bracket, on the window pairs and on 200 drawn pairs
    # (100 of them aimed at g's table).  A skipped pair makes no kernel
    # call and any other pair one; both kinds occur, and some aimed
    # values are nonzero
    for name, config, pairs, g in _skip_cases(all_configs, cfg_decomp):
        rng = random.Random(100)
        pairs += [(sample_index(config, rng), sample_index(config, rng))
                  for _ in range(100)]
        psi = coboundary(g)
        skipped = nonzero = 0
        for iu, iv in pairs:
            kernel_calls.clear()
            value = psi.on_basis(iu, iv)
            assert value == g.eval_terms(bracket_terms(config, iu, iv)), (name, iu, iv)
            key = (*iu.alpha.add(iv.alpha).coords, *iu.exps.add(iv.exps))
            skip = key not in psi._reach
            assert len(kernel_calls) == (0 if skip else 1), (name, iu, iv)
            skipped += skip
            nonzero += value != 0
        assert skipped and nonzero, (name, skipped, nonzero)


def _recording(rule, touched):
    """`rule`, adding each index it is called on to `touched`."""
    def recorded(index):
        touched.add(index)
        return rule(index)
    return recorded


def test_trivializers_agree_with_and_without_the_skip(all_configs, cfg_decomp):
    # the trivializers read psi one basis pair at a time; a table g takes
    # the table-reach skip, and the same table with a zero rule takes the
    # unskipped path.  Every recursion probe and the closed form give the
    # same f, value and type, on the window and on every index its verify
    # touches, and both verify
    routes = 0
    for name, config, pairs, g in _skip_cases(all_configs, cfg_decomp):
        ruled = LinearFunctional(config, table=g.table, rule=lambda i: Fraction(0))
        probes = [None] if closed_form_regime(config) else recursion_probes(config)
        for probe in probes:
            fs = []
            touched = set()
            for h in (g, ruled):
                psi = coboundary(h)
                assert (psi._reach is None) == (h is ruled)
                f = trivialize(psi, probe)
                f.rule = _recording(f.rule, touched)
                report = verify_trivialization(psi, f, pairs)
                assert report.passed, (name, probe, report.failures[:1])
                fs.append(f)
            plain, unskipped = fs
            if name != "mixed":
                touched.update(window_indices(config, 1))
            values = [(plain.eval_basis(i), unskipped.eval_basis(i)) for i in touched]
            assert all(a == b and type(a) is type(b) for a, b in values), (name, probe)
            assert any(a for a, _ in values), (name, probe)
            routes += 1
    # l2, l3, l5 and decomp take probes 1 and 0, l4 and l6n probe 0, mixed
    # probes 2, 3, 5 and 0, caseB the closed form; l6z has no route
    assert routes == 15


@pytest.mark.parametrize("name, probe", [
    ("cfg_l2", 1), ("cfg_l2", 0), ("cfg_l5", 1), ("cfg_l6n", 0)])
def test_recursion_memo_belongs_to_one_functional(request, name, probe):
    # two coboundaries on one config, trivialized by the same probe and
    # evaluated in turn: each f equals its own g on the window (these
    # algebras are perfect), so no value computed for one functional is
    # read by another.  Each value the recursion works out is in its own
    # f's table, and g's tables are left as they were
    config = request.getfixturevalue(name)
    window = window_indices(config, 2)
    rng = random.Random(101)
    gs = [LinearFunctional(config, tag="g", table={
        i: Fraction(rng.choice([-3, -1, 2, 5]), rng.randrange(1, 4))
        for i in rng.sample(window, 8)}) for _ in range(2)]
    fs = [trivialize(coboundary(g), probe) for g in gs]
    for f, g in zip(fs, gs):
        assert [f.eval_basis(i) for i in window] == [g.eval_basis(i) for i in window]
        assert all(f.table[i] == g.eval_basis(i) for i in window)
        assert len(g.table) == 8
