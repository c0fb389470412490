"""Symbolic certificates: laws of the bracket for every pair at once.

`bracket_terms`, `bracket_support`, `sums_reaching` and `bracket_operator`
only add, subtract and multiply the entries of their indices, and branch
only to skip a coefficient or an exponent entry that is zero.  Given
indices whose lattice coordinates and exponents are sympy symbols, each
returns its answer for a generic pair, with polynomial coefficients.
Setting the symbols to integers keeps sums and products, so an identity
between the symbolic answers holds for every pair.  Each vector is built
from the symbolic coordinates through the generators, so that a slot the
lattice holds at zero stays zero.

Proven here, on every golden and bench config: the shapes the kernel
emits with a coefficient that is not identically zero are exactly the
shapes `bracket_support` lists; every sum `sums_reaching` lists reaches
its index; the kernel equals the operator route and the calculus route
of `test_calculus_oracle.py` (the latter with positive exponent symbols,
its powers of `t` and `exp` merged by `powsimp`); the bracket is skew and
satisfies Jacobi; each recursion probe's `probe_recurrence` table is the
kernel's bracket with the probe monomial; every outer lowering and every
diagonal derivation of a `hom_space_basis` hom obeys Leibniz; and each
mirror identity holds.  On the pure-group configs with n = 1, 2 and 3
block-1 pairs: the four identities the closed-form trivializer divides
by, each under its case guard, and the closed form's recovery of a
generic functional in each case.
"""

from __future__ import annotations

import copy
from operator import add
from pathlib import Path

import pytest
import sympy

from contactk.algebra import (
    AlgebraElement, BasisIndex, bracket_operator, bracket_support, bracket_terms,
    lower_partial, probe_index, recursion_probes, sums_reaching,
)
from contactk.cli import load_config
from contactk.cohomology import (
    LinearFunctional, coboundary, probe_recurrence, trivialize,
)
from contactk.derivations import (
    hom_space_basis, mirror_difference_hom, mirror_pairs, outer_indices,
    outer_lower_partial,
)
from contactk.indices import ExponentVector, GroupElement
from contactk.linalg import add_into
from test_calculus_oracle import calculus_expression, monomial
from test_cohomology import pure_group_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {f"{path.parent.name}/{path.stem}": path
           for folder in (ROOT / "tests" / "golden", ROOT / "bench" / "configs")
           for path in sorted(folder.glob("*.cfg"))}

# the four kernel families, as their positions in a `pair_rows` row
FAMILIES = {"group-group": 3, "group-exponent": 4, "exponent-group": 5,
            "exponent-exponent": 6}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config(request):
    return load_config(CONFIGS[request.param])


def symbolic_index(config, name, coords=None, exps=None) -> BasisIndex:
    """An index with coordinates `coords` and exponents `exps`, by default
    fresh symbols `{name}c<k>` and `{name}e<slot>` at the exponent slots
    (zero elsewhere); its vector is built through the generators."""
    gens = config.lattice.generators
    dim = config.shape.dim
    if coords is None:
        coords = sympy.symbols(f"{name}c:{len(gens)}")
    if exps is None:
        exps = [sympy.Symbol(f"{name}e{s}") if s in config.exp_slots else 0
                for s in range(dim)]
    vector = tuple(sympy.expand(sum(c * g[s] for c, g in zip(coords, gens)))
                   for s in range(dim))
    return BasisIndex(GroupElement(tuple(coords), vector), ExponentVector(exps))


def _key(index: BasisIndex) -> tuple:
    return (tuple(map(sympy.expand, index.alpha.coords)),
            tuple(map(sympy.expand, index.exps)))


def normal(terms: dict) -> dict:
    """`{(coords, exps): coefficient}` with every entry expanded, equal
    keys merged, and coefficients that are identically zero dropped."""
    out = {}
    for r, c in terms.items():
        key = _key(r)
        out[key] = sympy.expand(out.get(key, 0) + c)
    return {key: c for key, c in out.items() if c != 0}


def shape_of(key: tuple, alpha_sum, exps_sum) -> tuple:
    """(shift coordinates, lowered slots) of a bracket index against its
    pair's sums; each must be an integer move, and each lowering by one."""
    coords, exps = key
    shift = tuple(int(sympy.expand(c - s)) for c, s in zip(coords, alpha_sum.coords))
    drops = [sympy.expand(s - e) for s, e in zip(exps_sum, exps)]
    assert set(drops) <= {0, 1}, drops
    return shift, tuple(s for s, d in enumerate(drops) if d)


def emitted_shapes(config, iu, iv) -> set:
    alpha_sum, exps_sum = iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)
    return {shape_of(key, alpha_sum, exps_sum)
            for key in normal(bracket_terms(config, iu, iv))}


def support_shapes(config, iu, iv) -> set:
    alpha_sum, exps_sum = iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)
    return {shape_of(_key(r), alpha_sum, exps_sum)
            for r in bracket_support(config, alpha_sum, exps_sum)}


def kernel_equals_operator(config, iu, iv) -> bool:
    operator = bracket_operator(AlgebraElement.from_term(config, iu),
                                AlgebraElement.from_term(config, iv)).terms
    return normal(bracket_terms(config, iu, iv)) == normal(operator)


def jacobi_sum(config, iu, iv, iw) -> dict:
    """[[u, v], w] + [[v, w], u] + [[w, u], v], normalized."""
    total = {}
    for a, b, c in ((iu, iv, iw), (iv, iw, iu), (iw, iu, iv)):
        for r, k in bracket_terms(config, a, b).items():
            bracket_terms(config, r, c, k, total)
    return normal(total)


def recurrence_holds(config, w, d, kappa, b) -> bool:
    """[w, b] == d(a, i) b + sum of k i[s] (b lowered at s) over kappa,
    where a and i are b's vector and exponents."""
    expected = {b: d(b.alpha.vector, b.exps)}
    for s, k in kappa:
        expected[BasisIndex(b.alpha, b.exps.lowered(s))] = k * b.exps[s]
    return normal(bracket_terms(config, w, b)) == normal(expected)


def leibniz_defect(config, rule, iu, iv) -> dict:
    """D[u, v] - [Du, v] - [u, Dv], normalized, for the operator D whose
    image of a basis monomial is `rule(index)`."""
    defect = {}
    for r, c in bracket_terms(config, iu, iv).items():
        add_into(defect, rule(r), c)
    for r, c in rule(iu).items():
        bracket_terms(config, r, iv, -c, defect)
    for r, c in rule(iv).items():
        bracket_terms(config, iu, r, -c, defect)
    return normal(defect)


def linear_rule(values):
    """The diagonal rule x^a t^i -> mu(a) x^a t^i of the hom with these
    generator values, its value written as a linear form in the
    coordinates so that it takes symbols."""
    return lambda index: {index: sum(c * v for c, v in zip(index.alpha.coords, values))}


def hom_rule(config, hom):
    """`linear_rule` of the hom's values, checked against the hom's own
    `value_on_coords` on the unit points, hence equal to it everywhere,
    and on one more point for good measure."""
    ngens = len(config.lattice.generators)
    points = [tuple(int(k == j) for k in range(ngens)) for j in range(ngens)]
    points.append(tuple(range(-2, ngens - 2)))
    rule = linear_rule(hom.values)
    for point in points:
        (value,) = rule(symbolic_index(config, "p", point)).values()
        assert value == hom.value_on_coords(point), (hom, point)
    return rule


def test_support_is_exactly_the_emitted_shapes(config):
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    shapes = emitted_shapes(config, iu, iv)
    assert shapes and shapes == support_shapes(config, iu, iv)
    assert len(shapes) == sum(len(group) for _, group in config.bracket_shapes)


def test_every_listed_sum_reaches_its_index(config):
    # for a generic target r and each key of sums_reaching(r): the key is
    # a valid sum, and a generic pair with that sum has a term at r
    ngens = len(config.lattice.generators)
    target = symbolic_index(config, "r")
    u = symbolic_index(config, "a")
    keys = sums_reaching(config, target)
    assert keys
    for key in keys:
        coords, exps = key[:ngens], key[ngens:]
        assert all(s in config.exp_slots for s, e in enumerate(exps) if e), key
        v = symbolic_index(config, "b", [c - a for c, a in zip(coords, u.alpha.coords)],
                           [e - a for e, a in zip(exps, u.exps)])
        assert _key(target) in normal(bracket_terms(config, u, v)), key


def test_kernel_equals_the_operator_route(config):
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    assert kernel_equals_operator(config, iu, iv)


def positive_index(config, name) -> BasisIndex:
    """`symbolic_index` with positive exponent symbols, so that sympy
    treats each power of t as a power of a positive base."""
    exps = [sympy.Symbol(f"{name}e{s}", positive=True) if s in config.exp_slots else 0
            for s in range(config.shape.dim)]
    return symbolic_index(config, name, exps=exps)


def kernel_equals_calculus(config, iu, iv) -> bool:
    """Whether the kernel's [iu, iv], as a sum of monomials, equals the
    calculus route's: their difference, divided by the product of the two
    monomials, is a sum of powers of exp(y_s) and t_s with polynomial
    coefficients once `powsimp` merges the powers, and must vanish."""
    u, v = monomial(config, iu), monomial(config, iv)
    kernel = sympy.Add(*[c * monomial(config, r)
                         for r, c in bracket_terms(config, iu, iv).items()])
    ratio = sympy.expand(calculus_expression(config, u, v) - kernel) / (u * v)
    return sympy.expand(sympy.powsimp(sympy.expand(ratio))) == 0


def test_kernel_equals_the_calculus_route(config):
    iu, iv = positive_index(config, "a"), positive_index(config, "b")
    assert kernel_equals_calculus(config, iu, iv)


def test_a_sign_flipped_family_differs_from_the_calculus_route_on_l3():
    # negative control: each row's exponent-group family, negated by
    # turning it into the group-exponent family of the row with its two
    # slots swapped, makes the kernel differ from the calculus route
    for name in ("golden/l3", "configs/l3"):
        config = load_config(CONFIGS[name])
        mutant = copy.copy(config)
        mutant.pair_rows = tuple(
            [row[:5] + (False,) + row[6:] for row in config.pair_rows]
            + [(sq, sp, shift, False, True, False, False)
               for sp, sq, shift, *families in config.pair_rows if families[2]])
        iu, iv = positive_index(config, "a"), positive_index(config, "b")
        assert kernel_equals_calculus(config, iu, iv)
        assert not kernel_equals_calculus(mutant, iu, iv), name


def test_the_bracket_is_skew(config):
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    flipped = bracket_terms(config, iv, iu, -1)
    assert normal(bracket_terms(config, iu, iv)) == normal(flipped)


def test_the_bracket_satisfies_jacobi(config):
    triple = [symbolic_index(config, sym) for sym in "abc"]
    assert jacobi_sum(config, *triple) == {}


def test_each_probe_recurrence_is_the_bracket_with_its_probe(config):
    # for a generic b: [w, b] = d(a, i) b + sum k i[s] (b lowered at s),
    # and raising b at `up` leaves d unchanged, so where d is zero f(b)
    # can be solved for through the identity at b raised at `up`
    b = symbolic_index(config, "b")
    a, i = b.alpha.vector, b.exps
    for p in recursion_probes(config):
        w, d, kappa, up = probe_recurrence(config, p)
        assert w == probe_index(config, p)
        assert recurrence_holds(config, w, d, kappa, b), p
        assert sympy.expand(d(a, i.raised(up)) - d(a, i)) == 0, p
        assert dict(kappa)[up], p


def test_the_unshifted_shape_is_not_emitted_on_l2():
    # negative control: l2's lattice has no slot-0 vector, so a table
    # with the unshifted sum put back lists a shape the kernel never emits
    config = load_config(CONFIGS["golden/l2"])
    (zero, group), *rows = config.bracket_shapes
    assert () not in group
    mutant = copy.copy(config)
    mutant.bracket_shapes = ((zero, ((), *group)), *rows)
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    assert emitted_shapes(config, iu, iv) == support_shapes(config, iu, iv)
    assert emitted_shapes(mutant, iu, iv) != support_shapes(mutant, iu, iv)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_is_needed(family):
    # negative control: with one family switched off in a copy's
    # pair_rows, the kernel differs from the operator route on every
    # config that has that family
    at = FAMILIES[family]
    having = set()
    for name, path in CONFIGS.items():
        config = load_config(path)
        if not any(row[at] for row in config.pair_rows):
            continue
        having.add(path.stem)
        mutant = copy.copy(config)
        mutant.pair_rows = tuple(row[:at] + (False,) + row[at + 1:]
                                 for row in config.pair_rows)
        iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
        assert not kernel_equals_operator(mutant, iu, iv), (family, name)
    assert having


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_jacobi_needs_each_family_on_l3(family):
    # negative control: l3 has all four families, and with any one
    # switched off in a copy's pair_rows the bracket fails Jacobi
    at = FAMILIES[family]
    for name in ("golden/l3", "configs/l3"):
        config = load_config(CONFIGS[name])
        mutant = copy.copy(config)
        mutant.pair_rows = tuple(row[:at] + (False,) + row[at + 1:]
                                 for row in config.pair_rows)
        triple = [symbolic_index(config, sym) for sym in "abc"]
        assert jacobi_sum(config, *triple) == {}
        assert jacobi_sum(mutant, *triple) != {}, name


def test_each_recurrence_entry_is_needed():
    # negative control over every (config, recursion probe) pair: each
    # kappa entry with its sign flipped breaks the identity, and so does d
    # negated wherever d is not identically zero: on 13 of the 22 pairs,
    # the other 9 being probe 0 on a lattice with no slot-0 vector
    pairs = negated = 0
    for name, path in CONFIGS.items():
        config = load_config(path)
        b = symbolic_index(config, "b")
        for p in recursion_probes(config):
            w, d, kappa, _up = probe_recurrence(config, p)
            pairs += 1
            for n, (s, k) in enumerate(kappa):
                flipped = kappa[:n] + ((s, -k),) + kappa[n + 1:]
                assert not recurrence_holds(config, w, d, flipped, b), (name, p, s)
            if sympy.expand(d(b.alpha.vector, b.exps)) != 0:
                negated += 1
                negated_d = lambda a, i: -d(a, i)  # noqa: E731
                assert not recurrence_holds(config, w, negated_d, kappa, b), (name, p)
    assert (pairs, negated) == (22, 13)


def test_every_outer_lowering_obeys_leibniz(config):
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    for p in outer_indices(config):
        rule = outer_lower_partial(config, p).rule
        assert leibniz_defect(config, rule, iu, iv) == {}, p


def test_every_hom_space_derivation_obeys_leibniz(config):
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    for hom in hom_space_basis(config):
        assert leibniz_defect(config, hom_rule(config, hom), iu, iv) == {}, hom


def test_a_coordinate_form_obeys_leibniz_only_if_it_vanishes_on_every_shift(config):
    # negative control for the homs: the k-th coordinate, as a diagonal
    # rule, is a derivation exactly when no shift has a k-th coordinate
    iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
    ngens = len(config.lattice.generators)
    for k in range(ngens):
        values = [int(j == k) for j in range(ngens)]
        vanishes = all(shift.coords[k] == 0 for shift in config.shift_coords.values())
        assert (leibniz_defect(config, linear_rule(values), iu, iv) == {}) == vanishes, k


def test_a_lowering_at_a_nonzero_index_that_is_not_outer_fails_leibniz():
    # negative control over every config: the lowering at each nonzero
    # index that carries exponents but is not outer is no derivation
    failing = 0
    for name, path in CONFIGS.items():
        config = load_config(path)
        iu, iv = symbolic_index(config, "a"), symbolic_index(config, "b")
        outer = outer_indices(config)
        for p in config.shape.indices():
            if p and config.shape.slot(p) in config.exp_slots and p not in outer:
                def rule(index, p=p):
                    return lower_partial(p, AlgebraElement.from_term(config, index)).terms
                assert leibniz_defect(config, rule, iu, iv) != {}, (name, p)
                failing += 1
    assert failing == 16


def test_each_mirror_identity_holds(config):
    # `check_mirror_identity` for a generic x and every p in mirror_pairs:
    # mu(a) x = [probe_p, x] + (x lowered at p) - (x lowered at p bar),
    # mu the mirror-difference hom and a the coordinates of x
    x = symbolic_index(config, "b")
    element = AlgebraElement.from_term(config, x)
    for p in mirror_pairs(config):
        identity = bracket_terms(config, probe_index(config, p), x)
        add_into(identity, lower_partial(p, element).terms)
        add_into(identity, lower_partial(p + config.shape.n, element).terms, -1)
        rule = hom_rule(config, mirror_difference_hom(config, p))
        assert normal(identity) == normal(rule(x)), p


def pivot_case(config, p, ap, aq) -> BasisIndex:
    """A generic index in the closed form's case at pivot p: slot 0 at
    zero, each pair before p at (-1, -1), p's pair at (ap, aq) and fresh
    symbols after it.  A coordinate of `pure_group_config` is the vector
    entry at its slot."""
    shape = config.shape
    coords = list(sympy.symbols(f"bc:{shape.dim}"))
    coords[0] = 0
    for q in range(1, p + 1):
        coords[shape.slot(q)], coords[shape.slot(q + shape.n)] = (
            (ap, aq) if q == p else (-1, -1))
    return symbolic_index(config, "b", coords)


def closed_form_cases(config) -> dict:
    """`{b: (w, moved b, divisor)}` for the closed form's four cases, each
    under its guard: [w, moved b] = divisor b, with `b + move_p` for the
    square at pivot p and b itself otherwise.  The reference vector is
    all -1 on block 1 and `top` is it plus twice the unit at slot 0."""
    shape = config.shape
    n = shape.n
    ap, aq = sympy.symbols("ap aq")
    b = symbolic_index(config, "b")
    cases = {b: (probe_index(config, 0), b, 2 * b.alpha.vector[0])}
    for p in shape.blocks(1, 1):
        b = pivot_case(config, p, ap, aq)
        cases[b] = (probe_index(config, p), b, aq - ap)
        b = pivot_case(config, p, aq, aq)
        move = [0] * shape.dim
        move[shape.slot(p)], move[shape.slot(p + n)] = -1, 1
        square = symbolic_index(config, "s", [2 * int(s == shape.slot(p))
                                              for s in range(shape.dim)])
        moved = symbolic_index(config, "b", list(map(add, b.alpha.coords, move)))
        cases[b] = (square, moved, 2 * (aq + 1))
    ref = symbolic_index(config, "r", [0] + [-1] * (2 * n))
    top = symbolic_index(config, "t", [2] + [-1] * (2 * n))
    cases[ref] = (symbolic_index(config, "z", [-2] + [0] * (2 * n)), top, 4 * (2 + n))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_closed_form_divides_by_what_the_bracket_gives(n):
    # [1, b] = 2 a0 b; with a0 = 0 and each pair before the pivot p at
    # (-1, -1), [probe_p, b] = (aq - ap) b, and with also ap = aq,
    # [square_p, b + move_p] = 2 (aq + 1) b; [-2 e0, top] = 4 (2 + n) ref
    config = pure_group_config(n)
    cases = closed_form_cases(config)
    assert len(cases) == 2 + 2 * n
    for b, (w, moved, divisor) in cases.items():
        assert normal(bracket_terms(config, w, moved)) == normal({b: divisor}), b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_closed_form_recovers_a_generic_functional(n):
    # the closed form of psi_g, for g(b) an undefined function of b's
    # coordinates, returns g(b) in each of its cases.  It fails for each
    # of these mutants of the closed form: 4(2 + 1) for 4(2 + n), aq - ap
    # negated, and a pivot walk that stops at the first pair whatever its
    # entries
    config = pure_group_config(n)
    function = sympy.Function("g")

    def g(index):
        return function(*map(sympy.expand, index.alpha.coords))

    f = trivialize(coboundary(LinearFunctional(config, rule=g)))
    for b in closed_form_cases(config):
        assert sympy.cancel(f.eval_basis(b) - g(b)) == 0, b
