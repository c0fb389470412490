"""Skew 2-forms on the bracket, their axioms, and constructive trivialization.

A cocycle here is a bilinear skew form evaluated on basis pairs.  The
trivializers build a linear functional f with psi(u,v) = f([u,v]) two
ways: a memoized recursion driven by a probe element (available whenever
zero-slot exponents are switched on or some block besides the first is
nonempty), and a four-case closed form for the remaining pure-group
regime.  Divisions are exact; the case guards are the case split.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .indices import AlgebraConfig, ConfigError, ExponentVector
from .algebra import (
    COORD_BOUND, AlgebraElement, BasisIndex, CheckReport, bracket_closed,
    bracket_support, bracket_terms, format_basis_index, sums_reaching,
)

# one shared zero for every zero value; it is a Fraction, not int 0, so
# the trivializer rules' divisions stay exact
_ZERO = Fraction(0)


class Cocycle:
    """Bilinear skew form given on basis pairs; extended bilinearly."""

    __slots__ = ("config",)

    def __init__(self, config: AlgebraConfig):
        self.config = config

    def on_basis(self, iu: BasisIndex, iv: BasisIndex) -> Fraction:
        raise NotImplementedError

    def __call__(self, u: AlgebraElement, v: AlgebraElement) -> Fraction:
        total = _ZERO
        for iu, cu in u.terms.items():
            for iv, cv in v.terms.items():
                val = self.on_basis(iu, iv)
                if val:
                    total += cu * cv * val
        return total


class LinearFunctional:
    """Finite table plus an optional memoized rule for off-table indices."""

    __slots__ = ("config", "table", "rule", "tag", "_memo")

    def __init__(self, config: AlgebraConfig, table=None, rule=None, tag="table"):
        self.config = config
        self.table = dict(table or {})
        self.rule = rule
        self.tag = tag
        self._memo: dict[BasisIndex, Fraction] = {}

    def eval_basis(self, index: BasisIndex) -> Fraction:
        if index in self.table:
            return self.table[index]
        if self.rule is None:
            return _ZERO
        out = self._memo.get(index)
        if out is None:
            out = self.rule(index)
            self._memo[index] = out
        return out

    def eval_terms(self, terms: dict) -> Fraction:
        total = _ZERO
        for idx, c in terms.items():
            val = self.eval_basis(idx)
            if val:
                total += c * val
        return total


def _sum_key(iu: BasisIndex, iv: BasisIndex) -> tuple:
    """Key of a pair's index sum, as `sums_reaching` lists it."""
    return (*map(add, iu.alpha.coords, iv.alpha.coords),
            *map(add, iu.exps, iv.exps))


class CoboundaryCocycle(Cocycle):
    """psi_f(u,v) = f([u,v]); satisfies the cocycle axioms identically.

    For a functional without a rule, the sums whose bracket can reach a
    nonzero table entry (`sums_reaching`) are read from the table when
    the coboundary is built, and a pair with any other sum is zero
    without a bracket; a later change to the table is not seen."""

    __slots__ = ("functional", "_reach")

    def __init__(self, functional: LinearFunctional):
        super().__init__(functional.config)
        self.functional = functional
        self._reach = None if functional.rule is not None else {
            key for r, value in functional.table.items() if value
            for key in sums_reaching(self.config, r)}

    def on_basis(self, iu, iv):
        if self._reach is not None and _sum_key(iu, iv) not in self._reach:
            return _ZERO
        return self.functional.eval_terms(bracket_terms(self.config, iu, iv))


def coboundary(f: LinearFunctional) -> CoboundaryCocycle:
    return CoboundaryCocycle(f)


class TableCocycle(Cocycle):
    """Finite skew table; one orientation stored, the flip negated.

    Skew-symmetry holds by representation: diagonal pairs are zero and
    only the sorted orientation of each pair is kept.
    """

    __slots__ = ("entries",)

    def __init__(self, config: AlgebraConfig, entries):
        super().__init__(config)
        canonical: dict[tuple, Fraction] = {}
        for (iu, iv), value in entries.items():
            value = Fraction(value)
            if iu == iv:
                if value:
                    raise ConfigError("diagonal cocycle entries must be zero")
                continue
            if iu.sort_key() <= iv.sort_key():
                key, val = (iu, iv), value
            else:
                key, val = (iv, iu), -value
            if key in canonical and canonical[key] != val:
                raise ConfigError(
                    "inconsistent values for the pair "
                    f"({format_basis_index(key[0])}, {format_basis_index(key[1])})")
            canonical[key] = val
        self.entries = {k: v for k, v in canonical.items() if v}

    def on_basis(self, iu, iv):
        if iu == iv:
            return _ZERO
        if iu.sort_key() <= iv.sort_key():
            return self.entries.get((iu, iv), _ZERO)
        return -self.entries.get((iv, iu), _ZERO)


def check_cocycle(psi: Cocycle, triples) -> tuple[CheckReport, CheckReport]:
    """Exact cocycle axioms: skew-symmetry on the distinct ordered pairs of
    the triples, in first-seen order, and the three-term sum on each triple.
    Skew failures are (a, b); sum failures are (iu, iv, iw, total)."""
    config = psi.config
    triples = list(triples)
    pairs = dict.fromkeys(
        pair for iu, iv, iw in triples for pair in ((iu, iv), (iv, iw), (iu, iw)))
    skew_failures = [
        (a, b) for a, b in pairs
        if psi.on_basis(a, a) != 0 or psi.on_basis(a, b) + psi.on_basis(b, a) != 0]
    sum_failures = []
    for iu, iv, iw in triples:
        xu = AlgebraElement.from_term(config, iu)
        xv = AlgebraElement.from_term(config, iv)
        xw = AlgebraElement.from_term(config, iw)
        total = (psi(bracket_closed(xu, xv), xw)
                 + psi(bracket_closed(xv, xw), xu)
                 + psi(bracket_closed(xw, xu), xv))
        if total != 0:
            sum_failures.append((iu, iv, iw, total))
    return CheckReport(len(pairs), skew_failures), CheckReport(len(triples), sum_failures)


def pair_reaching(config: AlgebraConfig, index: BasisIndex, rng) -> tuple:
    """A seeded pair (u, v) whose index sum is a valid key drawn from
    `sums_reaching(config, index)`, so that [u, v] can have a term at
    `index`.  u has coordinates in the sampling box and exponents at most
    the sum's; v is the sum less u."""
    ngens = len(config.lattice.generators)
    sums = [key for key in sums_reaching(config, index)
            if all(s in config.exp_slots for s, e in enumerate(key[ngens:]) if e)]
    key = rng.choice(sums)
    coords, exps = key[:ngens], key[ngens:]
    u_coords = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(ngens)]
    u_exps = [rng.randint(0, e) for e in exps]
    return (BasisIndex(config.lattice.element(u_coords), ExponentVector(u_exps)),
            BasisIndex(config.lattice.element(map(sub, coords, u_coords)),
                       ExponentVector(map(sub, exps, u_exps))))


def targeted_triples(psi: TableCocycle, rng, count: int) -> list[tuple]:
    """`count` seeded triples (u, v, w) aimed at a table's support: w is
    one index of a drawn entry, and (u, v) a `pair_reaching` the other
    index, its partner, so [u, v] can have a term where psi(., w) is
    nonzero."""
    entries = list(psi.entries)
    if not entries:
        return []
    out = []
    for _ in range(count):
        w, partner = rng.sample(rng.choice(entries), 2)
        out.append((*pair_reaching(psi.config, partner, rng), w))
    return out


# -- regimes and probes -----------------------------------------------

def closed_form_regime(config: AlgebraConfig) -> bool:
    """True for the pure-group regime: no zero-slot exponents and only
    the first block nonempty (so the exponent semigroup is trivial)."""
    return (not config.j0_naturals) and config.shape.n == config.shape.ell[0]


def recursion_probes(config: AlgebraConfig) -> list[int]:
    """Probe indices accepted by the recursive trivializer, in preference
    order: blocks 2, 3, 5, then 0 for the unit route."""
    shape = config.shape
    out = list(shape.blocks(2, 3)) + list(shape.blocks(5, 5))
    if config.j0_naturals:
        out.append(0)
    return out


def _probe_index(config: AlgebraConfig, p: int) -> BasisIndex:
    if p == 0:
        return BasisIndex(config.lattice.zero, config.zero_exps)
    shape = config.shape
    alpha = config.shift_coords[p].neg()
    if shape.block_of(p) == 5:
        exps = config.zero_exps.raised(shape.slot(p + shape.n))
    else:
        exps = config.zero_exps
    return BasisIndex(alpha, exps)


def trivialize_recursive(psi: Cocycle, probe: int) -> LinearFunctional:
    """Build f with psi = psi_f by downward recursion on one exponent.

    The probe picks the bracket identity the recursion inverts: bracketing
    with the probe's negative-shift monomial relates each basis value of f
    to values at lowered exponents, so f is solved one exponent at a
    time; `_bottom_up` runs each chain without Python recursion.  It
    reads psi on single basis pairs, through `psi.on_basis`.  Every route
    is confirmed by the round-trip verifier.
    """
    config = psi.config
    shape = config.shape
    if closed_form_regime(config):
        raise ConfigError("recursive trivializer needs exponents or a later block")
    if probe not in recursion_probes(config):
        raise ConfigError(f"invalid probe index {probe} for this configuration")
    w = _probe_index(config, probe)
    tag = f"probe {shape.index_token(probe)}"

    if probe == 0:
        def step(b: BasisIndex):
            a0 = b.alpha.vector[0]
            i0 = b.exps[0]
            if a0 != 0:
                val = psi.on_basis(w, b)
                if i0:
                    val -= 2 * i0 * (yield BasisIndex(b.alpha, b.exps.lowered(0)))
                return val / (2 * a0)
            return psi.on_basis(w, BasisIndex(b.alpha, b.exps.raised(0))) / (2 * (i0 + 1))
    else:
        sp = shape.slot(probe)
        sq = shape.slot(probe + shape.n)
        block = shape.block_of(probe)

        def step(b: BasisIndex):
            vec = b.alpha.vector
            ap, aq = vec[sp], vec[sq]
            ip, iq = b.exps[sp], b.exps[sq]
            if block == 2:
                if aq != ap:
                    val = psi.on_basis(w, b)
                    if iq:
                        val -= iq * (yield BasisIndex(b.alpha, b.exps.lowered(sq)))
                    return val / (aq - ap)
                return psi.on_basis(w, BasisIndex(b.alpha, b.exps.raised(sq))) / (iq + 1)
            if block == 3:
                if aq != ap:
                    val = psi.on_basis(w, b)
                    if ip:
                        val += ip * (yield BasisIndex(b.alpha, b.exps.lowered(sp)))
                    if iq:
                        val -= iq * (yield BasisIndex(b.alpha, b.exps.lowered(sq)))
                    return val / (aq - ap)
                raised_exps = b.exps.raised(sq)
                val = psi.on_basis(w, BasisIndex(b.alpha, raised_exps))
                if ip:
                    val += ip * (yield BasisIndex(b.alpha, raised_exps.lowered(sp)))
                return val / (iq + 1)
            # block 5: the raised probe pairs the mirror exponent against
            # the unbarred coordinate
            if iq != ap:
                val = psi.on_basis(w, b)
                if ip:
                    val += ip * (yield BasisIndex(b.alpha, b.exps.lowered(sp)))
                return val / (iq - ap)
            return -psi.on_basis(w, BasisIndex(b.alpha, b.exps.raised(sp))) / (ip + 1)

    f = LinearFunctional(config, tag=tag)
    f.rule = _bottom_up(f, step)
    return f


def _bottom_up(f: LinearFunctional, step):
    """Rule for f from `step(b)`, a generator that yields each index whose
    value it needs, is sent that value, and returns f(b).  A value f does
    not know yet is worked out first, on an explicit stack rather than by
    recursion, so a chain of lowered exponents evaluates bottom up."""
    def rule(b: BasisIndex) -> Fraction:
        stack = [(b, step(b))]
        value = None
        while stack:
            index, gen = stack[-1]
            try:
                need = gen.send(value)
            except StopIteration as done:
                value = f._memo[index] = done.value
                stack.pop()
                continue
            value = f.table.get(need, f._memo.get(need))
            if value is None:
                stack.append((need, step(need)))
        return value

    return rule


def reference_vector_coords(config: AlgebraConfig):
    """Coordinates of the all-minus-one pure-group reference vector."""
    coords = config.lattice.zero
    for p in config.shape.blocks(1, 1):
        coords = coords.add(config.shift_coords[p])
    return coords


def pivot_index(config: AlgebraConfig, alpha) -> int:
    """First block-1 index where alpha leaves the reference pattern."""
    shape = config.shape
    vec = alpha.vector
    for p in shape.blocks(1, 1):
        if (vec[shape.slot(p)], vec[shape.slot(p + shape.n)]) != (-1, -1):
            return p
    raise ConfigError("vector equals the reference vector; no pivot index")


def trivialize_closed_form(psi: Cocycle) -> LinearFunctional:
    """Four-case closed form for the pure-group single-block regime; it
    reads psi on single basis pairs, through `psi.on_basis`."""
    config = psi.config
    shape = config.shape
    if not closed_form_regime(config):
        raise ConfigError("closed-form trivializer needs the pure-group regime")
    # zero-slot exponents are off, so the lattice must cover slot 0
    if not config.lattice.has_zero_slot:
        raise ConfigError("configuration invariant violated")  # pragma: no cover
    lattice = config.lattice
    ell1 = shape.ell[0]
    ref = reference_vector_coords(config)

    def group_index(coords) -> BasisIndex:
        return BasisIndex(lattice.element(coords), config.zero_exps)

    def unit(q) -> tuple:
        """Coordinates of the unit vector at index q."""
        return lattice.membership(tuple(int(s == shape.slot(q)) for s in range(shape.dim)))

    unit0 = unit(0)
    one = group_index(lattice.zero.coords)
    neg_two0 = group_index(tuple(-2 * c for c in unit0))
    top = group_index(tuple(2 * a + b for a, b in zip(unit0, ref.coords)))
    # per pivot p: the probe at the negated shift of p, the square at twice
    # the unit vector at p, and the move by p's mirror unit vector less p's
    probes, squares, moves = {}, {}, {}
    for p in shape.blocks(1, 1):
        at_p, at_mirror = unit(p), unit(p + shape.n)
        probes[p] = BasisIndex(config.shift_coords[p].neg(), config.zero_exps)
        squares[p] = group_index(tuple(2 * c for c in at_p))
        moves[p] = lattice.element(map(sub, at_mirror, at_p))

    def rule(b: BasisIndex) -> Fraction:
        vec = b.alpha.vector
        if b.alpha.coords == ref.coords:
            return psi.on_basis(neg_two0, top) / (4 * (2 + ell1))
        a0 = vec[0]
        if a0 != 0:
            return psi.on_basis(one, b) / (2 * a0)
        p = pivot_index(config, b.alpha)
        ap = vec[shape.slot(p)]
        aq = vec[shape.slot(p + shape.n)]
        if ap != aq:
            return psi.on_basis(probes[p], b) / (aq - ap)
        moved = BasisIndex(b.alpha.add(moves[p]), b.exps)
        return psi.on_basis(squares[p], moved) / (2 * (aq + 1))

    return LinearFunctional(config, rule=rule, tag="closed-form")


def trivialize(psi: Cocycle, probe: int | None = None) -> LinearFunctional:
    """Route to the applicable trivializer; pick a default probe if needed."""
    config = psi.config
    if closed_form_regime(config):
        return trivialize_closed_form(psi)
    probes = recursion_probes(config)
    if not probes:
        raise ConfigError("no trivializer route for this configuration")
    if probe is None:
        probe = probes[0]
    return trivialize_recursive(psi, probe)


def verify_trivialization(psi: Cocycle, f: LinearFunctional, pairs) -> CheckReport:
    """Exact comparison psi(u,v) vs f([u,v]) over the given basis pairs.

    For a coboundary psi = g([u,v]) the call keeps whether g(r) != f(r)
    per result index r, and a pair passes unsummed when no term differs.
    The first pair with a given index sum (α+β, i+j) is bracketed; at the
    second, g - f is checked once on `bracket_support` of the sum, and
    when it vanishes there every later pair with that sum passes without
    a bracket (both sides are the same sum of equal values).  Any other
    psi goes through `on_basis`, one bracket per pair.
    """
    config = psi.config
    g = psi.functional if isinstance(psi, CoboundaryCocycle) else None
    diff: dict[BasisIndex, bool] = {}
    # per index sum, keyed by its coordinates and exponents: None after
    # its first pair, then whether g - f vanishes on its bracket support
    clear: dict[tuple, bool | None] = {}

    def differs(r: BasisIndex) -> bool:
        if (d := diff.get(r)) is None:
            d = diff[r] = g.eval_basis(r) != f.eval_basis(r)
        return d

    failures = []
    checked = 0
    for iu, iv in pairs:
        checked += 1
        if g is not None:
            key = _sum_key(iu, iv)
            if key not in clear:
                clear[key] = None
            else:
                verdict = clear[key]
                if verdict is None:
                    support = bracket_support(
                        config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))
                    verdict = clear[key] = not any(map(differs, support))
                if verdict:
                    continue
        bracket = bracket_terms(config, iu, iv)
        if g is None:
            lhs = psi.on_basis(iu, iv)
        else:
            if not any(map(differs, bracket)):
                continue  # g and f agree on every term
            lhs = g.eval_terms(bracket)
        rhs = f.eval_terms(bracket)
        if lhs != rhs:
            failures.append((iu, iv, lhs, rhs))
    return CheckReport(checked, failures)
