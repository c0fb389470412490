"""Skew 2-forms on the bracket, their axioms, and constructive trivialization.

A cocycle here is a bilinear skew form evaluated on basis pairs.  The
trivializers build a linear functional f with psi(u,v) = f([u,v]) two
ways: a recursion driven by a probe element (available whenever some
slot carries exponents), which fills f's table, and a four-case closed
form for the remaining pure-group regime, where only the first block is
nonempty.  Divisions are exact; the case guards are the case split.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .indices import AlgebraConfig, ConfigError, ExponentVector
from .algebra import (
    COORD_BOUND, BasisIndex, CheckReport, bracket_support, bracket_terms,
    format_basis_index, probe_index, recursion_probes, sums_reaching,
)

# one shared zero for every zero value; it is a Fraction, not int 0, so
# the trivializer rules' divisions stay exact
_ZERO = Fraction(0)


class Cocycle:
    """Bilinear skew form, given by its values on basis pairs."""

    __slots__ = ("config",)

    def __init__(self, config: AlgebraConfig):
        self.config = config

    def on_basis(self, iu: BasisIndex, iv: BasisIndex) -> Fraction:
        raise NotImplementedError


class LinearFunctional:
    """Finite table plus an optional rule for off-table indices; a
    recursive trivializer's rule adds what it works out to the table."""

    __slots__ = ("config", "table", "rule", "tag")

    def __init__(self, config: AlgebraConfig, table=None, rule=None, tag="table"):
        self.config = config
        self.table = dict(table or {})
        self.rule = rule
        self.tag = tag

    def eval_basis(self, index: BasisIndex) -> Fraction:
        # one lookup: table values are never None
        value = self.table.get(index)
        if value is not None:
            return value
        return _ZERO if self.rule is None else self.rule(index)

    def eval_terms(self, terms: dict) -> Fraction:
        total = _ZERO
        for idx, c in terms.items():
            val = self.eval_basis(idx)
            if val:
                total += c * val
        return total


def _sum_key(iu: BasisIndex, iv: BasisIndex) -> tuple:
    """Key of a pair's index sum, as `sums_reaching` lists it."""
    return (*map(add, iu.alpha.coords + iu.exps, iv.alpha.coords + iv.exps),)


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
        if iu.sort_key() <= iv.sort_key():
            return self.entries.get((iu, iv), _ZERO)
        return -self.entries.get((iv, iu), _ZERO)


def check_cocycle(psi: Cocycle, triples) -> tuple[CheckReport, CheckReport]:
    """Exact cocycle axioms: skew-symmetry on the distinct ordered pairs of
    the triples, in first-seen order, and the three-term sum
    psi([u,v],w) + psi([v,w],u) + psi([w,u],v) on each triple, each term
    summed over the kernel's bracket through `psi.on_basis`.  Skew
    failures are (a, b); sum failures are (iu, iv, iw, total)."""
    config = psi.config
    triples = list(triples)
    pairs = dict.fromkeys(
        pair for iu, iv, iw in triples for pair in ((iu, iv), (iv, iw), (iu, iw)))
    skew_failures = [
        (a, b) for a, b in pairs
        if psi.on_basis(a, a) != 0 or psi.on_basis(a, b) + psi.on_basis(b, a) != 0]
    sum_failures = []
    for iu, iv, iw in triples:
        total = _ZERO
        for a, b, c in ((iu, iv, iw), (iv, iw, iu), (iw, iu, iv)):
            for r, k in bracket_terms(config, a, b).items():
                total += k * psi.on_basis(r, c)
        if total != 0:
            sum_failures.append((iu, iv, iw, total))
    return CheckReport(len(pairs), skew_failures), CheckReport(len(triples), sum_failures)


def pair_reaching(config: AlgebraConfig, index: BasisIndex, rng) -> tuple:
    """A seeded pair (u, v) whose index sum is a key drawn from
    `sums_reaching(config, index)`, so that [u, v] can have a term at
    `index`.  u has coordinates in the sampling box and exponents at most
    the sum's; v is the sum less u."""
    ngens = len(config.lattice.generators)
    key = rng.choice(sums_reaching(config, index))
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
    """True for the pure-group regime: no slot carries exponents (so the
    exponent semigroup is trivial), which leaves only the first block."""
    return not config.exp_slots


def probe_recurrence(config: AlgebraConfig, p: int) -> tuple:
    """`(w, d, kappa, up)` for the probe monomial w = `probe_index(config,
    p)`: every basis monomial b, with vector a and exponents i, satisfies

        [w, b] = d(a, i) b + sum over (s, k) in kappa of k i[s] (b lowered at s),

    and d(a, i raised at up) = d(a, i).  For the unit (p = 0), d = 2 a[0],
    kappa = {0: 2} and up = 0.  Otherwise, with sp = slot(p) and sq =
    slot(p bar): kappa holds -1 at sp and +1 at sq, each where that slot
    holds both a lattice coordinate and exponents; up is kappa's last
    slot; and d = a[sq] - a[sp] where sq is a lattice slot, else
    i[sq] - a[sp].
    """
    w = probe_index(config, p)
    if p == 0:
        return w, lambda a, i: 2 * a[0], ((0, 2),), 0
    shape = config.shape
    sp, sq = shape.pair_slots(p)
    both = shape.group_slots & shape.exponent_slots
    kappa = tuple((s, k) for s, k in ((sp, -1), (sq, 1)) if s in both)
    up = kappa[-1][0]
    if sq in shape.group_slots:
        return w, lambda a, i: a[sq] - a[sp], kappa, up
    return w, lambda a, i: i[sq] - a[sp], kappa, up


def trivialize_recursive(psi: Cocycle, probe: int) -> LinearFunctional:
    """Build f with psi = psi_f by downward recursion on one exponent.

    psi(w, b) = f([w, b]) and the probe's `probe_recurrence` give f(b)
    from f at b lowered at kappa's slots, over d.  Where d is zero the
    identity at b raised at `up`, where d is zero too, gives f(b) from
    its `up` term instead.  So f is solved one exponent at a time;
    `_bottom_up` runs each chain without Python recursion.  It reads psi
    on single basis pairs, through `psi.on_basis`.  Every route is
    confirmed by the round-trip verifier.
    """
    config = psi.config
    shape = config.shape
    if closed_form_regime(config):
        raise ConfigError("recursive trivializer needs exponents or a later block")
    if probe not in recursion_probes(config):
        raise ConfigError(f"invalid probe index {shape.index_token(probe)} "
                          "for this configuration")
    w, d, kappa, up = probe_recurrence(config, probe)
    k_up = dict(kappa)[up]
    rest = tuple((s, k) for s, k in kappa if s != up)

    def step(b: BasisIndex):
        alpha, exps = b.alpha, b.exps
        scale = d(alpha.vector, exps)
        lowers = kappa
        if not scale:
            scale = k_up * (exps[up] + 1)
            lowers = rest
            exps = exps.raised(up)
            b = BasisIndex(alpha, exps)
        val = psi.on_basis(w, b)
        for s, k in lowers:
            if exps[s]:
                lowered = yield BasisIndex(alpha, exps.lowered(s))
                if lowered:
                    val -= k * exps[s] * lowered
        # nearly every value is zero: keep those off Fraction arithmetic
        return val / scale if val else _ZERO

    f = LinearFunctional(config, tag=f"probe {shape.index_token(probe)}")
    f.rule = _bottom_up(f, step)
    return f


def _bottom_up(f: LinearFunctional, step):
    """Rule for f from `step(b)`, a generator that yields each index whose
    value it needs, is sent that value, and returns f(b).  A value f does
    not know yet is worked out first, on an explicit stack rather than by
    recursion, so a chain of lowered exponents evaluates bottom up.  Each
    value worked out goes into `f.table`, where `eval_basis` finds it and
    no other functional sees it; an entry set by hand is read the same
    way."""
    table = f.table

    def rule(b: BasisIndex) -> Fraction:
        value = None
        stack = [(b, step(b))]
        while stack:
            index, gen = stack[-1]
            try:
                need = gen.send(value)
            except StopIteration as done:
                value = table[index] = done.value
                stack.pop()
                continue
            value = table.get(need)
            if value is None:
                stack.append((need, step(need)))
        return value

    return rule


def trivialize_closed_form(psi: Cocycle) -> LinearFunctional:
    """Four-case closed form for the pure-group single-block regime; it
    reads psi on single basis pairs, through `psi.on_basis`."""
    config = psi.config
    shape = config.shape
    if not closed_form_regime(config):
        raise ConfigError("closed-form trivializer needs the pure-group regime")
    # zero-slot exponents are off, so `AlgebraConfig` made sure that the
    # lattice covers slot 0 and holds its unit vector
    lattice = config.lattice

    def group_index(coords) -> BasisIndex:
        return BasisIndex(lattice.element(coords), config.zero_exps)

    # one walk over block 1: the all-minus-one reference vector (the sum of
    # the shifts) and per index p a pivot candidate: the slots of p and its
    # mirror, the probe at the negated shift of p, the square at twice the
    # unit vector at p, and the move by p's mirror unit vector less p's
    ref = lattice.zero
    pivots = []
    for p in shape.blocks(1, 1):
        ref = ref.add(config.shift_coords[p])
        at_p, at_mirror = lattice.unit_coords(p), lattice.unit_coords(p + shape.n)
        pivots.append((shape.slot(p), shape.slot(p + shape.n), probe_index(config, p),
                       group_index(tuple(2 * c for c in at_p)),
                       lattice.element(map(sub, at_mirror, at_p))))
    unit0 = lattice.unit_coords(0)
    one = probe_index(config, 0)
    neg_two0 = group_index(tuple(-2 * c for c in unit0))
    top = group_index(tuple(2 * a + b for a, b in zip(unit0, ref.coords)))

    def rule(b: BasisIndex) -> Fraction:
        vec = b.alpha.vector
        if b.alpha.coords == ref.coords:
            return psi.on_basis(neg_two0, top) / (4 * (2 + shape.n))
        a0 = vec[0]
        if a0 != 0:
            return psi.on_basis(one, b) / (2 * a0)
        # the pivot is the first pair off the reference's (-1, -1); the
        # lattice is free, so only the reference vector has none
        for sp, sq, probe, square, move in pivots:
            ap, aq = vec[sp], vec[sq]
            if ap != -1 or aq != -1:
                break
        if ap != aq:
            return psi.on_basis(probe, b) / (aq - ap)
        moved = BasisIndex(b.alpha.add(move), b.exps)
        return psi.on_basis(square, moved) / (2 * (aq + 1))

    return LinearFunctional(config, rule=rule, tag="closed-form")


def trivialize(psi: Cocycle, probe: int | None = None) -> LinearFunctional:
    """Recurse on the given probe; without one, route automatically."""
    config = psi.config
    if probe is None:
        if closed_form_regime(config):
            return trivialize_closed_form(psi)
        probes = recursion_probes(config)
        if not probes:
            raise ConfigError("no trivializer route for this configuration")
        probe = probes[0]
    return trivialize_recursive(psi, probe)


def verify_trivialization(psi: Cocycle, f: LinearFunctional, pairs) -> CheckReport:
    """Exact comparison psi(u,v) vs f([u,v]) over the given basis pairs.

    For a coboundary psi = g([u,v]) the call keeps whether g(r) != f(r)
    per result index r, and a bracketed pair passes unsummed when no term
    differs.  The first pair with a given index sum (α+β, i+j) is held
    back.  At the second, g - f is checked once on `bracket_support` of
    the sum: when it vanishes there, every pair with that sum passes
    without a bracket (both sides are the same sum of equal values);
    otherwise each of them is bracketed, the held one included.  Pairs
    whose sum occurs only once are bracketed after the sweep, and the
    failures are put back in pair order.  `pairs` is read once, and the
    state kept grows with the distinct sums, not with the pairs.  Any
    other psi goes through `on_basis`, one bracket per pair.
    """
    config = psi.config
    if not isinstance(psi, CoboundaryCocycle):
        failures = []
        checked = 0
        for iu, iv in pairs:
            checked += 1
            lhs = psi.on_basis(iu, iv)
            rhs = f.eval_terms(bracket_terms(config, iu, iv))
            if lhs != rhs:
                failures.append((iu, iv, lhs, rhs))
        return CheckReport(checked, failures)

    g = psi.functional
    diff: dict[BasisIndex, bool] = {}

    def differs(r: BasisIndex) -> bool:
        if (d := diff.get(r)) is None:
            d = diff[r] = g.eval_basis(r) != f.eval_basis(r)
        return d

    failed: dict[int, tuple] = {}  # by pair position

    def bracket(n: int, iu: BasisIndex, iv: BasisIndex) -> None:
        terms = bracket_terms(config, iu, iv)
        if any(map(differs, terms)):
            lhs, rhs = g.eval_terms(terms), f.eval_terms(terms)
            if lhs != rhs:
                failed[n] = (iu, iv, lhs, rhs)

    # per index sum, keyed by its coordinates and exponents: its only pair
    # so far, with its position, or whether g - f vanishes on its support
    held: dict[tuple, tuple] = {}
    clear: dict[tuple, bool] = {}
    checked = 0
    for iu, iv in pairs:
        n = checked
        checked += 1
        key = _sum_key(iu, iv)
        verdict = clear.get(key)
        if verdict is None:
            first = held.pop(key, None)
            if first is None:
                held[key] = (n, iu, iv)
                continue
            support = bracket_support(config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))
            verdict = clear[key] = not any(map(differs, support))
            if not verdict:
                bracket(*first)
        if not verdict:
            bracket(n, iu, iv)
    for first in held.values():
        bracket(*first)
    return CheckReport(checked, [failed[n] for n in sorted(failed)])
