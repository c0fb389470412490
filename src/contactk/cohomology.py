"""Skew 2-forms on the bracket, their axioms, and constructive trivialization.

A cocycle here is a bilinear skew form evaluated on basis pairs by
`on_basis`, a `Form`: a `CoboundaryCocycle` or a `TableCocycle`.
`trivialize` builds a linear functional f with psi(u,v) = f([u,v]) by
one of two routes: a recursion driven by a probe element (available
whenever some slot carries exponents), which fills f's table, and a
four-case closed form for the remaining pure-group regime, where only
the first block is nonempty.  Divisions are exact; the case guards are the case split.
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


class CoboundaryCocycle:
    """psi_f(u,v) = f([u,v]); satisfies the cocycle axioms identically.

    For a functional without a rule, the sums whose bracket can reach a
    nonzero table entry (`sums_reaching`) are read from the table when
    the coboundary is built, and a pair with any other sum is zero
    without a bracket; a later change to the table is not seen."""

    __slots__ = ("config", "functional", "_reach")

    def __init__(self, functional: LinearFunctional):
        self.config = functional.config
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


def add_skew_entry(canonical: dict, iu: BasisIndex, iv: BasisIndex, value) -> None:
    """Record psi(iu, iv) = value in `canonical` under the pair's sorted
    orientation, negated if flipped; a zero diagonal is skipped, and a
    nonzero one or a value the recorded one contradicts is refused."""
    if iu == iv:
        if value:
            raise ConfigError("diagonal cocycle entries must be zero")
        return
    if iu.sort_key() <= iv.sort_key():
        key, val = (iu, iv), value
    else:
        key, val = (iv, iu), -value
    if canonical.setdefault(key, val) != val:
        raise ConfigError("inconsistent values for the pair "
                          f"({format_basis_index(key[0])}, {format_basis_index(key[1])})")


class TableCocycle:
    """Finite skew table, skew by representation: diagonal pairs are zero
    and each pair is stored in one orientation (`add_skew_entry`)."""

    __slots__ = ("config", "entries")

    def __init__(self, config: AlgebraConfig, entries):
        self.config = config
        canonical: dict[tuple, Fraction] = {}
        for (iu, iv), value in entries.items():
            add_skew_entry(canonical, iu, iv, Fraction(value))
        self.entries = {k: v for k, v in canonical.items() if v}

    def on_basis(self, iu, iv):
        if iu.sort_key() <= iv.sort_key():
            return self.entries.get((iu, iv), _ZERO)
        return -self.entries.get((iv, iu), _ZERO)


Form = CoboundaryCocycle | TableCocycle


def check_cocycle(psi: Form, triples) -> CheckReport:
    """Exact cocycle identity on each triple: the three-term sum
    psi([u,v],w) + psi([v,w],u) + psi([w,u],v), each term summed over the
    kernel's bracket through `psi.on_basis`.  Skew-symmetry is not checked:
    both forms hold it by construction.  Failures are (iu, iv, iw, total)."""
    config = psi.config
    failures = []
    checked = 0
    for checked, (iu, iv, iw) in enumerate(triples, 1):
        total = _ZERO
        for a, b, c in ((iu, iv, iw), (iv, iw, iu), (iw, iu, iv)):
            for r, k in bracket_terms(config, a, b).items():
                total += k * psi.on_basis(r, c)
        if total != 0:
            failures.append((iu, iv, iw, total))
    return CheckReport(checked, failures)


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
    kappa = tuple((s, k) for s, k in ((sp, -1), (sq, 1)) if s in shape.both_slots)
    up = kappa[-1][0]
    if sq in shape.group_slots:
        return w, lambda a, i: a[sq] - a[sp], kappa, up
    return w, lambda a, i: i[sq] - a[sp], kappa, up


def _trivialize_recursive(psi: Form, probe: int) -> LinearFunctional:
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

    f = LinearFunctional(config, tag=f"probe {config.shape.index_token(probe)}")
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


def _trivialize_closed_form(psi: Form) -> LinearFunctional:
    """Four-case closed form for the pure-group single-block regime; it
    reads psi on single basis pairs, through `psi.on_basis`."""
    config = psi.config
    shape = config.shape
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


def trivialize(psi: Form, probe: int | None = None) -> LinearFunctional:
    """f with psi = psi_f: the recursion on the given probe; without one,
    the closed form in its regime, else the recursion on the first probe.
    Every route check is made here."""
    config = psi.config
    probes = recursion_probes(config)
    if probe is None:
        if closed_form_regime(config):
            return _trivialize_closed_form(psi)
        if not probes:
            raise ConfigError("no trivializer route for this configuration")
        probe = probes[0]
    elif closed_form_regime(config):
        raise ConfigError("recursive trivializer needs exponents or a later block")
    elif probe not in probes:
        raise ConfigError(f"invalid probe index {config.shape.index_token(probe)} "
                          "for this configuration")
    return _trivialize_recursive(psi, probe)


def verify_trivialization(psi: Form, f: LinearFunctional, pairs) -> CheckReport:
    """Exact comparison psi(u,v) vs f([u,v]) over the given basis pairs.

    For a coboundary psi = g([u,v]), g - f is checked once per index sum
    (α+β, i+j), at its first pair, on its `bracket_support`: where it
    vanishes, every pair of the sum passes unbracketed (both sides are the
    same sum of equal values).  Every other pair is bracketed once.  `pairs`
    is read once, and the state grows with the distinct sums, not the pairs.
    """
    config = psi.config
    g = psi.functional if isinstance(psi, CoboundaryCocycle) else None
    diff: dict[BasisIndex, bool] = {}
    clear: dict[tuple, bool] = {}  # per index sum: does g - f vanish on its support

    def differs(r: BasisIndex) -> bool:
        if (d := diff.get(r)) is None:
            d = diff[r] = g.eval_basis(r) != f.eval_basis(r)
        return d

    failures = []
    checked = 0
    for checked, (iu, iv) in enumerate(pairs, 1):
        if g is not None:
            key = _sum_key(iu, iv)
            if (verdict := clear.get(key)) is None:
                support = bracket_support(config, iu.alpha.add(iv.alpha), iu.exps.add(iv.exps))
                verdict = clear[key] = not any(map(differs, support))
            if verdict:
                continue
        terms = bracket_terms(config, iu, iv)
        lhs = psi.on_basis(iu, iv) if g is None else g.eval_terms(terms)
        rhs = f.eval_terms(terms)
        if lhs != rhs:
            failures.append((iu, iv, lhs, rhs))
    return CheckReport(checked, failures)
