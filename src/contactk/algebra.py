"""Sparse algebra elements, derivative operators, and the two bracket routes.

The bracket is implemented twice on purpose: `bracket_operator` composes
the defining differential operators literally and serves as the oracle,
while the closed route is one per-pair kernel, `bracket_terms`, which
expands the same bilinear form from precomputed per-index tables and
which `bracket_closed` and the window sweeps call.  They share only the
sparse accumulator (`linalg.add_into`, `add_term`), which has its own
unit tests, and the dropped-term convention, which both must apply
identically: a produced index with a negative exponent entry is dropped
(group parts always stay in the lattice because they are built from
lattice coordinates).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from operator import add, sub

from .indices import (
    AlgebraConfig, ConfigError, ExponentVector, GroupElement, _index_of_slot,
)
from .linalg import add_into, add_term, as_number, exact_rational


class LiteralError(ValueError):
    """Raised for malformed or out-of-lattice element literals."""


class BasisIndex:
    """One basis monomial: lattice element plus exponent vector."""

    __slots__ = ("alpha", "exps", "_hash", "_weight")

    def __init__(self, alpha: GroupElement, exps: ExponentVector):
        self.alpha = alpha
        self.exps = exps
        self._hash = None
        self._weight = None

    def __eq__(self, other):
        return (self.alpha.coords == other.alpha.coords
                and self.exps == other.exps)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.alpha.coords, self.exps))
        return self._hash

    def sort_key(self):
        return (self.alpha.vector, tuple(self.exps))

    def __repr__(self):
        return f"BasisIndex({self.alpha.coords}, {tuple(self.exps)})"


class AlgebraElement:
    """Finite rational combination of basis monomials, zero-free."""

    __slots__ = ("config", "terms")

    def __init__(self, config: AlgebraConfig, terms: dict[BasisIndex, Fraction]):
        self.config = config
        self.terms = terms

    @classmethod
    def zero(cls, config) -> "AlgebraElement":
        return cls(config, {})

    @classmethod
    def from_term(cls, config, index: BasisIndex, coeff=1) -> "AlgebraElement":
        return cls(config, {index: coeff} if coeff else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_config(self, other)
        return AlgebraElement(self.config, add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_config(self, other)
        return AlgebraElement(self.config, add_into(dict(self.terms), other.terms, -1))

    def __rmul__(self, scalar) -> "AlgebraElement":
        if not scalar:
            return AlgebraElement.zero(self.config)
        return AlgebraElement(self.config, {i: scalar * c for i, c in self.terms.items()})

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __repr__(self):
        return f"<{format_element(self)}>"


def _check_same_config(u: AlgebraElement, v: AlgebraElement):
    if u.config is not v.config:
        raise ConfigError("elements belong to different configurations")


class CheckReport:
    """Outcome of an exact check: how many cases ran and which ones failed."""

    __slots__ = ("checked", "failures")

    def __init__(self, checked: int, failures: list):
        self.checked = checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def basis_element(config: AlgebraConfig, coords, exps=None) -> AlgebraElement:
    """Convenience constructor from raw coordinates and exponent entries."""
    alpha = config.lattice.element(coords)
    vec = config.zero_exps if exps is None else ExponentVector.build(config, exps)
    return AlgebraElement.from_term(config, BasisIndex(alpha, vec))


def unit(config: AlgebraConfig) -> AlgebraElement:
    return basis_element(config, (0,) * len(config.lattice.generators))


def multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Commutative product: indices add in both components."""
    _check_same_config(u, v)
    terms: dict[BasisIndex, Fraction] = {}
    for iu, cu in u.terms.items():
        # adding iu is injective, so one row of products has no collisions
        row = {BasisIndex(iu.alpha.add(iv.alpha), iu.exps.add(iv.exps)): cv
               for iv, cv in v.terms.items()}
        add_into(terms, row, cu)
    return AlgebraElement(u.config, terms)


def scale_partial(p: int, u: AlgebraElement) -> AlgebraElement:
    """Diagonal part of the p-th derivative: scale by the p-th coordinate."""
    shape = u.config.shape
    if not 0 <= p <= 2 * shape.n:
        raise ConfigError(f"index {p} out of range")
    s = shape.slot(p)
    terms = {}
    for idx, c in u.terms.items():
        a = idx.alpha.vector[s]
        if a:
            terms[idx] = a * c
    return AlgebraElement(u.config, terms)


def lower_partial(p: int, u: AlgebraElement) -> AlgebraElement:
    """Lowering part of the p-th derivative: power rule on the p-th exponent."""
    shape = u.config.shape
    if not 0 <= p <= 2 * shape.n:
        raise ConfigError(f"index {p} out of range")
    s = shape.slot(p)
    terms: dict[BasisIndex, Fraction] = {}
    for idx, c in u.terms.items():
        e = idx.exps[s]
        if e:
            lowered = idx.exps.lowered(s)
            if lowered is None:
                continue  # dropped-term convention
            # lowering one slot is injective, so no two terms collide
            terms[BasisIndex(idx.alpha, lowered)] = e * c
    return AlgebraElement(u.config, terms)


def partial(p: int, u: AlgebraElement) -> AlgebraElement:
    """Full p-th derivative: diagonal plus lowering part."""
    return scale_partial(p, u) + lower_partial(p, u)


def grading(u: AlgebraElement) -> AlgebraElement:
    """The grading operator, composed literally from its summands."""
    config = u.config
    shape = config.shape
    terms: dict[BasisIndex, Fraction] = {}
    for s in config.weight_group_slots:
        add_into(terms, scale_partial(_index_of_slot(shape, s), u).terms)
    zero = config.lattice.zero
    for s in config.weight_exp_slots:
        p = _index_of_slot(shape, s)
        t_p = AlgebraElement.from_term(
            config, BasisIndex(zero, config.zero_exps.raised(s)))
        add_into(terms, multiply(t_p, lower_partial(p, u)).terms)
    return AlgebraElement(config, terms)


def weight(config: AlgebraConfig, index: BasisIndex):
    """Grading eigenvalue of a basis monomial, cached on the index."""
    w = index._weight
    if w is None:
        w = config.weight(index.alpha, index.exps)
        index._weight = w
    return w


def bracket_operator(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bracket via literal operator composition; the oracle route."""
    _check_same_config(u, v)
    config = u.config
    shape = config.shape
    terms: dict[BasisIndex, Fraction] = {}
    for p in shape.blocks(1, 6):
        pb = p + shape.n
        shift = AlgebraElement.from_term(
            config, BasisIndex(config.shift_coords[p], config.zero_exps))
        cross = (multiply(partial(p, u), partial(pb, v))
                 - multiply(partial(pb, u), partial(p, v)))
        add_into(terms, multiply(shift, cross).terms)
    two_minus_u = 2 * u - grading(u)
    two_minus_v = 2 * v - grading(v)
    add_into(terms, multiply(two_minus_u, partial(0, v)).terms)
    add_into(terms, multiply(partial(0, u), two_minus_v).terms, -1)
    return AlgebraElement(config, terms)


def bracket_terms(config: AlgebraConfig, iu: BasisIndex, iv: BasisIndex,
                  c=1, terms=None) -> dict:
    """In place, zero-free `terms += c * [iu, iv]` for two basis monomials by
    the per-pair expansion; returns `terms` (a new dict when None)."""
    terms = {} if terms is None else terms
    alpha, beta = iu.alpha, iv.alpha
    avec, ie = alpha.vector, iu.exps
    bvec, je = beta.vector, iv.exps
    # the sum's tuples; elements are built from them only for emitted terms
    coords = (*map(add, alpha.coords, beta.coords),)
    vector = (*map(add, avec, bvec),)
    exps_sum = ie.add(je)

    # dropped-term convention: a lowered vector of None (an entry below
    # zero) adds nothing
    for sp, sq, shift, fam_gg, fam_ge, fam_eg, fam_ee in config.pair_rows:
        k_gg = fam_gg and avec[sp] * bvec[sq] - avec[sq] * bvec[sp]
        k_ge = fam_ge and avec[sp] * je[sq] - ie[sq] * bvec[sp]
        k_eg = fam_eg and ie[sp] * bvec[sq] - je[sp] * avec[sq]
        k_ee = fam_ee and ie[sp] * je[sq] - ie[sq] * je[sp]
        if not (k_gg or k_ge or k_eg or k_ee):
            continue
        shifted = GroupElement((*map(add, coords, shift.coords),),
                               (*map(add, vector, shift.vector),))
        if k_gg:
            add_term(terms, BasisIndex(shifted, exps_sum), c * k_gg)
        if k_ge and (lowered := exps_sum.lowered(sq)) is not None:
            add_term(terms, BasisIndex(shifted, lowered), c * k_ge)
        if k_eg and (lowered := exps_sum.lowered(sp)) is not None:
            add_term(terms, BasisIndex(shifted, lowered), c * k_eg)
        if k_ee and (lowered := exps_sum.lowered(sp, sq)) is not None:
            add_term(terms, BasisIndex(shifted, lowered), c * k_ee)

    wu = 2 - weight(config, iu)
    wv = 2 - weight(config, iv)
    k = wu * bvec[0] - avec[0] * wv
    k0 = wu * je[0] - ie[0] * wv
    if k or k0:
        alpha_sum = GroupElement(coords, vector)
        if k:
            add_term(terms, BasisIndex(alpha_sum, exps_sum), c * k)
        if k0 and (lowered := exps_sum.lowered(0)) is not None:
            add_term(terms, BasisIndex(alpha_sum, lowered), c * k0)
    return terms


def bracket_support(config: AlgebraConfig, alpha_sum: GroupElement,
                    exps_sum: ExponentVector) -> list[BasisIndex]:
    """Every index a bracket [x^α t^i, x^β t^j] can have, from the sums
    alpha_sum = α+β and exps_sum = e = i+j alone (at most 4n+2 of them).

    Lemma: each index `bracket_terms` emits for such a pair is in this
    list, as the kernel's loop shows: per `config.pair_rows` row, the
    shifted sum with e, e−1_sq, e−1_sp or e−1_sp−1_sq for its active
    families, and then (alpha_sum, e) and (alpha_sum, e−1_0), a lowered
    vector of None dropped.  Only the coefficients depend on the pair.
    So a functional difference that vanishes on this list vanishes on
    the bracket of every pair with these sums."""
    out = []
    for sp, sq, shift, fam_gg, fam_ge, fam_eg, fam_ee in config.pair_rows:
        shifted = alpha_sum.add(shift)
        if fam_gg:
            out.append(BasisIndex(shifted, exps_sum))
        for on, slots in ((fam_ge, (sq,)), (fam_eg, (sp,)), (fam_ee, (sp, sq))):
            if on and (lowered := exps_sum.lowered(*slots)) is not None:
                out.append(BasisIndex(shifted, lowered))
    out.append(BasisIndex(alpha_sum, exps_sum))
    if (lowered := exps_sum.lowered(0)) is not None:
        out.append(BasisIndex(alpha_sum, lowered))
    return out


def sums_reaching(config: AlgebraConfig, index: BasisIndex) -> list[tuple]:
    """Keys `(*coords, *exps)` of every index sum whose `bracket_support`
    contains `index`: that lemma inverted family by family.  Per pair row
    the sum is alpha − shift with e, e+1_sq, e+1_sp or e+1_sp+1_sq for its
    active families; then alpha itself with e and e+1_0.  A key raised at
    a slot that holds no exponents belongs to no valid sum; it may stay,
    since the list need only hold every sum that reaches `index`."""
    coords, e = index.alpha.coords, index.exps
    out = [(*coords, *e), (*coords, *e.raised(0))]
    for sp, sq, shift, fam_gg, fam_ge, fam_eg, fam_ee in config.pair_rows:
        base = tuple(map(sub, coords, shift.coords))
        for on, exps in ((fam_gg, e), (fam_ge, e.raised(sq)),
                         (fam_eg, e.raised(sp)), (fam_ee, e.raised(sp).raised(sq))):
            if on:
                out.append((*base, *exps))
    return out


def bracket_closed(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bracket via the per-basis-pair expansion; the production route."""
    _check_same_config(u, v)
    config = u.config
    terms: dict[BasisIndex, Fraction] = {}
    for iu, cu in u.terms.items():
        for iv, cv in v.terms.items():
            bracket_terms(config, iu, iv, cu * cv, terms)
    return AlgebraElement(config, terms)


# -- literals ---------------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*"
    r"x\[(?P<alpha>[^\]]*)\]\s*"
    r"(?:t\[(?P<exps>[^\]]*)\])?\s*$")

_BASIS_RE = re.compile(
    r"^\s*(?:1\s*\*\s*)?x\[(?P<alpha>[^\]]*)\]\s*(?:t\[(?P<exps>[^\]]*)\])?\s*$")


def parse_rational(text: str, what: str) -> Fraction:
    """`linalg.exact_rational`, or LiteralError naming `what` if malformed."""
    try:
        return exact_rational(text)
    except ValueError:
        raise LiteralError(f"bad rational in {what}") from None


def _parse_entries(config, text, what):
    parts = [x.strip() for x in text.split(",")] if text.strip() else []
    if len(parts) != config.shape.dim:
        raise LiteralError(
            f"{what} needs {config.shape.dim} comma-separated entries")
    return [parse_rational(x, what) for x in parts]


def _parse_index_body(config, alpha_text, exps_text) -> BasisIndex:
    vec = _parse_entries(config, alpha_text, "x[...]")
    coords = config.lattice.membership(vec)
    if coords is None:
        raise LiteralError("x[...] coordinates are outside the lattice")
    if exps_text is None:
        exps = config.zero_exps
    else:
        entries = _parse_entries(config, exps_text, "t[...]")
        for e in entries:
            if e.denominator != 1 or e < 0:
                raise LiteralError("t[...] entries must be nonnegative integers")
        try:
            exps = ExponentVector.build(config, [int(e) for e in entries])
        except ConfigError as err:
            raise LiteralError(str(err)) from None
    return BasisIndex(config.lattice.element(coords), exps)


def parse_element(config: AlgebraConfig, text: str) -> AlgebraElement:
    """Parse a '+'-separated element literal; "0" is the zero element."""
    if text.strip() == "0":
        return AlgebraElement.zero(config)
    terms: dict[BasisIndex, Fraction] = {}
    for clause in text.split("+"):
        m = _TERM_RE.match(clause)
        if not m:
            raise LiteralError(f"cannot parse term {clause.strip()!r}")
        coeff = as_number(parse_rational(m.group("coeff"), f"term {clause.strip()!r}"))
        idx = _parse_index_body(config, m.group("alpha"), m.group("exps"))
        add_term(terms, idx, coeff)
    return AlgebraElement(config, terms)


def parse_basis_index(config: AlgebraConfig, text: str) -> BasisIndex:
    """Parse a single basis monomial (optional leading "1*")."""
    m = _BASIS_RE.match(text)
    if not m:
        raise LiteralError(f"cannot parse basis literal {text!r}")
    return _parse_index_body(config, m.group("alpha"), m.group("exps"))


def format_basis_index(index: BasisIndex) -> str:
    body = "x[" + ",".join(map(str, index.alpha.vector)) + "]"
    if any(index.exps):
        body += "t[" + ",".join(str(e) for e in index.exps) + "]"
    return body


def format_element(u: AlgebraElement) -> str:
    if u.is_zero():
        return "0"
    pieces = []
    for idx in sorted(u.terms, key=BasisIndex.sort_key):
        pieces.append(f"{u.terms[idx]}*{format_basis_index(idx)}")
    return " + ".join(pieces)


# -- windows and sampling ---------------------------------------------

WINDOW_CAP = 500_000
PAIR_CAP = 1_000_000


def window_size(config: AlgebraConfig, radius: int) -> int:
    """Cardinality of the radius window without materializing it."""
    if radius < 0:
        raise ConfigError("radius must be nonnegative")
    ngens = len(config.lattice.generators)
    return (2 * radius + 1) ** ngens * (radius + 1) ** len(config.exp_slots)


def check_pair_cap(config: AlgebraConfig, radius: int, ordered: bool):
    """ConfigError when a sweep over the window's ordered pairs, or over its
    pairs (u, v) with u not after v, would bracket more than `PAIR_CAP`."""
    size = window_size(config, radius)
    count = size * size if ordered else size * (size + 1) // 2
    if count > PAIR_CAP:
        raise ConfigError(f"window of radius {radius} gives {count} bracket "
                          f"pairs; the cap is {PAIR_CAP}")


def _capped_window_size(config: AlgebraConfig, radius: int) -> int:
    """`window_size`, or ConfigError when it passes `WINDOW_CAP`."""
    size = window_size(config, radius)
    if size > WINDOW_CAP:
        raise ConfigError(
            f"window of radius {radius} holds {size} indices; "
            f"the cap is {WINDOW_CAP}")
    return size


def check_decompose_cap(config: AlgebraConfig, radius: int, inner_radius: int):
    """ConfigError when either window passes `WINDOW_CAP`, or when the
    window times the inner support passes `PAIR_CAP`: factorization can
    evaluate every inner column on every window index."""
    count = (_capped_window_size(config, radius)
             * _capped_window_size(config, inner_radius))
    if count > PAIR_CAP:
        raise ConfigError(
            f"windows of radius {radius} and inner radius {inner_radius} give "
            f"{count} (window index, inner column) pairs; the cap is {PAIR_CAP}")


def window_indices(config: AlgebraConfig, radius: int) -> list[BasisIndex]:
    """All basis indices with generator coordinates in [-radius, radius]
    and exponent entries in [0, radius], in a fixed deterministic order."""
    _capped_window_size(config, radius)
    ngens = len(config.lattice.generators)
    slots = sorted(config.exp_slots)
    out = []
    for coords in product(range(-radius, radius + 1), repeat=ngens):
        alpha = config.lattice.element(coords)
        for exp_choice in product(range(0, radius + 1), repeat=len(slots)):
            entries = [0] * config.shape.dim
            for s, e in zip(slots, exp_choice):
                entries[s] = e
            out.append(BasisIndex(alpha, ExponentVector(entries)))
    return out


COORD_BOUND = 3
EXP_BOUND = 4


def sample_index(config: AlgebraConfig, rng) -> BasisIndex:
    """Draw one basis index from the standard sampling box."""
    ngens = len(config.lattice.generators)
    coords = tuple(rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(ngens))
    entries = [0] * config.shape.dim
    for s in sorted(config.exp_slots):
        entries[s] = rng.randint(0, EXP_BOUND)
    return BasisIndex(config.lattice.element(coords), ExponentVector(entries))


def sample_element(config: AlgebraConfig, rng, max_terms: int = 3) -> AlgebraElement:
    """Draw a small element with nonzero rational coefficients."""
    terms: dict[BasisIndex, Fraction] = {}
    for _ in range(rng.randint(1, max_terms)):
        coeff = 0
        while not coeff:
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        add_term(terms, sample_index(config, rng), coeff)
    return AlgebraElement(config, terms)


# -- structure table --------------------------------------------------

def structure_rows(config: AlgebraConfig, radius: int) -> list[tuple[str, str, str, str]]:
    """CSV rows for all ordered bracket pairs in the window, sorted for diffing.

    The kernel is skew term by term ([v,u] has the keys of [u,v] with
    every coefficient negated, and [u,u] is empty), so each unordered
    pair is bracketed once and gives the rows of both orders."""
    check_pair_cap(config, radius, ordered=True)
    window = window_indices(config, radius)
    labels = {i: format_basis_index(i) for i in window}
    rows = []
    for n, iu in enumerate(window):
        lu = labels[iu]
        rows.append((lu, lu, "0", "0"))
        for iv in window[n + 1:]:
            lv = labels[iv]
            result = bracket_terms(config, iu, iv)
            if not result:
                rows += ((lu, lv, "0", "0"), (lv, lu, "0", "0"))
            for ir, c in result.items():
                if (lr := labels.get(ir)) is None:
                    lr = labels[ir] = format_basis_index(ir)
                rows += ((lu, lv, lr, str(c)), (lv, lu, lr, str(-c)))
    rows.sort()
    return rows
