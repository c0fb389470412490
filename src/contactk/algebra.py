"""Sparse algebra elements, derivative operators, and the two bracket routes.

The bracket is implemented twice on purpose: `bracket_operator` composes
the defining differential operators literally, each one pass over a term
dict (`_partial_terms`, `_product_into`, `_grading_terms`, which also back
`partial`, `multiply` and `grading`), and serves as the oracle,
while the closed route is one per-pair kernel, `bracket_terms`, which
runs the same bilinear form compiled per config from its tables and
which `bracket_closed` and the window sweeps call.  They share only the
sparse accumulator (`linalg.add_into`, `add_term`), which has its own
unit tests.  Neither route ever makes an index with a negative exponent
entry: each term that lowers an exponent has a coefficient that is zero
unless the entry it lowers is positive (group parts always stay in the
lattice because they are built from lattice coordinates).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product
from operator import add, sub
from typing import NamedTuple

from .indices import (
    AlgebraConfig, ConfigError, ExponentVector, GroupElement,
)
from .linalg import add_into, add_term, as_number, exact_rational


class LiteralError(ValueError):
    """Raised for malformed or out-of-lattice element literals."""


class BasisIndex:
    """One basis monomial: lattice element plus exponent vector."""

    __slots__ = ("alpha", "exps", "_hash")

    def __init__(self, alpha: GroupElement, exps: ExponentVector):
        self.alpha = alpha
        self.exps = exps
        self._hash = hash((alpha.coords, exps))

    def __eq__(self, other):
        return (self.alpha.coords == other.alpha.coords
                and self.exps == other.exps)

    def __hash__(self):
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


class CheckReport(NamedTuple):
    """Outcome of an exact check, which stops at its first failure: the
    count of cases run, that one included, and a list of that failure."""

    checked: int
    failures: list

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


def probe_index(config: AlgebraConfig, p: int) -> BasisIndex:
    """The probe monomial of index p: x at the negated shift of p (the
    unit for p = 0, whose shift is zero), raised at each slot of p's pair
    that holds exponents only."""
    shape = config.shape
    exps = config.zero_exps
    if p:
        only_exps = shape.exponent_slots - shape.group_slots
        exps = exps.raised(*only_exps.intersection(shape.pair_slots(p)))
    return BasisIndex(config.shift_coords[p].neg(), exps)


def recursion_probes(config: AlgebraConfig) -> list[int]:
    """Probe indices accepted by the recursive trivializer, in preference
    order: each unbarred index whose pair has a slot holding both a
    lattice coordinate and exponents, then 0 for the unit route.  Their
    monomials are the triangular probe family."""
    shape = config.shape
    out = [p for p in shape.blocks(1, 6) if shape.both_slots.intersection(shape.pair_slots(p))]
    if config.j0_naturals:
        out.append(0)
    return out


def multiply(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Commutative product: indices add in both components."""
    _check_same_config(u, v)
    return AlgebraElement(u.config, _product_into({}, u.terms, v.terms))


def _product_into(out: dict, a: dict, b: dict, scale=1) -> dict:
    """In place, zero-free `out += scale * a·b` for two term dicts;
    returns `out`."""
    for ia, ca in a.items():
        coords, vector, exps = ia.alpha.coords, ia.alpha.vector, ia.exps
        ca *= scale
        for ib, cb in b.items():
            beta = ib.alpha
            add_term(out, BasisIndex(GroupElement((*map(add, coords, beta.coords),),
                                                  (*map(add, vector, beta.vector),)),
                                     ExponentVector(map(add, exps, ib.exps))), ca * cb)
    return out


def _slot_of(config: AlgebraConfig, p: int) -> int:
    """Slot of index p, or ConfigError when p is not an index."""
    shape = config.shape
    if not 0 <= p <= 2 * shape.n:
        raise ConfigError(f"index {p} out of range")
    return shape.slot(p)


def lower_partial(p: int, u: AlgebraElement) -> AlgebraElement:
    """Lowering part of the p-th derivative: power rule on the p-th exponent."""
    s = _slot_of(u.config, p)
    # lowering one slot is injective, so no two terms collide
    return AlgebraElement(u.config, {BasisIndex(idx.alpha, idx.exps.lowered(s)): e * c
                                     for idx, c in u.terms.items() if (e := idx.exps[s])})


def _partial_terms(s: int, terms: dict) -> dict:
    """Zero-free terms of the derivative at slot s, in one pass: each
    monomial scaled by its s-th vector entry (the diagonal part) plus
    its s-th exponent times it lowered at s (the power rule)."""
    out = {}
    for idx, c in terms.items():
        if a := idx.alpha.vector[s]:
            add_term(out, idx, a * c)
        if e := idx.exps[s]:
            add_term(out, BasisIndex(idx.alpha, idx.exps.lowered(s)), e * c)
    return out


def partial(p: int, u: AlgebraElement) -> AlgebraElement:
    """Full p-th derivative: diagonal plus lowering part."""
    return AlgebraElement(u.config, _partial_terms(_slot_of(u.config, p), u.terms))


def _grading_terms(config: AlgebraConfig, terms: dict) -> dict:
    """Zero-free terms of the grading, the sum of its summands in one
    pass: the diagonal derivative at each weight group slot scales a
    monomial by its vector entry there, and t_s times the power rule at
    each weight exponent slot s by its exponent there."""
    group, exps_only = config.weight_group_slots, config.weight_exp_slots
    out = {}
    for idx, c in terms.items():
        vec, exps = idx.alpha.vector, idx.exps
        if k := sum([vec[s] for s in group]) + sum([exps[s] for s in exps_only]):
            out[idx] = k * c
    return out


def grading(u: AlgebraElement) -> AlgebraElement:
    """The grading operator, summed from its summands."""
    return AlgebraElement(u.config, _grading_terms(u.config, u.terms))


def weight(config: AlgebraConfig, index: BasisIndex):
    """Grading eigenvalue of a basis monomial, additive in its vector and
    exponents."""
    vec, exps = index.alpha.vector, index.exps
    return (sum(vec[s] for s in config.weight_group_slots)
            + sum(exps[s] for s in config.weight_exp_slots))


def bracket_operator(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Bracket via literal operator composition; the oracle route.  On
    term dicts: the sum over unbarred p of shift_p·(∂p u·∂p̄ v − ∂p̄ u·∂p v),
    plus (2u − Eu)·∂0 v − ∂0 u·(2v − Ev)."""
    _check_same_config(u, v)
    config = u.config
    shape = config.shape
    a, b = u.terms, v.terms
    terms: dict[BasisIndex, Fraction] = {}
    for p in shape.blocks(1, 6):
        sp, sq = shape.pair_slots(p)
        cross = _product_into({}, _partial_terms(sp, a), _partial_terms(sq, b))
        _product_into(cross, _partial_terms(sq, a), _partial_terms(sp, b), -1)
        _product_into(terms, {BasisIndex(config.shift_coords[p], config.zero_exps): 1}, cross)
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        if d0 := _partial_terms(0, y):
            two_minus = add_into({i: 2 * c for i, c in x.items()}, _grading_terms(config, x), -1)
            _product_into(terms, two_minus, d0, sign)
    return AlgebraElement(config, terms)


def _offset_source(name: str, offsets) -> str:
    """Source of the tuple `name` plus the integer `offsets`: the name
    itself when every offset is 0, else entry by entry."""
    if not any(offsets):
        return name
    out = ""
    for s, x in enumerate(offsets):
        out += f"{name}[{s}]" + (f" - {-x}" if x < 0 else f" + {x}" if x else "") + ", "
    return f"({out})"


def _coefficient(p, q, slots) -> str:
    """Source of a term's coefficient u[p] * v[q] - u[q] * v[p] at the slots
    p, q of its pair: u reads `ie` at the slots the term lowers and `a` at
    the others, and v reads `je` and `b`.  The unshifted entries' pair is
    ("w", 0), whose `w` reads the weights `wu` and `wv`."""
    u = {s: f"ie[{s}]" if s in slots else f"a[{s}]" for s in (p, q)} | {"w": "wu"}
    v = {s: f"je[{s}]" if s in slots else f"b[{s}]" for s in (p, q)} | {"w": "wv"}
    return f"{u[p]} * {v[q]} - {u[q]} * {v[p]}"


def build_kernel(config: AlgebraConfig):
    """`kernel(iu, iv, c=1, terms=None)` for `bracket_terms`, compiled from
    `config.bracket_shapes`: one coefficient and one term per entry, over
    constant slots, with the tuples spelled out, the weight inlined and
    every constant an integer literal; the unshifted entry goes last.  A
    term that lowers entries of the sum has a coefficient of zero unless
    they are positive."""
    shape, dim, ngens = config.shape, config.shape.dim, len(config.lattice.generators)
    names = {"GE": GroupElement, "BI": BasisIndex, "EV": ExponentVector, "add_term": add_term}
    weight = " + ".join([f"{{a}}[{s}]" for s in config.weight_group_slots]
                        + [f"{{e}}[{s}]" for s in config.weight_exp_slots]) or "0"
    lines = ["def kernel(iu, iv, c=1, terms=None):",
             "    terms = {} if terms is None else terms",
             "    al, be, ie, je = iu.alpha, iv.alpha, iu.exps, iv.exps",
             "    a, b, ac, bc = al.vector, be.vector, al.coords, be.coords",
             f"    co = ({''.join(f'ac[{s}] + bc[{s}], ' for s in range(ngens))})",
             f"    ve = ({''.join(f'a[{s}] + b[{s}], ' for s in range(dim))})",
             f"    e = EV(({''.join(f'ie[{s}] + je[{s}], ' for s in range(dim))}))",
             f"    wu = 2 - ({weight.format(a='a', e='ie')})",
             f"    wv = 2 - ({weight.format(a='b', e='je')})"]
    pairs = [*map(shape.pair_slots, shape.blocks(1, 6)), ("w", 0)]
    rows = config.bracket_shapes[1:] + config.bracket_shapes[:1]
    for r, ((p, q), (shift, shapes)) in enumerate(zip(pairs, rows)):
        if not shapes:
            continue
        ks = [f"k{r}_{n}" for n in range(len(shapes))]
        lines += [f"    {k} = {_coefficient(p, q, slots)}" for k, slots in zip(ks, shapes)]
        lines += [f"    if {' or '.join(ks)}:",
                  f"        g = GE({_offset_source('co', shift.coords)}, "
                  f"{_offset_source('ve', shift.vector)})"]
        for k, slots in zip(ks, shapes):
            lowered = _offset_source("e", [-(s in slots) for s in range(dim)])
            lines += [f"        if {k}:", "            add_term(terms, BI(g, "
                      f"{f'EV({lowered})' if slots else lowered}), c * {k})"]
    lines.append("    return terms")
    exec(compile("\n".join(lines), "<contactk kernel>", "exec"), names)
    return names["kernel"]


def bracket_terms(config: AlgebraConfig, iu: BasisIndex, iv: BasisIndex,
                  c=1, terms=None) -> dict:
    """In place, zero-free `terms += c * [iu, iv]` for two basis monomials by
    the config's kernel, built at its first bracket and whenever
    `bracket_shapes` is replaced; returns `terms` (a new dict when None)."""
    if config.kernel[0] is not config.bracket_shapes:
        config.kernel = (config.bracket_shapes, build_kernel(config))
    return config.kernel[1](iu, iv, c, terms)


def bracket_support(config: AlgebraConfig, alpha_sum: GroupElement,
                    exps_sum: ExponentVector) -> list[BasisIndex]:
    """Every index a bracket [x^α t^i, x^β t^j] can have, from the sums
    alpha_sum = α+β and exps_sum = e = i+j alone.

    Lemma: each index `bracket_terms` emits for such a pair is
    (alpha_sum + shift, e lowered at slots) for a (shift, slots) of
    `config.bracket_shapes` with e positive at those slots (the kernel's
    coefficient is zero otherwise), and each shape is emitted for some
    pair.  So a functional difference that vanishes on this list
    vanishes on the bracket of every pair with these sums."""
    out = []
    for shift, shapes in config.bracket_shapes:
        shifted = alpha_sum.add(shift)
        for slots in shapes:
            if all(map(exps_sum.__getitem__, slots)):
                out.append(BasisIndex(shifted, exps_sum.lowered(*slots)))
    return out


def sum_key(iu: BasisIndex, iv: BasisIndex) -> tuple:
    """Key `(*coords, *exps)` of a pair's index sum, as `sums_reaching`
    lists it."""
    return (*map(add, iu.alpha.coords + iu.exps, iv.alpha.coords + iv.exps),)


def sums_reaching(config: AlgebraConfig, index: BasisIndex) -> list[tuple]:
    """Keys `(*coords, *exps)` of every index sum whose `bracket_support`
    contains `index`: that lemma inverted, (alpha − shift, e raised at
    slots) per entry of `config.bracket_shapes`.  Every raised slot holds
    exponents, so each key is a valid sum."""
    coords, e = index.alpha.coords, index.exps
    out = []
    for shift, shapes in config.bracket_shapes:
        base = tuple(map(sub, coords, shift.coords))
        out += [(*base, *e.raised(*slots)) for slots in shapes]
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

# an element term or a basis literal: an optional coefficient (any non-blank
# token) before `*`; a term's goes to `parse_rational`, a literal's must be `1`
_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>[^\s*]+)\s*\*\s*)?"
    r"x\[(?P<alpha>[^\]]*)\]\s*"
    r"(?:t\[(?P<exps>[^\]]*)\])?\s*$")


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
        if not m or m.group("coeff") is None:
            raise LiteralError(f"cannot parse term {clause.strip()!r}")
        coeff = as_number(parse_rational(m.group("coeff"), f"term {clause.strip()!r}"))
        idx = _parse_index_body(config, m.group("alpha"), m.group("exps"))
        add_term(terms, idx, coeff)
    return AlgebraElement(config, terms)


def parse_basis_index(config: AlgebraConfig, text: str) -> BasisIndex:
    """Parse a single basis monomial (optional leading "1*")."""
    m = _TERM_RE.match(text)
    if not m or m.group("coeff") not in (None, "1"):
        raise LiteralError(f"cannot parse basis literal {text!r}")
    return _parse_index_body(config, m.group("alpha"), m.group("exps"))


def format_basis_index(index: BasisIndex) -> str:
    body = "x[" + ",".join(map(str, index.alpha.vector)) + "]"
    if any(index.exps):
        body += "t[" + ",".join(str(e) for e in index.exps) + "]"
    return body


def format_witness(*indices: BasisIndex) -> str:
    """The witness text of basis indices: 'u , v', or 'u , v , w'."""
    return " , ".join(map(format_basis_index, indices))


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


def _capped(count: int, cap: int, counted: str) -> int:
    """`count`, or ConfigError saying `counted` and the cap when it passes
    `cap`."""
    if count > cap:
        raise ConfigError(f"{counted}; the cap is {cap}")
    return count


def check_pair_cap(config: AlgebraConfig, radius: int, ordered: bool):
    """Count of the window's ordered pairs, or of its pairs (u, v) with u not
    after v; ConfigError when a sweep would bracket more than `PAIR_CAP`."""
    size = window_size(config, radius)
    count = size * size if ordered else size * (size + 1) // 2
    return _capped(count, PAIR_CAP, f"window of radius {radius} gives {count} bracket pairs")


def _capped_window_size(config: AlgebraConfig, radius: int) -> int:
    """`window_size`, or ConfigError when it passes `WINDOW_CAP`."""
    size = window_size(config, radius)
    return _capped(size, WINDOW_CAP, f"window of radius {radius} holds {size} indices")


def check_decompose_cap(config: AlgebraConfig, radius: int, inner_radius: int):
    """ConfigError when either window passes `WINDOW_CAP`, or when the
    window times the inner support passes `PAIR_CAP`: factorization can
    evaluate every inner column on every window index."""
    count = (_capped_window_size(config, radius)
             * _capped_window_size(config, inner_radius))
    _capped(count, PAIR_CAP, f"windows of radius {radius} and inner radius {inner_radius} "
            f"give {count} (window index, inner column) pairs")


def window_indices(config: AlgebraConfig, radius: int) -> list[BasisIndex]:
    """All basis indices with generator coordinates in [-radius, radius]
    and exponent entries in [0, radius], in a fixed deterministic order."""
    _capped_window_size(config, radius)
    ngens = len(config.lattice.generators)
    slots = config.exp_slots
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
TERM_BOUND = 3


def sample_index(config: AlgebraConfig, rng) -> BasisIndex:
    """Draw one basis index from the standard sampling box.

    Each entry is drawn as `rng.randint(a, b)` draws it on CPython
    3.10-3.13, leaving the generator in the same state: `a` plus
    `rng.getrandbits(k)`, redrawn while not below the width b - a + 1,
    whose bit length is k.  Inline, that is one Python call per attempt
    instead of two.  `test_sampling_draws_what_randint_draws` in
    `tests/test_algebra.py` pins it."""
    bits = rng.getrandbits
    coord_width, exp_width = 2 * COORD_BOUND + 1, EXP_BOUND + 1
    coord_bits, exp_bits = coord_width.bit_length(), exp_width.bit_length()
    coords = []
    for _ in config.lattice.generators:
        r = bits(coord_bits)
        while r >= coord_width:
            r = bits(coord_bits)
        coords.append(r - COORD_BOUND)
    entries = [0] * config.shape.dim
    for s in config.exp_slots:
        r = bits(exp_bits)
        while r >= exp_width:
            r = bits(exp_bits)
        entries[s] = r
    return BasisIndex(config.lattice.element(coords), ExponentVector(entries))


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


def sample_element(config: AlgebraConfig, rng) -> AlgebraElement:
    """Draw an element of 1 to `TERM_BOUND` nonzero rational terms."""
    terms: dict[BasisIndex, Fraction] = {}
    for _ in range(rng.randrange(1, TERM_BOUND + 1)):
        coeff = 0
        while not coeff:
            coeff = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
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
