"""Index combinatorics, the coordinate lattice, and algebra configurations.

A configuration is built from three inputs: six block sizes ("ell"), a
zero-slot exponent mode ("j0": zero or naturals), and a free finitely
generated coordinate lattice ("gamma").  Everything downstream (shift
vectors, allowed exponent slots, weights) is derived here once and read
by the algebra and derivation modules.

Serialized vectors interleave mirror pairs: (slot 0, 1, 1bar, 2, 2bar, ...).
Indices are plain ints 0..2n with mirror(p) = p +- n; the zero slot has no
mirror partner.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .linalg import Echelon, as_number, exact_rational


class ConfigError(ValueError):
    """Raised for invalid shapes, lattices, or configurations."""


class Shape:
    """Block sizes and the index bookkeeping derived from them."""

    __slots__ = ("ell", "cum", "n", "dim")

    def __init__(self, ell):
        ell = tuple(int(x) for x in ell)
        if len(ell) != 6 or any(x < 0 for x in ell):
            raise ConfigError("ell must contain six nonnegative integers")
        if sum(ell) == 0:
            raise ConfigError("ell must have positive sum")
        self.ell = ell
        cum = [0]
        for x in ell:
            cum.append(cum[-1] + x)
        self.cum = tuple(cum)  # cum[i] = size of blocks 1..i
        self.n = cum[6]
        self.dim = 1 + 2 * self.n

    # -- index sets ---------------------------------------------------

    def blocks(self, lo: int, hi: int) -> list[int]:
        """Unbarred indices of blocks lo..hi (1-based, possibly empty)."""
        return list(range(self.cum[lo - 1] + 1, self.cum[hi] + 1))

    def block_of(self, p: int) -> int:
        """Block number of an unbarred index."""
        for i in range(1, 7):
            if p <= self.cum[i]:
                return i
        raise ConfigError(f"index {p} out of range")

    def mirror(self, p: int) -> int:
        if not 1 <= p <= 2 * self.n:
            raise ConfigError(f"index {p} has no mirror")
        return p + self.n if p <= self.n else p - self.n

    def unbarred(self, p: int) -> int:
        return p if p <= self.n else p - self.n

    def indices(self) -> range:
        """All indices 0, 1, ..., 2n."""
        return range(0, 2 * self.n + 1)

    # -- serialization ------------------------------------------------

    def slot(self, p: int) -> int:
        """Position of index p in serialized vectors."""
        if p == 0:
            return 0
        if p <= self.n:
            return 2 * p - 1
        return 2 * (p - self.n)

    def index_token(self, p: int) -> str:
        """Human-readable name: '0', '2', '2bar'."""
        return str(p) if p <= self.n else f"{p - self.n}bar"

    def parse_index_token(self, tok: str) -> int:
        base = tok[:-3] if tok.endswith("bar") else tok
        try:
            p = int(base)
        except ValueError:
            raise ConfigError(f"bad index token {tok!r}") from None
        if tok.endswith("bar"):
            if not 1 <= p <= self.n:
                raise ConfigError(f"bad index token {tok!r}")
            p += self.n
        elif not 0 <= p <= 2 * self.n:
            raise ConfigError(f"bad index token {tok!r}")
        return p

    # -- shift vectors ------------------------------------------------

    def shift_vector(self, p: int) -> tuple:
        """Group vector added by the p-th bracket term; mirror-symmetric."""
        if not 0 <= p <= 2 * self.n:
            raise ConfigError(f"index {p} out of range")
        vec = [0] * self.dim
        if p != 0:
            q = self.unbarred(p)
            b = self.block_of(q)
            if b <= 3:
                vec[self.slot(q)] = -1
                vec[self.slot(q + self.n)] = -1
            elif b <= 5:
                vec[self.slot(q)] = -1
        return tuple(vec)


class Lattice:
    """Free finitely generated coordinate lattice inside Q^dim."""

    __slots__ = ("shape", "generators", "_columns", "_span")

    def __init__(self, shape: Shape, generators):
        self.shape = shape
        gens = []
        for g in generators:
            row = tuple(as_number(Fraction(x)) for x in g)
            if len(row) != shape.dim:
                raise ConfigError(
                    f"gamma generator has {len(row)} entries, expected {shape.dim}")
            gens.append(row)
        if not gens:
            raise ConfigError("gamma needs at least one generator")
        self.generators = tuple(gens)
        self._columns = tuple(zip(*gens))
        self._check_support()
        self._prepare_solver()
        self._check_required_members()

    def _check_support(self):
        shape = self.shape
        allowed = {0}
        allowed.update(shape.slot(p) for p in shape.blocks(1, 5))
        allowed.update(shape.slot(p + shape.n) for p in shape.blocks(1, 3))
        for k, g in enumerate(self.generators):
            for s, x in enumerate(g):
                if x != 0 and s not in allowed:
                    tok = shape.index_token(_index_of_slot(shape, s))
                    raise ConfigError(
                        f"gamma generator {k + 1} is nonzero at index {tok}, "
                        "outside the allowed support")

    def _prepare_solver(self):
        self._span = Echelon()
        for k, g in enumerate(self.generators):
            if not self._span.add(dict(enumerate(g)), k):
                raise ConfigError("gamma generators must be rationally independent")

    def _check_required_members(self):
        shape = self.shape
        required = shape.blocks(1, 3)
        required += [p + shape.n for p in shape.blocks(1, 3)]
        required += shape.blocks(4, 5)
        for p in required:
            if self.membership(_unit_vector(shape.dim, shape.slot(p))) is None:
                raise ConfigError(
                    f"gamma must contain the unit vector at index {shape.index_token(p)}")
        if self.has_zero_slot and self.membership(_unit_vector(shape.dim, 0)) is None:
            raise ConfigError(
                "gamma has vectors with nonzero entry at index 0 but the unit "
                "vector at index 0 is not a member")

    @property
    def has_zero_slot(self) -> bool:
        """True when some lattice vector has a nonzero entry at slot 0."""
        return any(g[0] != 0 for g in self.generators)

    def membership(self, vector) -> tuple[int, ...] | None:
        """Integer coordinates of a vector over the generators, or None."""
        if len(vector) != self.shape.dim:
            return None
        residual, comb = self._span.reduce(
            {s: Fraction(x) for s, x in enumerate(vector)})
        if residual:
            return None
        coords = [comb.get(k, 0) for k in range(len(self.generators))]
        if any(c.denominator != 1 for c in coords):
            return None
        return tuple(int(c) for c in coords)

    def element(self, coords) -> GroupElement:
        coords = tuple(map(int, coords))
        if len(coords) != len(self.generators):
            raise ConfigError("coordinate tuple has wrong length")
        return GroupElement(coords, tuple(
            [sum(map(operator.mul, coords, column)) for column in self._columns]))

    @property
    def zero(self) -> GroupElement:
        return self.element((0,) * len(self.generators))


def _index_of_slot(shape: Shape, s: int) -> int:
    if s == 0:
        return 0
    return (s + 1) // 2 if s % 2 else s // 2 + shape.n


def _unit_vector(dim: int, slot: int) -> tuple:
    vec = [0] * dim
    vec[slot] = 1
    return tuple(vec)


class GroupElement:
    """Lattice element as a plain value: integer generator coordinates and
    the vector they resolve to.  Sums and negations act on both tuples, so
    no vector is recomputed from the generators; equality and hashing
    read the coordinates only."""

    __slots__ = ("coords", "vector")

    def __init__(self, coords: tuple[int, ...], vector: tuple):
        self.coords = coords
        self.vector = vector

    def add(self, other: GroupElement) -> GroupElement:
        return GroupElement(tuple(map(operator.add, self.coords, other.coords)),
                            tuple(map(operator.add, self.vector, other.vector)))

    def neg(self) -> GroupElement:
        return GroupElement(tuple(map(operator.neg, self.coords)),
                            tuple(map(operator.neg, self.vector)))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"GroupElement{self.coords}"


class ExponentVector(tuple):
    """Nonnegative exponent entries in serialized slot order."""

    __slots__ = ()

    @classmethod
    def build(cls, config: AlgebraConfig, entries) -> "ExponentVector":
        entries = tuple(int(x) for x in entries)
        if len(entries) != config.shape.dim:
            raise ConfigError(
                f"exponent vector has {len(entries)} entries, expected {config.shape.dim}")
        for s, x in enumerate(entries):
            if x < 0:
                raise ConfigError("exponent entries must be nonnegative")
            if x and s not in config.exp_slots:
                tok = config.shape.index_token(_index_of_slot(config.shape, s))
                raise ConfigError(f"exponent entries must vanish at index {tok}")
        return cls(entries)

    def add(self, other) -> "ExponentVector":
        return ExponentVector(map(operator.add, self, other))

    def lowered(self, *slots) -> "ExponentVector | None":
        """Subtract one at each given slot; None if any entry would go negative."""
        entries = list(self)
        for s in slots:
            entries[s] -= 1
            if entries[s] < 0:
                return None
        return ExponentVector(entries)

    def raised(self, slot: int) -> "ExponentVector":
        entries = list(self)
        entries[slot] += 1
        return ExponentVector(entries)


class AlgebraConfig:
    """Shape + lattice + zero-slot exponent mode, with derived tables."""

    __slots__ = (
        "shape", "lattice", "j0_naturals",
        "exp_slots", "shift_coords",
        "weight_group_slots", "weight_exp_slots",
        "pair_rows", "zero_exps",
    )

    def __init__(self, shape: Shape, lattice: Lattice, j0_naturals: bool):
        if lattice.shape is not shape:
            raise ConfigError("lattice was built for a different shape")
        if not j0_naturals and not lattice.has_zero_slot:
            raise ConfigError(
                "j0 must be naturals when every gamma generator is zero at index 0")
        self.shape = shape
        self.lattice = lattice
        self.j0_naturals = j0_naturals

        n = shape.n
        exp_slots = set()
        if j0_naturals:
            exp_slots.add(0)
        for p in shape.blocks(3, 3) + shape.blocks(5, 6):
            exp_slots.add(shape.slot(p))
        for p in shape.blocks(2, 6):
            exp_slots.add(shape.slot(p + n))
        self.exp_slots = frozenset(exp_slots)

        self.shift_coords = {}
        for p in shape.indices():
            coords = lattice.membership(shape.shift_vector(p))
            if coords is None:
                # blocks 1..5 shifts are members by the required-member rule
                raise ConfigError("shift vector escapes gamma")  # pragma: no cover
            self.shift_coords[p] = lattice.element(coords)

        self.weight_group_slots = tuple(
            [shape.slot(p) for p in shape.blocks(1, 3)]
            + [shape.slot(p + n) for p in shape.blocks(1, 3)]
            + [shape.slot(p) for p in shape.blocks(4, 5)])
        self.weight_exp_slots = tuple(
            [shape.slot(p) for p in shape.blocks(6, 6)]
            + [shape.slot(p + n) for p in shape.blocks(4, 6)])

        # per-index data consumed by the closed bracket: for each unbarred
        # index p, its slot, the mirror slot, the shift coordinates, and
        # which term families p participates in
        rows = []
        for p in shape.blocks(1, 6):
            b = shape.block_of(p)
            rows.append((
                shape.slot(p),
                shape.slot(p + n),
                self.shift_coords[p],
                b <= 3,            # group-group family
                2 <= b <= 5,       # group-exponent family
                b == 3,            # exponent-group family
                b in (3, 5, 6),    # exponent-exponent family
            ))
        self.pair_rows = tuple(rows)
        self.zero_exps = ExponentVector((0,) * shape.dim)

    def weight(self, alpha: GroupElement, exps) -> Fraction | int:
        """Grading eigenvalue of a basis pair; additive in both arguments."""
        vec = alpha.vector
        return (sum(vec[s] for s in self.weight_group_slots)
                + sum(exps[s] for s in self.weight_exp_slots))


def make_config(ell, j0: str, generators) -> AlgebraConfig:
    """Assemble and validate a configuration from raw pieces."""
    shape = Shape(ell)
    if j0 not in ("zero", "naturals"):
        raise ConfigError('j0 must be "zero" or "naturals"')
    lattice = Lattice(shape, generators)
    return AlgebraConfig(shape, lattice, j0 == "naturals")


def parse_config_text(text: str) -> AlgebraConfig:
    """Parse the line-oriented config format (ell / j0 / gamma lines)."""
    ell = None
    j0 = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if key == "ell":
            parts = value.split()
            if len(parts) != 6:
                raise ConfigError(f"line {lineno}: ell needs six integers")
            try:
                ell = [int(x) for x in parts]
            except ValueError:
                raise ConfigError(f"line {lineno}: ell needs six integers") from None
        elif key == "j0":
            if value not in ("zero", "naturals"):
                raise ConfigError(f'line {lineno}: j0 must be "zero" or "naturals"')
            j0 = value
        elif key == "gamma":
            try:
                gens.append([exact_rational(x) for x in value.split()])
            except ValueError:
                raise ConfigError(f"line {lineno}: bad rational in gamma line") from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    if ell is None:
        raise ConfigError("missing ell line")
    if j0 is None:
        raise ConfigError("missing j0 line")
    if not gens:
        raise ConfigError("missing gamma lines")
    return make_config(ell, j0, gens)
