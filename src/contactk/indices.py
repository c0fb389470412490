"""Index combinatorics, the coordinate lattice, and algebra configurations.

A configuration is built from three inputs: six block sizes ("ell"), a
zero-slot exponent mode ("j0": zero or naturals), and a free finitely
generated coordinate lattice ("gamma").  The six blocks differ only in
`BLOCK_ROLES`, the roles of the two slots of each index pair (p, p bar):
"g" for a lattice coordinate, "e" for an exponent.  `Shape` turns the
table into two slot sets, and every per-block rule downstream (lattice
support, shift vectors, exponent slots, weights, the kernel's families,
outer indices and probes) is a test against those sets.

Serialized vectors interleave mirror pairs: (slot 0, 1, 1bar, 2, 2bar, ...).
Indices are plain ints 0..2n with mirror(p) = p +- n; the zero slot has no
mirror partner.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .linalg import Echelon, as_number, exact_rational, plain


class ConfigError(ValueError):
    """Raised for invalid shapes, lattices, or configurations."""


class ConfigLineError(ConfigError):
    """Raised for one line of config text: `lineno` says which, `reason` why."""

    def __init__(self, lineno: int, reason: str):
        super().__init__(f"line {lineno}: {reason}")
        self.lineno, self.reason = lineno, reason


# Roles of the slots of (p, p bar) for an index p of blocks 1..6: "g"
# marks a lattice coordinate and "e" an exponent.  This is the family.
BLOCK_ROLES = (("g", "g"), ("g", "ge"), ("ge", "ge"), ("g", "e"), ("ge", "e"), ("e", "e"))


class Shape:
    """Block sizes and the index bookkeeping derived from them: among the
    nonzero slots, `group_slots` hold lattice coordinates and
    `exponent_slots` exponents; `both_slots` hold both."""

    __slots__ = ("ell", "cum", "n", "dim", "group_slots", "exponent_slots", "both_slots")

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
        roles = [(self.slot(p), BLOCK_ROLES[self.block_of(p) - 1][p > self.n])
                 for p in range(1, self.dim)]
        self.group_slots = frozenset(s for s, role in roles if "g" in role)
        self.exponent_slots = frozenset(s for s, role in roles if "e" in role)
        self.both_slots = self.group_slots & self.exponent_slots

    # -- index sets ---------------------------------------------------

    def blocks(self, lo: int, hi: int) -> list[int]:
        """Unbarred indices of blocks lo..hi (1-based, possibly empty)."""
        return list(range(self.cum[lo - 1] + 1, self.cum[hi] + 1))

    def block_of(self, p: int) -> int:
        """Block number of a nonzero index; a barred index is in its
        unbarred partner's block, and index 0 is in none."""
        if not 1 <= p <= 2 * self.n:
            raise ConfigError(f"index {p} is in no block")
        q = self.unbarred(p)
        return next(i for i in range(1, 7) if q <= self.cum[i])

    def mirror(self, p: int) -> int:
        if not 1 <= p <= 2 * self.n:
            raise ConfigError(f"index {p} has no mirror")
        return p + self.n if p <= self.n else p - self.n

    def unbarred(self, p: int) -> int:
        return p if p <= self.n else p - self.n

    def pair_slots(self, p: int) -> tuple[int, int]:
        """Slots of (q, q bar) for the unbarred partner q of a nonzero p."""
        q = self.unbarred(p)
        return self.slot(q), self.slot(q + self.n)

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
            p = int(plain(base))
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
            for s in self.group_slots.intersection(self.pair_slots(p)):
                vec[s] = -1
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
        # per slot, the (generator, entry) pairs whose entry is nonzero
        self._columns = tuple(tuple((k, x) for k, x in enumerate(column) if x)
                              for column in zip(*gens))
        self._check_support()
        self._prepare_solver()
        self._check_required_members()

    def _check_support(self):
        shape = self.shape
        allowed = {0} | shape.group_slots
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
        for p in shape.indices():
            if shape.slot(p) in shape.group_slots and self.unit_coords(p) is None:
                raise ConfigError(
                    f"gamma must contain the unit vector at index {shape.index_token(p)}")
        if self.has_zero_slot and self.unit_coords(0) is None:
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

    def unit_coords(self, p: int) -> tuple[int, ...] | None:
        """Coordinates of the unit vector at index p, or None."""
        vec = [0] * self.shape.dim
        vec[self.shape.slot(p)] = 1
        return self.membership(vec)

    def element(self, coords) -> GroupElement:
        coords = tuple(map(int, coords))
        if len(coords) != len(self.generators):
            raise ConfigError("coordinate tuple has wrong length")
        return GroupElement(coords, tuple(
            [sum([coords[k] * x for k, x in column]) if column else 0
             for column in self._columns]))

    @property
    def zero(self) -> GroupElement:
        return self.element((0,) * len(self.generators))


def _index_of_slot(shape: Shape, s: int) -> int:
    if s == 0:
        return 0
    return (s + 1) // 2 if s % 2 else s // 2 + shape.n


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

    def lowered(self, *slots) -> "ExponentVector":
        """Subtract one at each given slot (self for none); every caller
        lowers only positive entries."""
        if not slots:
            return self
        entries = list(self)
        for s in slots:
            entries[s] -= 1
        return ExponentVector(entries)

    def raised(self, *slots) -> "ExponentVector":
        """Add one at each given slot."""
        entries = list(self)
        for s in slots:
            entries[s] += 1
        return ExponentVector(entries)


class AlgebraConfig:
    """Lattice (with its shape) + zero-slot exponent mode, with derived tables."""

    __slots__ = (
        "shape", "lattice", "j0_naturals",
        "exp_slots", "shift_coords",
        "weight_group_slots", "weight_exp_slots",
        "pair_rows", "bracket_shapes", "zero_exps",
    )

    def __init__(self, lattice: Lattice, j0_naturals: bool):
        if not j0_naturals and not lattice.has_zero_slot:
            raise ConfigError(
                "j0 must be naturals when every gamma generator is zero at index 0")
        self.shape = shape = lattice.shape
        self.lattice = lattice
        self.j0_naturals = j0_naturals

        group, exponent = shape.group_slots, shape.exponent_slots
        # ascending: windows and the sampler walk them in this order
        self.exp_slots = tuple(sorted(exponent | {0} if j0_naturals else exponent))

        # each shift is a sum of unit vectors that `Lattice` requires
        self.shift_coords = {p: lattice.element(lattice.membership(shape.shift_vector(p)))
                             for p in shape.indices()}

        self.weight_group_slots = tuple(sorted(group))
        self.weight_exp_slots = tuple(sorted(exponent - group))

        # per-index data consumed by the closed bracket: for each unbarred
        # index p, its slot, the mirror slot, the shift coordinates, and
        # which term families p participates in.  Alongside, by shift, the
        # slots each term the kernel can emit lowers: the unshifted sum (its
        # coefficient reads lattice slot 0), the sum lowered at slot 0, then
        # each row's active families in the kernel's order
        rows = []
        shapes = [(self.shift_coords[0],
                   ((),) * lattice.has_zero_slot + ((0,),) * j0_naturals)]
        for p in shape.blocks(1, 6):
            sp, sq = shape.pair_slots(p)
            families = (
                sp in group and sq in group,           # group-group
                sp in group and sq in exponent,        # group-exponent
                sp in exponent and sq in group,        # exponent-group
                sp in exponent and sq in exponent,     # exponent-exponent
            )
            rows.append((sp, sq, self.shift_coords[p], *families))
            shapes.append((self.shift_coords[p], tuple(
                s for on, s in zip(families, ((), (sq,), (sp,), (sp, sq))) if on)))
        self.pair_rows = tuple(rows)
        self.bracket_shapes = tuple(shapes)
        self.zero_exps = ExponentVector((0,) * shape.dim)


def make_config(ell, j0: str, generators) -> AlgebraConfig:
    """Assemble and validate a configuration from raw pieces."""
    shape = Shape(ell)
    if j0 not in ("zero", "naturals"):
        raise ConfigError('j0 must be "zero" or "naturals"')
    return AlgebraConfig(Lattice(shape, generators), j0 == "naturals")


def content_lines(text: str):
    """(line number, stripped line) for each line of an input file, split at
    every `str.splitlines` break, that is not blank once its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_config_text(text: str) -> AlgebraConfig:
    """Parse the line-oriented config format (ell / j0 / gamma lines)."""
    ell = None
    j0 = None
    gens = []
    for lineno, line in content_lines(text):
        key, sep, value = line.partition(":")
        if not sep:
            raise ConfigLineError(lineno, "expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if key == "ell":
            try:
                ell = [int(plain(x)) for x in value.split()]
            except ValueError:
                ell = []
            if len(ell) != 6:
                raise ConfigLineError(lineno, "ell needs six integers")
        elif key == "j0":
            if value not in ("zero", "naturals"):
                raise ConfigLineError(lineno, 'j0 must be "zero" or "naturals"')
            j0 = value
        elif key == "gamma":
            try:
                gens.append([exact_rational(x) for x in value.split()])
            except ValueError:
                raise ConfigLineError(lineno, "bad rational in gamma line") from None
        else:
            raise ConfigLineError(lineno, f"unknown key {key!r}")
    if ell is None:
        raise ConfigError("missing ell line")
    if j0 is None:
        raise ConfigError("missing j0 line")
    return make_config(ell, j0, gens)
