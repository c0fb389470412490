"""Derivations of the contact bracket and their finite-window decomposition.

Covers the adjoint action, diagonal derivations from lattice
homomorphisms, the outer lowering derivations, the Leibniz-law checker,
the mirror-difference operator identity, the four probe families, and a
decomposer that matches a black-box operator against outer + diagonal +
adjoint directions on a finite window by exact linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, NamedTuple

from .indices import AlgebraConfig, ConfigError
from .linalg import Echelon, add_into, as_number
from .algebra import (
    AlgebraElement, BasisIndex, CheckReport, bracket_closed, bracket_terms,
    format_basis_index, format_element, lower_partial, probe_index,
    recursion_probes,
)


class LinearOperator(NamedTuple):
    """Basis rule with a descriptive tag and no memo: `rule(index)` is the
    image of one monomial as a fresh, zero-free `{BasisIndex: coeff}`."""

    config: AlgebraConfig
    rule: Callable[[BasisIndex], dict]
    tag: str

    @classmethod
    def combine(cls, config, parts) -> "LinearOperator":
        """Scaled sum of (scalar, operator) pairs."""
        parts = [(s, op) for s, op in parts]

        def rule(index):
            terms: dict[BasisIndex, Fraction] = {}
            for s, op in parts:
                add_into(terms, op.rule(index), s)
            return terms

        tag = " + ".join(f"{s}*({op.tag})" if s != 1 else op.tag for s, op in parts)
        return cls(config, rule, tag or "zero")


def ad(u: AlgebraElement) -> LinearOperator:
    config = u.config

    def rule(idx):
        terms: dict[BasisIndex, Fraction] = {}
        for iu, cu in u.terms.items():
            bracket_terms(config, iu, idx, cu, terms)
        return terms

    return LinearOperator(config, rule, f"ad {format_element(u)}")


class LatticeHom:
    """Rational homomorphism out of the lattice, given by generator values.

    Valid homomorphisms vanish on every shift vector; the constructor
    enforces that.
    """

    __slots__ = ("config", "values", "_nums", "_den")

    def __init__(self, config: AlgebraConfig, values):
        self.config = config
        self.values = tuple(Fraction(v) for v in values)
        # values[k] == _nums[k] / _den, so evaluation is int arithmetic
        self._den = lcm(*(v.denominator for v in self.values))
        self._nums = tuple(v.numerator * (self._den // v.denominator)
                           for v in self.values)
        if len(self.values) != len(config.lattice.generators):
            raise ConfigError("hom needs one value per gamma generator")
        for p, shift in config.shift_coords.items():
            if self.value_on_coords(shift.coords) != 0:
                raise ConfigError(
                    f"hom does not vanish on the shift vector at index {p}")

    def value_on_coords(self, coords) -> Fraction:
        return Fraction(sum(c * n for c, n in zip(coords, self._nums)), self._den)

    def __call__(self, alpha) -> Fraction:
        return self.value_on_coords(alpha.coords)

    def __eq__(self, other):
        return isinstance(other, LatticeHom) and self.values == other.values

    def __repr__(self):
        return f"LatticeHom{self.values}"


def diagonal_derivation(hom: LatticeHom) -> LinearOperator:
    def rule(idx):
        value = as_number(hom(idx.alpha))
        return {idx: value} if value else {}

    return LinearOperator(
        hom.config, rule, f"dmu {' '.join(str(v) for v in hom.values)}")


def mirror_difference_hom(config: AlgebraConfig, p: int) -> LatticeHom:
    """The hom alpha -> alpha_mirror(p) - alpha_p, for p in `mirror_pairs`."""
    if p not in mirror_pairs(config):
        raise ConfigError(f"index {p} is not in blocks 1..3")
    sp, sq = config.shape.pair_slots(p)
    values = [g[sq] - g[sp] for g in config.lattice.generators]
    return LatticeHom(config, values)


def zero_slot_hom(config: AlgebraConfig) -> LatticeHom:
    """The hom alpha -> alpha_0 (zero when the lattice misses slot 0)."""
    return LatticeHom(config, [g[0] for g in config.lattice.generators])


def mirror_pairs(config: AlgebraConfig) -> list[int]:
    """Unbarred indices whose two slots both hold lattice coordinates."""
    shape = config.shape
    return [p for p in shape.blocks(1, 6)
            if shape.group_slots.issuperset(shape.pair_slots(p))]


def outer_indices(config: AlgebraConfig) -> list[int]:
    """Indices whose lowering operators are outer derivations: those whose
    slot holds both a lattice coordinate and exponents."""
    shape = config.shape
    return [p for p in shape.indices() if shape.slot(p) in shape.both_slots]


def outer_lower_partial(config: AlgebraConfig, p: int) -> LinearOperator:
    if p not in outer_indices(config):
        raise ConfigError(
            f"lowering at index {config.shape.index_token(p)} is not an outer derivation")
    s = config.shape.slot(p)

    def rule(idx):
        e = idx.exps[s]
        return {BasisIndex(idx.alpha, idx.exps.lowered(s)): e} if e else {}

    return LinearOperator(config, rule, f"dt {config.shape.index_token(p)}")


def check_derivation(D: LinearOperator, pairs) -> CheckReport:
    """Exact Leibniz check of D on basis pairs: D[u,v] = [Du,v] + [u,Dv],
    summed from kernel terms and D.rule; a failure holds both as elements."""
    config = D.config
    checked = 0
    for checked, (iu, iv) in enumerate(pairs, 1):
        lhs: dict[BasisIndex, Fraction] = {}
        for r, c in bracket_terms(config, iu, iv).items():
            add_into(lhs, D.rule(r), c)
        rhs: dict[BasisIndex, Fraction] = {}
        for r, c in D.rule(iu).items():
            bracket_terms(config, r, iv, c, rhs)
        for r, c in D.rule(iv).items():
            bracket_terms(config, iu, r, c, rhs)
        if lhs != rhs:
            return CheckReport(
                checked, [(iu, iv, AlgebraElement(config, lhs), AlgebraElement(config, rhs))])
    return CheckReport(checked, [])


def check_mirror_identity(config: AlgebraConfig, p: int, indices) -> CheckReport:
    """Operator identity: the mirror-difference diagonal derivation equals
    ad of p's probe monomial plus the lowering difference."""
    hom = mirror_difference_hom(config, p)
    probe = AlgebraElement.from_term(config, probe_index(config, p))
    pb = p + config.shape.n
    checked = 0
    for checked, idx in enumerate(indices, 1):
        x = AlgebraElement.from_term(config, idx)
        lhs = hom(idx.alpha) * x
        rhs = bracket_closed(probe, x) + lower_partial(p, x) - lower_partial(pb, x)
        if lhs != rhs:
            return CheckReport(checked, [(idx, None, lhs, rhs)])
    return CheckReport(checked, [])


class ProbeSets(NamedTuple):
    """The four probe families used by the decomposition arguments."""

    triangular: list[AlgebraElement]
    diagonal: list[AlgebraElement]
    raising: list[AlgebraElement]
    lowering: list[AlgebraElement]


def probe_sets(config: AlgebraConfig) -> ProbeSets:
    """The triangular family is the recursion probes' monomials and the
    diagonal family the probe monomials of the other indices; the raising
    and lowering families square each unbarred and each barred index, x
    at twice its unit vector at a lattice slot and t squared otherwise."""
    shape = config.shape
    lattice = config.lattice

    def monomial(index):
        return AlgebraElement.from_term(config, index)

    def unit_multiple(p, k):
        """x at k times the unit vector at index p."""
        coords = tuple(k * c for c in lattice.unit_coords(p))
        return monomial(BasisIndex(lattice.element(coords), config.zero_exps))

    def exponent(*slots):
        """t raised once at each given slot."""
        return monomial(BasisIndex(lattice.zero, config.zero_exps.raised(*slots)))

    def square(p):
        s = shape.slot(p)
        return unit_multiple(p, 2) if s in shape.group_slots else exponent(s, s)

    probes = recursion_probes(config)
    triangular = [monomial(probe_index(config, p)) for p in probes]
    diagonal = [monomial(probe_index(config, p))
                for p in [*shape.blocks(1, 6), 0] if p not in probes]

    raising = [square(p) for p in shape.blocks(1, 6)]
    lowering = [square(p + shape.n) for p in shape.blocks(1, 6)]
    if lattice.has_zero_slot:
        raising.append(unit_multiple(0, 2))
        lowering.append(unit_multiple(0, -2))
    else:
        raising.append(exponent(0))

    return ProbeSets(triangular, diagonal, raising, lowering)


# -- homomorphism bases -----------------------------------------------

def hom_space_basis(config: AlgebraConfig) -> list[LatticeHom]:
    """Basis of all valid homomorphisms (vanishing on every shift)."""
    shifts = Echelon()
    for p, shift in config.shift_coords.items():
        shifts.add(dict(enumerate(shift.coords)), p)
    return [LatticeHom(config, v)
            for v in shifts.nullspace(len(config.lattice.generators))]


def hom_star_basis(config: AlgebraConfig) -> list[LatticeHom]:
    """Deterministic complement of the inner hom directions: extend the
    pivot rows to a basis of the hom space; the extension vectors are the
    reported complement.  The pivots are the homs whose diagonal
    derivations are inner (after lowering corrections): the mirror
    differences, plus the zero-slot hom when the zero-slot exponents are
    switched off."""
    pivots = [mirror_difference_hom(config, p) for p in mirror_pairs(config)]
    if not config.j0_naturals:
        pivots.append(zero_slot_hom(config))
    span = Echelon()
    for k, hom in enumerate(pivots):
        span.add(dict(enumerate(hom.values)), ("pivot", k))
    return [hom for k, hom in enumerate(hom_space_basis(config))
            if span.add(dict(enumerate(hom.values)), ("hom", k))]


def hom_combination(config: AlgebraConfig, coeffs, homs) -> LatticeHom:
    """The hom sum of c * h over paired coefficients and homs."""
    values = [0] * len(config.lattice.generators)
    for c, h in zip(coeffs, homs):
        if c:
            values = [a + c * b for a, b in zip(values, h.values)]
    return LatticeHom(config, values)


# -- decomposition ----------------------------------------------------

class ResidualError(Exception):
    """The operator is not in the decomposer's span on the window."""

    def __init__(self, window_index: BasisIndex, result_index: BasisIndex):
        self.window_index = window_index
        self.result_index = result_index
        at = format_basis_index(window_index)
        via = format_basis_index(result_index)
        super().__init__(f"unmatched action on {at} at result term {via}")


class AmbiguousError(Exception):
    """The window is too small to pin all coefficients."""

    def __init__(self, free_labels):
        self.free_labels = list(free_labels)
        super().__init__(
            "window does not determine coefficients for: "
            + ", ".join(self.free_labels))


class DerivationDecomposition(NamedTuple):
    """Exact coefficients of an operator over the decomposer's directions."""

    outer_coeffs: dict[int, Fraction]
    hom: LatticeHom | None
    hom_coords: tuple
    inner: AlgebraElement


class DerivationDecomposer:
    """Window-based solver reused across many operators.

    The coefficient matrix depends only on (config, window, inner
    support), so its elimination is done once; each decomposition then
    costs one right-hand side and one verification sweep.
    """

    def __init__(self, config: AlgebraConfig, window, inner_support):
        self.config = config
        self.window = list(window)
        self.inner_support = list(inner_support)
        self.outer = outer_indices(config)
        self.star = hom_star_basis(config)

        # columns: outer lowerings, star homs, adjoint actions; decompose
        # reads each part off the solution by this order.  Only the first
        # two kinds are operators: column `ad b` is the kernel's [b, w]
        self._ops = (
            [outer_lower_partial(config, p) for p in self.outer]
            + [diagonal_derivation(hom) for hom in self.star])
        self.labels = (
            [f"dt {config.shape.index_token(p)}" for p in self.outer]
            + [f"hom {k}" for k in range(len(self.star))]
            + [f"ad {format_basis_index(b)}" for b in self.inner_support])
        self._factorize()

    def _factorize(self):
        """Rows are (window index, result index) pairs over the columns;
        `metas` lists the pairs of stored rows, tagged by their position."""
        ncols = len(self.labels)
        self._echelon = Echelon()
        self.metas: list[tuple[BasisIndex, BasisIndex]] = []
        for w in self.window:
            if self.rank == ncols:
                break
            columns = [op.rule(w) for op in self._ops]
            columns += [bracket_terms(self.config, b, w) for b in self.inner_support]
            by_result: dict[BasisIndex, dict[int, Fraction]] = {}
            for ci, column in enumerate(columns):
                for r, coeff in column.items():
                    by_result.setdefault(r, {})[ci] = coeff
            for r in sorted(by_result, key=BasisIndex.sort_key):
                if self._echelon.add(by_result[r], len(self.metas)):
                    self.metas.append((w, r))
                    if self.rank == ncols:
                        break

    @property
    def rank(self) -> int:
        return len(self._echelon.rows)

    def decompose(self, D: LinearOperator) -> DerivationDecomposition:
        ncols = len(self.labels)
        if self.rank < ncols:
            raise AmbiguousError(
                label for c, label in enumerate(self.labels) if c not in self._echelon.rows)

        # the stored rows are reduced, so each pivot's coefficient is its
        # row's combination applied to the right-hand side (D once per w)
        images = {w: D.rule(w) for w in {w for w, _r in self.metas}}
        rhs = [images[w].get(r, 0) for w, r in self.metas]
        solution = [0] * ncols
        for pc, (_row, comb) in self._echelon.rows.items():
            solution[pc] = as_number(sum(x * rhs[m] for m, x in comb.items()))

        # verification sweep doubles as the residual check
        no, ns = len(self.outer), len(self.star)
        ops = [(op, c) for op, c in zip(self._ops, solution) if c]
        inner = {b: c for b, c in zip(self.inner_support, solution[no + ns:]) if c}
        for w in self.window:
            total: dict[BasisIndex, Fraction] = {}
            for op, c in ops:
                add_into(total, op.rule(w), c)
            for b, c in inner.items():
                bracket_terms(self.config, b, w, c, total)
            expected = D.rule(w)
            if total != expected:
                witness = next(iter(add_into(total, expected, -1)))
                raise ResidualError(w, witness)

        hom_coords = tuple(solution[no:no + ns])
        hom = hom_combination(self.config, hom_coords, self.star) if self.star else None
        return DerivationDecomposition(
            dict(zip(self.outer, solution)), hom, hom_coords,
            AlgebraElement(self.config, inner))
