"""Small exact linear algebra over the rationals.

`add_into` is the one sparse accumulator: every sum of sparse terms
(algebra elements, bracket routes, elimination rows) goes through it and
it updates its target in place.  `Echelon` is the one exact elimination:
an incremental sparse Gauss-Jordan over `{column: value}` rows that serves
lattice membership, the homomorphism bases and the window decomposer.
"""

from __future__ import annotations

from fractions import Fraction


def add_into(terms: dict, other, scale=1) -> dict:
    """In place, zero-free `terms += scale * other`; returns `terms`.

    `other` is a mapping from keys to exact numbers and is not modified.
    A key whose sum is zero is removed, so `terms` never holds a zero.
    """
    unscaled = scale == 1
    get = terms.get
    for k, c in other.items():
        acc = get(k, 0) + (c if unscaled else scale * c)
        if acc:
            terms[k] = acc
        else:
            terms.pop(k, None)
    return terms


def exact_rational(text: str) -> Fraction:
    """Exact rational from text: an integer, a/b or a decimal; ValueError
    otherwise.  Exponent notation is refused: a text as short as
    1e999999999 would stand for an integer of any size."""
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_number(q):
    """`q` as an int when integral, keeping hot arithmetic off `Fraction`."""
    return int(q) if q.denominator == 1 else q


def _integral(terms: dict) -> dict:
    """In place, every integral value of `terms` becomes an int; returns `terms`."""
    for k, x in terms.items():
        terms[k] = as_number(x)
    return terms


def add_term(terms: dict, key, c) -> None:
    """One-term `add_into` for hot loops: in place, zero-free `terms[key] += c`."""
    acc = terms.get(key, 0) + c
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


class Echelon:
    """Incremental sparse Gauss-Jordan elimination over exact numbers.

    Rows are `{column: value}` mappings with comparable columns.  `rows`
    holds `(pivot, row, combination)` triples: each stored row has a 1 at
    its pivot, its smallest column, and no entry at any other stored
    row's pivot, so the stored rows are the unique reduced row echelon
    form of what was added.  `combination` maps the tags given to `add`
    to the coefficients with which the stored row sums the input rows.
    Stored and returned values with denominator 1 are ints.
    """

    __slots__ = ("rows", "_at")

    def __init__(self):
        self.rows: list[tuple[object, dict, dict]] = []
        # pivot -> (row, combination), the same dicts as in `rows`
        self._at: dict = {}

    @property
    def pivots(self) -> list:
        return [pc for pc, _row, _comb in self.rows]

    def _reduce(self, row) -> tuple[dict, list]:
        """(residual, steps): the residual of `reduce`, and the
        `(factor, stored combination)` pairs whose sum is its combination."""
        residual = {c: x for c, x in row.items() if x}
        steps = []
        at = self._at
        # a stored row is zero at every other pivot, so subtracting it
        # touches no other pivot entry: only the pivots `row` has matter
        for pc in [c for c in residual if c in at]:
            brow, bcomb = at[pc]
            f = residual[pc]
            add_into(residual, brow, -f)
            steps.append((f, bcomb))
        return _integral(residual), steps

    @staticmethod
    def _combination(steps) -> dict:
        comb: dict = {}
        for f, bcomb in steps:
            add_into(comb, bcomb, f)
        return _integral(comb)

    def reduce(self, row) -> tuple[dict, dict]:
        """(residual, combination) with row = residual + sum over tags of
        combination[tag] * input row; the residual is zero at every pivot
        and is empty exactly when row lies in the span.  `row` is not
        modified."""
        residual, steps = self._reduce(row)
        return residual, self._combination(steps)

    def add(self, row, tag) -> bool:
        """Store what is left of `row` after reduction; False if nothing is.
        The combination is built only for a row that is stored."""
        residual, steps = self._reduce(row)
        if not residual:
            return False
        comb = self._combination(steps)
        pc = min(residual)
        inv = Fraction(1) / residual[pc]
        row = {c: as_number(x * inv) for c, x in residual.items()}
        combination = _integral(add_into({tag: inv}, comb, -inv))
        # the new row has no entry left of pc, so clearing column pc from a
        # stored row never moves that row's pivot
        for _pc, brow, bcomb in self.rows:
            f = brow.get(pc)
            if f:
                _integral(add_into(brow, row, -f))
                _integral(add_into(bcomb, combination, -f))
        self.rows.append((pc, row, combination))
        self._at[pc] = (row, combination)
        return True

    def nullspace(self, ncols: int) -> list[list]:
        """Basis of {v : row . v = 0 for every added row} over columns
        0..ncols-1, one vector per non-pivot column in increasing order."""
        basis = []
        for fc in range(ncols):
            if fc in self._at:
                continue
            v = [0] * ncols
            v[fc] = 1
            # stored row reads: v[pc] + sum over free c of row[c] * v[c] = 0
            for pc, row, _comb in self.rows:
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
        return basis
