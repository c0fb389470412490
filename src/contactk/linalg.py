"""Small exact linear algebra over the rationals.

`add_into` is the one sparse accumulator: every sum of sparse terms
(algebra elements, bracket routes, elimination rows) goes through it and
it updates its target in place.  `rref` and `nullspace` are dense row
reduction on lists of lists of Fraction, used for lattice membership and
homomorphism bases; they return fresh lists.
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


def add_term(terms: dict, key, c) -> None:
    """One-term `add_into` for hot loops: in place, zero-free `terms[key] += c`."""
    acc = terms.get(key, 0) + c
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.  Returns (reduced rows, pivot columns)."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : A v = 0} for the matrix with the given rows."""
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        # pivot row i reads: v[pivots[i]] + sum over free c of m[i][c]*v[c] = 0
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis

