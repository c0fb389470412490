"""The laws on random valid configs, whose generators are not unit vectors.

Every config file and fixture has unit-vector generators, and on those a
shift's lattice coordinates are its vector's entries.  `valid_configs()`
draws block sizes of at most 2 that sum to at most 3, takes S to be the
group slots (plus slot 0 half the time, and always when there are none),
draws an integer matrix M on S with nonzero determinant, and uses the
columns of M⁻¹, placed at S, as the generators.  Their lattice M⁻¹·Z^S holds Z^S, because each M·e_i
is integral, so it holds every unit vector a config requires.  `j0: zero`
is drawn only when slot 0 is in S.

On each config, on small sampled cases: the kernel's bracket equals the
operator's, Jacobi holds, a coboundary's trivialization verifies on pairs
of radius-1 indices where a route exists, and decomposing `ad x` gives x
back with no outer or hom part.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from contactk import (
    AlgebraElement, BasisIndex, DerivationDecomposer, LinearFunctional, Shape,
    ad, bracket_closed, bracket_operator, closed_form_regime, coboundary,
    make_config, recursion_probes, sample_index, trivialize,
    verify_trivialization, window_indices, window_size,
)
from contactk.indices import ExponentVector


def inverse(rows):
    """The exact inverse of a square integer matrix, or None when singular."""
    n = len(rows)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@st.composite
def valid_configs(draw):
    # one to three blocks, none drawn more than twice
    blocks = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    ell = [min(2, blocks.count(k)) for k in range(6)]
    shape = Shape(ell)
    slots = sorted(shape.group_slots)
    if not slots or draw(st.booleans()):
        slots.insert(0, 0)
    n = len(slots)
    m_inv = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n).map(inverse).filter(bool))
    generators = []
    for column in zip(*m_inv):
        g = [0] * shape.dim
        for s, x in zip(slots, column):
            g[s] = x
        generators.append(g)
    j0 = draw(st.sampled_from(["zero", "naturals"])) if slots[0] == 0 else "naturals"
    return make_config(ell, j0, generators)


def near_index(config, rng) -> BasisIndex:
    """An index of the radius-1 window, drawn without listing the window."""
    coords = [rng.randint(-1, 1) for _ in config.lattice.generators]
    entries = [0] * config.shape.dim
    for s in config.exp_slots:
        entries[s] = rng.randint(0, 1)
    return BasisIndex(config.lattice.element(coords), ExponentVector(entries))


def near_indices(config, rng, count):
    """The radius-1 window when it holds at most `count` indices, else
    `count` draws from it."""
    if window_size(config, 1) <= count:
        return window_indices(config, 1)
    return list(dict.fromkeys(near_index(config, rng) for _ in range(count)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(config=valid_configs())
def test_laws_hold_on_random_valid_configs(config):
    rng = random.Random(0)

    def monomials(count):
        return [AlgebraElement.from_term(config, sample_index(config, rng))
                for _ in range(count)]

    for _ in range(10):
        xu, xv = monomials(2)
        assert bracket_closed(xu, xv) == bracket_operator(xu, xv)
    b = bracket_closed
    for _ in range(10):
        xu, xv, xw = monomials(3)
        assert (b(b(xu, xv), xw) + b(b(xv, xw), xu) + b(b(xw, xu), xv)).is_zero()

    if closed_form_regime(config) or recursion_probes(config):
        g = LinearFunctional(config, table={
            near_index(config, rng): Fraction(rng.randint(1, 5)) for _ in range(4)})
        psi = coboundary(g)
        pairs = itertools.combinations_with_replacement(near_indices(config, rng, 20), 2)
        assert verify_trivialization(psi, trivialize(psi), pairs).passed

    x = AlgebraElement(config, {near_index(config, rng): Fraction(rng.randint(1, 4))
                                for _ in range(2)})
    decomposer = DerivationDecomposer(config, near_indices(config, rng, 60), list(x.terms))
    result = decomposer.decompose(ad(x))
    assert result.inner == x
    assert not any(result.outer_coeffs.values()) and not any(result.hom_coords)
