"""Window decomposition of derivations into outer, diagonal, inner parts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from contactk import (
    AlgebraElement, AmbiguousError, BasisIndex, DerivationDecomposer, LinearOperator,
    ResidualError, ad, basis_element, format_basis_index,
    diagonal_derivation, hom_star_basis, outer_indices, unit,
    window_indices,
)
from contactk.derivations import outer_lower_partial
from contactk.linalg import add_into
from conftest import scale_partial


@pytest.fixture(scope="module")
def decomposer(cfg_decomp):
    return DerivationDecomposer(
        cfg_decomp, window_indices(cfg_decomp, 2), window_indices(cfg_decomp, 1))


def model_operator(config, decomposer, rng, max_inner=4):
    """Random combination over the decomposer's directions.

    Returns the operator plus its exact expected coordinates.
    """
    parts = []
    outer = {}
    for p in decomposer.outer:
        c = Fraction(rng.randrange(-4, 5))
        if c:
            outer[p] = c
            parts.append((c, outer_lower_partial(config, p)))
    star = []
    for hom in decomposer.star:
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        star.append(c)
        if c:
            parts.append((c, diagonal_derivation(hom)))
    inner = AlgebraElement.zero(config)
    support = decomposer.inner_support
    for b in rng.sample(range(len(support)), min(max_inner, len(support))):
        c = Fraction(rng.randrange(-3, 4))
        if c:
            inner = inner + AlgebraElement.from_term(config, support[b], c)
    if inner.terms:
        parts.append((Fraction(1), ad(inner)))
    if not parts:
        parts.append((Fraction(1), ad(unit(config))))
        inner = unit(config)
    return LinearOperator.combine(config, parts), outer, tuple(star), inner


def test_recovers_model_coefficients(cfg_decomp, decomposer):
    assert decomposer.rank == len(decomposer.labels)
    rng = random.Random(71)
    for _ in range(6):
        D, outer, star, inner = model_operator(cfg_decomp, decomposer, rng)
        got = decomposer.decompose(D)
        assert {p: c for p, c in got.outer_coeffs.items() if c} == outer
        assert got.hom_coords == star
        assert got.inner == inner


def test_mirror_difference_becomes_inner_plus_outer(cfg_decomp, decomposer):
    # a diagonal derivation from the mirror-difference hom re-expresses as
    # ad of the shift inverse minus the barred outer lowering
    from contactk import mirror_difference_hom
    D = diagonal_derivation(mirror_difference_hom(cfg_decomp, 1))
    got = decomposer.decompose(D)
    shift_inv = basis_element(
        cfg_decomp, cfg_decomp.shift_coords[1].neg().coords)
    assert got.inner == shift_inv
    pb = cfg_decomp.shape.mirror(1)
    assert got.outer_coeffs.get(pb) == Fraction(-1)
    assert not any(got.hom_coords)


def test_unit_adjoint_decomposition(cfg_decomp, decomposer):
    # ad 1 = 2 * zero-slot diagonal + 2 * zero-slot lowering; the lowering
    # is not a column, so the solver must fold both into its directions
    D = ad(unit(cfg_decomp))
    got = decomposer.decompose(D)
    assert got.inner == unit(cfg_decomp)


def test_hom_returned_matches_star_combination(cfg_decomp, decomposer):
    star = hom_star_basis(cfg_decomp)
    D = diagonal_derivation(star[0])
    got = decomposer.decompose(D)
    assert got.hom_coords == (Fraction(1),)
    assert got.hom == star[0]
    assert got.inner.terms == {}
    assert got.outer_coeffs == {p: 0 for p in outer_indices(cfg_decomp)}


def test_residual_error_for_out_of_support_inner(cfg_decomp, decomposer):
    D = ad(basis_element(cfg_decomp, (0, 3, 3)))
    with pytest.raises(ResidualError) as info:
        decomposer.decompose(D)
    assert info.value.window_index is not None
    assert_names_its_result_index(info.value)


def test_residual_error_for_non_derivation(cfg_decomp, decomposer):
    D = LinearOperator(cfg_decomp, lambda idx: scale_partial(
        1, AlgebraElement.from_term(cfg_decomp, idx, 1)).terms, "scale 1")
    with pytest.raises(ResidualError) as info:
        decomposer.decompose(D)
    assert_names_its_result_index(info.value)


def assert_names_its_result_index(err):
    # the residual always has a first term, and the message names it
    assert isinstance(err.result_index, BasisIndex)
    assert str(err).endswith(f" at result term {format_basis_index(err.result_index)}")


def test_ambiguous_when_window_too_small(cfg_decomp):
    with pytest.raises(AmbiguousError) as info:
        DerivationDecomposer(
            cfg_decomp, window_indices(cfg_decomp, 0), window_indices(cfg_decomp, 1)
        ).decompose(ad(unit(cfg_decomp)))
    # the unpivoted columns in column order: outer, hom, then adjoint
    assert info.value.free_labels == [
        "dt 1bar", "hom 0",
        "ad x[0,-1,-1]", "ad x[0,-1,-1]t[0,0,1]", "ad x[0,-1,0]", "ad x[0,-1,0]t[0,0,1]",
        "ad x[0,-1,1]", "ad x[0,-1,1]t[0,0,1]", "ad x[0,0,-1]", "ad x[0,0,-1]t[0,0,1]",
        "ad x[0,0,0]", "ad x[0,0,0]t[0,0,1]", "ad x[0,0,1]", "ad x[0,0,1]t[0,0,1]",
        "ad x[0,1,-1]", "ad x[0,1,-1]t[0,0,1]", "ad x[0,1,0]", "ad x[0,1,0]t[0,0,1]",
        "ad x[0,1,1]", "ad x[0,1,1]t[0,0,1]"]


def test_one_shot_wrapper(cfg_decomp):
    # a decomposer built for a single operator, as `deriv decompose` does
    D = ad(basis_element(cfg_decomp, (0, 1, 0)))
    got = DerivationDecomposer(
        cfg_decomp, window_indices(cfg_decomp, 2), window_indices(cfg_decomp, 1)
    ).decompose(D)
    assert got.inner == basis_element(cfg_decomp, (0, 1, 0))


def test_decomposition_is_deterministic(cfg_decomp, decomposer):
    rng1, rng2 = random.Random(73), random.Random(73)
    D1 = model_operator(cfg_decomp, decomposer, rng1)[0]
    D2 = model_operator(cfg_decomp, decomposer, rng2)[0]
    a, b = decomposer.decompose(D1), decomposer.decompose(D2)
    assert a.outer_coeffs == b.outer_coeffs
    assert a.hom_coords == b.hom_coords
    assert a.inner == b.inner


def test_sweep_checks_indices_the_factorization_never_visits(cfg_decomp, decomposer):
    # D equals a decomposable operator except at the window's last index,
    # which no stored row comes from; only the sweep can see the difference
    last = decomposer.window[-1]
    assert last not in {w for w, _r in decomposer.metas}
    base = ad(basis_element(cfg_decomp, (0, 1, 0)))

    def rule(idx):
        image = base.rule(idx)
        return add_into(image, {last: 1}) if idx == last else image

    D = LinearOperator(cfg_decomp, rule, "ad x[0,1,0], off at one index")
    assert decomposer.decompose(base).inner == basis_element(cfg_decomp, (0, 1, 0))
    with pytest.raises(ResidualError) as info:
        decomposer.decompose(D)
    assert info.value.window_index == last
    assert info.value.result_index == last


def test_adjoint_columns_match_the_operator_route(cfg_decomp, decomposer):
    # each column `ad b` is the kernel's [b, w]; decomposing the operator
    # ad(x_b) must give back exactly b, with no outer or hom part
    rng = random.Random(79)
    for b in rng.sample(decomposer.inner_support, 10):
        got = decomposer.decompose(ad(AlgebraElement.from_term(cfg_decomp, b)))
        assert got.inner == AlgebraElement.from_term(cfg_decomp, b)
        assert not any(got.outer_coeffs.values())
        assert not any(got.hom_coords)
