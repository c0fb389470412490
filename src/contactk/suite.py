"""Seeded property suites and their deterministic reports.

Each suite draws from the standard sampling box with a caller-provided
seed and returns structured results; rendering excludes anything
nondeterministic (timing lives on stderr in the CLI), so a fixed
(config, seed, counts) triple always produces byte-identical text.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .indices import AlgebraConfig
from .algebra import (
    AlgebraElement, bracket_closed, bracket_operator, format_basis_index,
    format_pair, grading, multiply, partial, recursion_probes, sample_index,
    unit, weight, window_indices, window_size,
)
from .derivations import (
    LinearOperator, ad, check_derivation, diagonal_derivation, hom_combination,
    hom_space_basis, outer_indices, outer_lower_partial,
)
from .cohomology import (
    LinearFunctional, coboundary, closed_form_regime, trivialize,
    verify_trivialization,
)


class SuiteResult:
    __slots__ = ("name", "passed", "samples", "witness")

    def __init__(self, name: str, passed: bool, samples: int, witness: str | None = None):
        self.name = name
        self.passed = passed
        self.samples = samples
        self.witness = witness


def run_suites(config: AlgebraConfig, seed: int, samples: int,
               bracket_fn=bracket_closed) -> list[SuiteResult]:
    rng = random.Random(seed)
    results = []

    def draw_pair():
        return sample_index(config, rng), sample_index(config, rng)

    def law(name: str, count: int, trial) -> None:
        """Run `trial()` up to `count` times; it returns a witness (never
        empty) or None, and the first witness fails the law."""
        witness = next(filter(None, (trial() for _ in range(count))), None)
        results.append(SuiteResult(name, witness is None, count, witness))

    def monomials(*indices):
        return [AlgebraElement.from_term(config, i) for i in indices]

    def oracle_equivalence():
        # both bracket routes agree
        iu, iv = draw_pair()
        xu, xv = monomials(iu, iv)
        if bracket_fn(xu, xv) != bracket_operator(xu, xv):
            return format_pair(iu, iv)

    def antisymmetry():
        iu, iv = draw_pair()
        xu, xv = monomials(iu, iv)
        if not (bracket_fn(xu, xv) + bracket_fn(xv, xu)).is_zero():
            return format_pair(iu, iv)

    def jacobi():
        iu, iv, iw = (sample_index(config, rng) for _ in range(3))
        xu, xv, xw = monomials(iu, iv, iw)
        total = (bracket_fn(bracket_fn(xu, xv), xw)
                 + bracket_fn(bracket_fn(xv, xw), xu)
                 + bracket_fn(bracket_fn(xw, xu), xv))
        if not total.is_zero():
            return f"{format_pair(iu, iv)} , {format_basis_index(iw)}"

    def product_rule():
        # derivative operators obey the product rule
        iu, iv = draw_pair()
        xu, xv = monomials(iu, iv)
        p = rng.choice(all_indices)
        lhs = partial(p, multiply(xu, xv))
        rhs = multiply(partial(p, xu), xv) + multiply(xu, partial(p, xv))
        if lhs != rhs:
            return f"index {config.shape.index_token(p)} on {format_pair(iu, iv)}"

    def grading_eigenvalue():
        idx = sample_index(config, rng)
        x = AlgebraElement.from_term(config, idx)
        if grading(x) != weight(config, idx) * x:
            return format_basis_index(idx)

    all_indices = list(config.shape.indices())
    law("oracle-equivalence", samples, oracle_equivalence)
    law("antisymmetry", samples, antisymmetry)
    law("jacobi", max(1, samples // 2), jacobi)
    law("product-rule", samples, product_rule)
    law("grading-eigenvalue", samples, grading_eigenvalue)

    # derivation law for diagonal and outer lowering derivations; a
    # config with neither checks ad of the unit on the same pairs
    law_samples = max(1, samples // 4)
    pairs = [draw_pair() for _ in range(law_samples)]
    homs = hom_space_basis(config)
    operators: list[LinearOperator] = []
    for _ in range(3 if homs else 0):
        coeffs = [rng.randint(-3, 3) for _ in homs]
        operators.append(diagonal_derivation(hom_combination(config, coeffs, homs)))
    for p in outer_indices(config):
        operators.append(outer_lower_partial(config, p))
    if not operators:
        operators.append(ad(unit(config)))
    witness = None
    checked = 0
    for op in operators:
        rep = check_derivation(op, pairs)
        checked += rep.checked
        if not rep.passed:
            iu, iv, _, _ = rep.failures[0]
            witness = f"{op.tag} on {format_pair(iu, iv)}"
            break
    results.append(SuiteResult(
        "derivation-law", witness is None, checked, witness))

    # trivializer round trip on a small random coboundary
    if closed_form_regime(config) or recursion_probes(config):
        table = {}
        for _ in range(6):
            table[sample_index(config, rng)] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        g = LinearFunctional(config, table=table, tag="sampled")
        psi = coboundary(g)
        f = trivialize(psi)
        # exhaustive small window only when affordable; many-axis
        # configurations fall back to sampled pairs alone
        window = window_indices(config, 1) if window_size(config, 1) <= 600 else []
        extra = [draw_pair() for _ in range(law_samples)]
        rep = verify_trivialization(
            psi, f, itertools.chain(itertools.combinations_with_replacement(window, 2), extra))
        witness = None if rep.passed else format_pair(*rep.failures[0][:2])
        results.append(SuiteResult("round-trip", rep.passed, rep.checked, witness))

    return results


def config_label(config: AlgebraConfig) -> str:
    gens = "; ".join(
        " ".join(str(x) for x in g) for g in config.lattice.generators)
    mode = "naturals" if config.j0_naturals else "zero"
    return f"ell={' '.join(str(x) for x in config.shape.ell)} j0={mode} gamma=[{gens}]"


def render_report(config: AlgebraConfig, seed: int, samples: int,
                  results: list[SuiteResult]) -> str:
    lines = [
        f"configuration: {config_label(config)}",
        f"seed: {seed}",
        f"samples: {samples}",
    ]
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name} ({r.samples} samples)")
        if r.witness is not None:
            lines.append(f"  witness: {r.witness}")
    good = sum(1 for r in results if r.passed)
    overall = "PASS" if good == len(results) else "FAIL"
    lines.append(f"result: {overall} ({good}/{len(results)})")
    return "\n".join(lines) + "\n"
