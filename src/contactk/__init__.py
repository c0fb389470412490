"""Exact-arithmetic workbench for a family of graded Lie algebras.

Configure an algebra from a block-size vector, a scalar lattice, and an
exponent mode; bracket elements by two independent routes; decompose
derivations over finite windows; build and trivialize 2-cocycles.
"""

from .indices import (
    AlgebraConfig, ConfigError, GroupElement, Lattice, Shape,
    make_config, parse_config_text,
)
from .algebra import (
    AlgebraElement, BasisIndex, CheckReport, LiteralError, basis_element,
    bracket_closed, bracket_operator, format_basis_index, format_element,
    grading, multiply, parse_basis_index, parse_element, sample_element,
    sample_index, structure_rows, unit, weight, window_indices, window_size,
)
from .derivations import (
    AmbiguousError, DerivationDecomposer, DerivationDecomposition,
    LatticeHom, LinearOperator, ResidualError, ad, check_derivation,
    check_mirror_identity, diagonal_derivation,
    hom_space_basis, hom_star_basis, mirror_difference_hom,
    outer_indices, outer_lower_partial, probe_sets, zero_slot_hom,
)
from .cohomology import (
    CoboundaryCocycle, LinearFunctional, TableCocycle,
    check_cocycle, closed_form_regime, coboundary, recursion_probes,
    trivialize, verify_trivialization,
)
from .suite import SuiteResult, config_label, render_report, run_suites

__all__ = [
    "AlgebraConfig", "ConfigError", "GroupElement", "Lattice", "Shape",
    "make_config", "parse_config_text",
    "AlgebraElement", "BasisIndex", "CheckReport", "LiteralError",
    "basis_element", "bracket_closed", "bracket_operator",
    "format_basis_index", "format_element", "grading", "multiply",
    "parse_basis_index", "parse_element", "sample_element", "sample_index",
    "structure_rows", "unit", "weight", "window_indices", "window_size",
    "AmbiguousError", "DerivationDecomposer", "DerivationDecomposition",
    "LatticeHom", "LinearOperator", "ResidualError", "ad",
    "check_derivation", "check_mirror_identity",
    "diagonal_derivation", "hom_space_basis", "hom_star_basis",
    "mirror_difference_hom", "outer_indices", "outer_lower_partial",
    "probe_sets", "zero_slot_hom",
    "CoboundaryCocycle", "LinearFunctional", "TableCocycle",
    "check_cocycle", "closed_form_regime", "coboundary", "recursion_probes",
    "trivialize", "verify_trivialization",
    "SuiteResult", "config_label", "render_report", "run_suites",
]
