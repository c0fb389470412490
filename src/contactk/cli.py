"""Command-line front end.

Subcommands: check-config, bracket, mul, table, suite, deriv
check|decompose, cocycle check|trivialize|verify.  Exit codes: 0 all
good, 1 a checked property failed, 2 usage or config trouble.  All
numeric I/O is exact rational text.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import random
import re
import sys
import time

from .indices import AlgebraConfig, ConfigError, ConfigLineError, content_lines, parse_config_text
from .linalg import as_number
from .algebra import (
    LiteralError, bracket_closed, bracket_operator, check_decompose_cap,
    check_pair_cap, format_basis_index, format_element, format_pair, multiply,
    parse_basis_index, parse_element, parse_rational, sample_index, structure_rows,
    window_indices,
)
from .derivations import (
    AmbiguousError, DerivationDecomposer, LatticeHom, LinearOperator,
    ResidualError, ad, check_derivation, diagonal_derivation,
    outer_lower_partial,
)
from .cohomology import (
    LinearFunctional, TableCocycle, add_skew_entry, check_cocycle, coboundary,
    targeted_triples, trivialize, verify_trivialization,
)
from .suite import render_report, run_suites


class UsageError(ValueError):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{path}: not UTF-8 text") from None


def load_config(path: str) -> AlgebraConfig:
    """The config in the file at `path`; its errors name the file (and line)."""
    try:
        return parse_config_text(_read_text(path))
    except ConfigLineError as err:
        raise ConfigError(f"{path}:{err.lineno}: {err.reason}") from None
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


# -- operator specs ---------------------------------------------------

# an optional scalar, any non-blank token that `parse_rational` then reads,
# before an optional `*`
_OP_START = re.compile(r"^\s*(?:([^\s*]+)\s*\*?\s*)?(ad|dmu|dt)\b(.*)$", re.S)


def parse_operator_spec(config: AlgebraConfig, text: str) -> LinearOperator:
    """Mini-language: '+'-joined terms of "[scalar] ad <element>",
    "[scalar] dmu <value per generator>", "[scalar] dt <index>"."""
    chunks: list[str] = []
    for piece in text.split("+"):
        if _OP_START.match(piece):
            chunks.append(piece)
        elif chunks:
            chunks[-1] += "+" + piece  # '+' inside an ad element literal
        else:
            raise UsageError(f"cannot parse operator term {piece.strip()!r}")
    parts = []
    for chunk in chunks:
        m = _OP_START.match(chunk)
        scalar = (as_number(parse_rational(m.group(1), "operator scalar"))
                  if m.group(1) else 1)
        kind = m.group(2)
        rest = m.group(3).strip()
        if kind == "ad":
            op = ad(parse_element(config, rest))
        elif kind == "dmu":
            op = diagonal_derivation(
                LatticeHom(config, [parse_rational(v, "dmu value") for v in rest.split()]))
        else:
            op = outer_lower_partial(config, config.shape.parse_index_token(rest))
        parts.append((scalar, op))
    return LinearOperator.combine(config, parts)


# -- cocycle / functional files ---------------------------------------

def _read_values(config: AlgebraConfig, path: str, width: int) -> dict:
    """{key: value} from lines of `width` basis literals and a value, the
    key being the tuple of the line's indices; a key given two different
    values is refused, and a table line (width 2) that `add_skew_entry`
    refuses is refused at its line."""
    values = {}
    skew = {}  # a table's entries as `TableCocycle` keeps them
    for lineno, line in content_lines(_read_text(path)):
        fields = line.split()
        if len(fields) != width + 1:
            raise UsageError(
                f"{path}:{lineno}: expected '{'basis-literal ' * width}value'")
        key = tuple(parse_basis_index(config, x) for x in fields[:width])
        value = parse_rational(fields[width], f"the value at {path}:{lineno}")
        if values.setdefault(key, value) != value:
            raise UsageError(f"{path}:{lineno}: conflicting duplicate "
                             f"{'index' if width == 1 else 'pair'}")
        if width == 2:
            try:
                add_skew_entry(skew, *key, value)
            except ConfigError as err:
                raise UsageError(f"{path}:{lineno}: {err}") from None
    return values


def load_functional(config: AlgebraConfig, path: str) -> LinearFunctional:
    return LinearFunctional(
        config, table={i: v for (i,), v in _read_values(config, path, 1).items()}, tag=path)


def load_table_cocycle(config: AlgebraConfig, path: str) -> TableCocycle:
    return TableCocycle(config, _read_values(config, path, 2))


def load_cocycle(config: AlgebraConfig, args):
    if args.table and args.coboundary:
        raise UsageError("give --table or --coboundary, not both")
    if args.table:
        return load_table_cocycle(config, args.table)
    if args.coboundary:
        return coboundary(load_functional(config, args.coboundary))
    raise UsageError("provide --table or --coboundary")


def _output(path):
    """A context for stdout, or the file at `path` (closed on exit) when given."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


# -- subcommands ------------------------------------------------------

def cmd_check_config(config: AlgebraConfig, args) -> int:
    shape = config.shape
    blocks = " ".join(str(x) for x in shape.ell)
    print(f"ok: blocks {blocks}, vector length {shape.dim}, "
          f"{len(config.lattice.generators)} generators, "
          f"j0 {'naturals' if config.j0_naturals else 'zero'}")
    return 0


def cmd_bracket(config: AlgebraConfig, args) -> int:
    u = parse_element(config, args.lhs)
    v = parse_element(config, args.rhs)
    result = bracket_closed(u, v)
    if args.oracle:
        check = bracket_operator(u, v)
        if check != result:
            print("route disagreement:", file=sys.stderr)
            print(f"  closed:   {format_element(result)}", file=sys.stderr)
            print(f"  operator: {format_element(check)}", file=sys.stderr)
            return 1
    print(format_element(result))
    return 0


def cmd_mul(config: AlgebraConfig, args) -> int:
    u = parse_element(config, args.lhs)
    v = parse_element(config, args.rhs)
    print(format_element(multiply(u, v)))
    return 0


def cmd_table(config: AlgebraConfig, args) -> int:
    rows = structure_rows(config, args.radius)
    with _output(args.out) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["lhs_index", "rhs_index", "result_term_index", "coefficient"])
        writer.writerows(rows)
    return 0


def cmd_suite(config: AlgebraConfig, args) -> int:
    start = time.monotonic()
    results = run_suites(config, args.seed, args.samples)
    report = render_report(config, args.seed, args.samples, results)
    with _output(args.out) as out:
        out.write(report)
    print(f"duration: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def cmd_deriv_check(config: AlgebraConfig, args) -> int:
    op = parse_operator_spec(config, args.op)
    rng = random.Random(args.seed)
    pairs = [(sample_index(config, rng), sample_index(config, rng))
             for _ in range(args.samples)]
    report = check_derivation(op, pairs)
    if report.passed:
        print(f"PASS derivation-law ({report.checked} samples)")
        return 0
    iu, iv, lhs, rhs = report.failures[0]
    print(f"FAIL derivation-law ({report.checked} samples)")
    print(f"  witness: {format_pair(iu, iv)}")
    print(f"  action on bracket: {format_element(lhs)}")
    print(f"  bracket of actions: {format_element(rhs)}")
    return 1


def cmd_deriv_decompose(config: AlgebraConfig, args) -> int:
    op = parse_operator_spec(config, args.op)
    check_decompose_cap(config, args.radius, args.inner_radius)
    window = window_indices(config, args.radius)
    inner = window_indices(config, args.inner_radius)
    decomposer = DerivationDecomposer(config, window, inner)
    try:
        result = decomposer.decompose(op)
    except ResidualError as err:
        print(f"residual: {err}")
        return 1
    except AmbiguousError as err:
        print(f"ambiguous: {err}")
        return 1
    print("outer:")
    for p, c in sorted(result.outer_coeffs.items()):
        print(f"  dt {config.shape.index_token(p)}: {c}")
    if result.hom is None:
        print("hom: none")
    else:
        print(f"hom: {' '.join(str(v) for v in result.hom.values)}")
    print(f"inner: {format_element(result.inner)}")
    print("residual: zero")
    return 0


def cmd_cocycle_check(config: AlgebraConfig, args) -> int:
    psi = load_cocycle(config, args)
    rng = random.Random(args.seed)
    triples = [tuple(sample_index(config, rng) for _ in range(3))
               for _ in range(args.triples)]
    kinds = f"{len(triples)} triples"
    if isinstance(psi, TableCocycle):
        aimed = targeted_triples(psi, rng, args.triples)
        kinds = f"{len(triples)} uniform + {len(aimed)} targeted triples"
        triples += aimed
    report = check_cocycle(psi, triples)
    if report.passed:
        print(f"PASS cocycle-axioms ({kinds})")
        return 0
    print(f"FAIL cocycle-axioms ({kinds})")
    a, b, c, total = report.failures[0]
    print(f"  sum witness: {format_pair(a, b)} , {format_basis_index(c)} -> {total}")
    return 1


def cmd_cocycle_trivialize(config: AlgebraConfig, args) -> int:
    psi = load_cocycle(config, args)
    probe = None if args.probe is None else config.shape.parse_index_token(args.probe)
    functional, window, report = _verify_on_window(
        psi, args.radius, lambda: trivialize(psi, probe))
    if not report.passed:
        return 1
    with _output(args.out) as out:
        for idx in window:
            value = functional.eval_basis(idx)
            if value:
                out.write(f"{format_basis_index(idx)} {value}\n")
    return 0


def cmd_cocycle_verify(config: AlgebraConfig, args) -> int:
    psi = load_cocycle(config, args)
    functional = load_functional(config, args.functional)
    _, _, report = _verify_on_window(psi, args.radius, lambda: functional)
    if not report.passed:
        return 1
    print(f"PASS trivialization ({report.checked} pairs)")
    return 0


def _verify_on_window(psi, radius: int, build):
    """Check the pair cap, build the functional and verify it on the radius
    window's pairs u <= v; print a failure's witness lines.  Returns
    (functional, window, report)."""
    check_pair_cap(psi.config, radius, ordered=False)
    functional = build()
    window = window_indices(psi.config, radius)
    report = verify_trivialization(
        psi, functional, itertools.combinations_with_replacement(window, 2))
    if not report.passed:
        iu, iv, lhs, rhs = report.failures[0]
        print(f"FAIL trivialization ({report.checked} pairs)")
        print(f"  witness: {format_pair(iu, iv)} -> form {lhs}, "
              f"functional-on-bracket {rhs}")
    return functional, window, report


# -- wiring -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactk",
        description="Exact contact Lie algebra workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", required=True, help="configuration file path")
        return p

    def with_form(p):
        with_config(p)
        p.add_argument("--table", help="cocycle table file")
        p.add_argument("--coboundary", help="functional file defining a coboundary")
        return p

    with_config(sub.add_parser("check-config", help="validate a configuration file")
                ).set_defaults(fn=cmd_check_config)

    p = with_config(sub.add_parser("bracket", help="bracket of two element literals"))
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the operator route")
    p.set_defaults(fn=cmd_bracket)

    p = with_config(sub.add_parser("mul", help="product of two element literals"))
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=cmd_mul)

    p = with_config(sub.add_parser("table", help="structure-constant CSV over a window"))
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)

    p = with_config(sub.add_parser("suite", help="seeded property suites"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_suite)

    deriv = sub.add_parser("deriv", help="derivation checks").add_subparsers(
        dest="subcommand", required=True)
    p = with_config(deriv.add_parser("check", help="Leibniz law on sampled pairs"))
    p.add_argument("--op", required=True, help="operator spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(fn=cmd_deriv_check)
    p = with_config(deriv.add_parser("decompose", help="window decomposition"))
    p.add_argument("--op", required=True, help="operator spec")
    p.add_argument("--radius", type=int, default=2, help="window radius")
    p.add_argument("--inner-radius", type=int, default=1,
                   help="adjoint support radius")
    p.set_defaults(fn=cmd_deriv_decompose)

    cocycle = sub.add_parser("cocycle", help="2-cocycle tools").add_subparsers(
        dest="subcommand", required=True)
    p = with_form(cocycle.add_parser("check", help="axioms on sampled triples"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--triples", type=int, default=50)
    p.set_defaults(fn=cmd_cocycle_check)
    p = with_form(cocycle.add_parser("trivialize", help="construct a trivializing functional"))
    p.add_argument("--probe", help="probe index token (default: automatic)")
    p.add_argument("--radius", type=int, default=2, help="emission window radius")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_cocycle_trivialize)
    p = with_form(cocycle.add_parser("verify", help="compare a form with a functional"))
    p.add_argument("--functional", required=True, help="functional file to verify")
    p.add_argument("--radius", type=int, default=2, help="window radius")
    p.set_defaults(fn=cmd_cocycle_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact values print in full however long they grow: lift Python's
    # limit on int-to-text digits (3.10.7 and later) for this command
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for flag in ("samples", "triples"):
            if getattr(args, flag, 1) < 1:
                raise UsageError(f"--{flag} must be at least 1")
        return args.fn(load_config(args.config), args)
    except (ConfigError, LiteralError, UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
