"""The four benchmark workloads: in-process equivalents of contactk commands.

Each workload has `setup(config_dir)`, run before timing; `draw(state, rng)`,
the seeded input of one op, made outside the timed region; `op(state, inp,
tr)`, the timed op; and `check(state, inp, out, rng, tr, first)`, which raises
`CheckFailed` unless the op's output agrees with a computation made apart
from the route under test.

An op is one command invocation per config: `op` calls the same public
functions in the same order as the command, and yields `(config name,
output)` after each invocation, so that the runner can time every step
on its own.

Config texts live in `configs/` next to this file, so edits to the test
goldens cannot change what the benchmark measures.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction

from contactk import (
    AlgebraElement, DerivationDecomposer, LinearFunctional, bracket_closed,
    bracket_operator, coboundary, format_basis_index, hom_star_basis,
    outer_indices, parse_basis_index, render_report, run_suites,
    structure_rows, trivialize, verify_trivialization, window_indices,
)
from contactk.cli import load_config, parse_operator_spec


class CheckFailed(AssertionError):
    """An op's output disagrees with the benchmark's own computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- independent text parsing ------------------------------------------

_LITERAL = re.compile(r"^x\[([^\]]*)\](?:t\[([^\]]*)\])?$")


def literal_key(text: str) -> tuple:
    """(group vector, exponent vector) of a printed basis monomial."""
    m = _LITERAL.match(text)
    require(m is not None, f"unparseable basis literal {text!r}")
    vector = tuple(Fraction(x) for x in m.group(1).split(","))
    if m.group(2) is None:
        exps = (0,) * len(vector)
    else:
        exps = tuple(int(x) for x in m.group(2).split(","))
    return vector, exps


def index_key(index) -> tuple:
    """The same key read off a contactk basis index."""
    return tuple(Fraction(x) for x in index.alpha.vector), tuple(index.exps)


def element_key(element) -> dict:
    return {index_key(i): Fraction(c) for i, c in element.terms.items()}


def literal_text(key) -> str:
    vector, exps = key
    body = "x[" + ",".join(str(x) for x in vector) + "]"
    if any(exps):
        body += "t[" + ",".join(str(e) for e in exps) + "]"
    return body


# -- table: `contactk table` on every golden config --------------------

class Table:
    """Structure-constant CSV for every golden config at its golden radius."""

    PLAN = (("caseB", 2), ("l2", 1), ("l3", 1), ("l4", 1), ("l5", 1),
            ("l6n", 1), ("l6z", 1))
    HEADER = ["lhs_index", "rhs_index", "result_term_index", "coefficient"]
    ORACLE_PAIRS = 40

    @staticmethod
    def setup(config_dir):
        return {name: (config_dir / f"{name}.cfg", radius) for name, radius in Table.PLAN}

    @staticmethod
    def draw(state, rng):
        return None

    @staticmethod
    def op(state, inp, tr):
        for name, (path, radius) in state.items():
            with tr.span("cli.load_config_ms"):
                config = load_config(path)
            with tr.span("algebra.structure_rows_ms"):
                rows = structure_rows(config, radius)
            tr.count("algebra.table_rows", len(rows))
            with tr.span("cli.csv_write_ms"):
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(Table.HEADER)
                writer.writerows(rows)
                text = buf.getvalue()
            yield name, (config, radius, text)

    @staticmethod
    def check(state, inp, out, rng, tr, first):
        for name, (config, radius, text) in out.items():
            Table.check_csv(name, config, radius, text, rng, tr)

    @staticmethod
    def check_csv(name, config, radius, text, rng, tr):
        reader = csv.reader(io.StringIO(text))
        require(next(reader) == Table.HEADER, f"{name}: bad CSV header")
        pairs: dict[tuple, dict] = {}
        zero_rows = set()
        for row in reader:
            require(len(row) == 4, f"{name}: CSV row {row} has {len(row)} fields")
            lhs, rhs, result, coeff = row
            terms = pairs.setdefault((lhs, rhs), {})
            if result == "0":
                require(coeff == "0", f"{name}: zero row with coefficient {coeff}")
                zero_rows.add((lhs, rhs))
                continue
            value = Fraction(coeff)
            require(value != 0 and result not in terms,
                    f"{name}: bad row {lhs} {rhs} {result} {coeff}")
            terms[result] = value
        for key in zero_rows:
            require(not pairs[key], f"{name}: zero row beside terms for {key}")

        labels = {lhs for lhs, _ in pairs}
        require(len(labels) == len(window_indices(config, radius))
                and len(pairs) == len(labels) ** 2,
                f"{name}: CSV does not hold every ordered window pair")
        for (lhs, rhs), terms in pairs.items():
            flipped = pairs[(rhs, lhs)]
            require(len(flipped) == len(terms)
                    and all(flipped.get(r) == -c for r, c in terms.items()),
                    f"{name}: [{lhs},{rhs}] is not minus [{rhs},{lhs}]")

        sample = rng.sample(sorted(pairs), Table.ORACLE_PAIRS)
        elements = [(AlgebraElement.from_term(config, parse_basis_index(config, lhs)),
                     AlgebraElement.from_term(config, parse_basis_index(config, rhs)))
                    for lhs, rhs in sample]
        span = f"algebra.bracket_operator_us.{name}"
        with tr.span(span):
            oracle = [bracket_operator(u, v) for u, v in elements]
        tr.count(span, len(elements))
        for (lhs, rhs), expected in zip(sample, oracle):
            got = {literal_key(r): c for r, c in pairs[(lhs, rhs)].items()}
            require(got == element_key(expected),
                    f"{name}: CSV row for [{lhs},{rhs}] differs from bracket_operator")
        if tr.enabled:
            span = f"algebra.bracket_closed_us.{name}"
            with tr.span(span):
                for u, v in elements:
                    bracket_closed(u, v)
            tr.count(span, len(elements))


# -- suite: `contactk suite` on the golden configs plus mixed ----------

class Suite:
    """Seeded property suites at the command's default sample count."""

    CONFIGS = ("caseB", "l2", "l3", "l4", "l5", "l6n", "l6z", "mixed")
    SAMPLES = 200
    # the suites every config runs, with the samples each must report
    FIXED = {"oracle-equivalence": SAMPLES, "antisymmetry": SAMPLES,
             "jacobi": SAMPLES // 2, "product-rule": SAMPLES,
             "grading-eigenvalue": SAMPLES}
    DETERMINISM_CONFIG = "l2"
    _RESULT = re.compile(r"^(PASS|FAIL) (\S+) \((\d+) samples\)$")

    @staticmethod
    def setup(config_dir):
        return {name: load_config(config_dir / f"{name}.cfg") for name in Suite.CONFIGS}

    @staticmethod
    def draw(state, rng):
        return rng.randrange(10 ** 9)

    @staticmethod
    def op(state, seed, tr):
        for name, config in state.items():
            with tr.span(f"suite.run_suites_ms.{name}"):
                results = run_suites(config, seed, Suite.SAMPLES)
            with tr.span("suite.render_report_ms"):
                report = render_report(config, seed, Suite.SAMPLES, results)
            tr.count("suite.samples_checked", sum(r.samples for r in results))
            yield name, report

    @staticmethod
    def check(state, seed, out, rng, tr, first):
        for name, report in out.items():
            Suite.check_report(name, seed, report)
        if first:
            name = Suite.DETERMINISM_CONFIG
            config = state[name]
            again = render_report(config, seed, Suite.SAMPLES,
                                  run_suites(config, seed, Suite.SAMPLES))
            require(again == out[name], f"{name}: report not reproducible from its seed")

    @staticmethod
    def check_report(name, seed, report):
        lines = report.split("\n")
        require(lines[-1] == "" and lines[0].startswith("configuration: ")
                and lines[1] == f"seed: {seed}"
                and lines[2] == f"samples: {Suite.SAMPLES}",
                f"{name}: malformed report header")
        counts = {}
        for line in lines[3:-2]:
            m = Suite._RESULT.match(line)
            require(m is not None and m.group(1) == "PASS",
                    f"{name}: {line.strip()}")
            counts[m.group(2)] = int(m.group(3))
        for suite, samples in Suite.FIXED.items():
            require(counts.get(suite) == samples,
                    f"{name}: {suite} ran {counts.get(suite)} samples, not {samples}")
        law = Suite.SAMPLES // 4
        law_checked = counts.get("derivation-law", 0)
        require(law_checked > 0 and law_checked % law == 0,
                f"{name}: derivation-law samples are not a multiple of {law}")
        require(counts.get("round-trip", law) >= law,
                f"{name}: round-trip checked too few pairs")
        require(lines[-2] == f"result: PASS ({len(counts)}/{len(counts)})",
                f"{name}: {lines[-2]}")


# -- decompose: `contactk deriv decompose` on a seeded operator --------

class Decompose:
    """Window factorization plus one decomposition per config."""

    # (config, window radius, inner radius): criterion 6's zero-slot
    # block-2 lattice keeps its radii 2 / 1; the single-block configs use
    # 3 / 2, where the solve is already unique, since criterion 6's 4 / 3
    # takes about 1.4 s per factorization on l5 and l6n
    PLAN = (("caseB", 3, 2), ("l6n", 3, 2), ("l5", 3, 2), ("decomp", 2, 1))
    INNER_TERMS = 5

    @staticmethod
    def setup(config_dir):
        state = {}
        for name, radius, inner_radius in Decompose.PLAN:
            config = load_config(config_dir / f"{name}.cfg")
            state[name] = (config, radius, inner_radius, outer_indices(config),
                           hom_star_basis(config), window_indices(config, inner_radius))
        return state

    @staticmethod
    def draw(state, rng):
        """Known parts per config and the operator spec that sums them."""
        inp = {}
        for name, (config, _r, _ir, outer, star, support) in state.items():
            outer_coeffs = {p: Fraction(rng.randrange(-4, 5)) for p in outer}
            hom_coords = tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                               for _ in star)
            inner = {index_key(i): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
                     for i in rng.sample(support, Decompose.INNER_TERMS)}
            parts = [f"{c} dt {config.shape.index_token(p)}"
                     for p, c in outer_coeffs.items() if c]
            if any(hom_coords):
                values = [sum(c * h.values[k] for c, h in zip(hom_coords, star))
                          for k in range(len(config.lattice.generators))]
                parts.append("dmu " + " ".join(str(v) for v in values))
            parts.append("ad " + " + ".join(
                f"{c}*{literal_text(key)}" for key, c in inner.items()))
            inp[name] = (" + ".join(parts), outer_coeffs, hom_coords, inner)
        return inp

    @staticmethod
    def op(state, inp, tr):
        for name, (config, radius, inner_radius, *_rest) in state.items():
            operator = parse_operator_spec(config, inp[name][0])
            with tr.span("algebra.window_indices_ms"):
                window = window_indices(config, radius)
                inner = window_indices(config, inner_radius)
            with tr.span(f"derivations.factorize_ms.{name}"):
                decomposer = DerivationDecomposer(config, window, inner)
            tr.count(f"derivations.rank.{name}", decomposer.rank)
            with tr.span(f"derivations.decompose_ms.{name}"):
                result = decomposer.decompose(operator)
            yield name, result

    @staticmethod
    def check(state, inp, out, rng, tr, first):
        for name, result in out.items():
            _spec, outer_coeffs, hom_coords, inner = inp[name]
            require(result.outer_coeffs == outer_coeffs,
                    f"{name}: outer coefficients {result.outer_coeffs} != {outer_coeffs}")
            require(result.hom_coords == hom_coords,
                    f"{name}: hom coordinates {result.hom_coords} != {hom_coords}")
            require(element_key(result.inner) == inner,
                    f"{name}: inner element differs from the one built")


# -- roundtrip: `cocycle trivialize` then `cocycle verify` -------------

class Roundtrip:
    """Coboundary of a seeded functional, trivialized and verified."""

    # (config, probe token or None for the closed form, window radius):
    # radius 2 is the commands' default; l3 uses 1, since its radius-2
    # window holds 228,150 pairs and one sweep takes about 12 s
    PLAN = (("caseB", None, 2), ("l2", "1", 2), ("l3", "1", 1),
            ("l5", "1", 2), ("l6n", "0", 2))
    G_TERMS = 20
    ORACLE_PAIRS = 30

    @staticmethod
    def setup(config_dir):
        state = {}
        for name, probe, radius in Roundtrip.PLAN:
            config = load_config(config_dir / f"{name}.cfg")
            window = window_indices(config, radius)
            pairs = [(window[i], window[j])
                     for i in range(len(window)) for j in range(i, len(window))]
            token = config.shape.parse_index_token(probe) if probe else None
            state[name] = (config, token, window, pairs)
        return state

    @staticmethod
    def draw(state, rng):
        return {name: {i: Fraction(rng.choice([x for x in range(-6, 7) if x]),
                                   rng.randrange(1, 4))
                       for i in rng.sample(window, Roundtrip.G_TERMS)}
                for name, (_config, _probe, window, _pairs) in state.items()}

    @staticmethod
    def op(state, tables, tr):
        for name, (config, probe, window, pairs) in state.items():
            psi = coboundary(LinearFunctional(config, table=tables[name], tag="g"))
            f = trivialize(psi, probe)
            yield name, (Roundtrip.emit(f, window, tr, name), f,
                         Roundtrip.verify(psi, f, pairs, tr, name))

    @staticmethod
    def emit(f, window, tr, name):
        """The lines `cocycle trivialize` writes: nonzero values of f."""
        with tr.span(f"cohomology.emit_ms.{name}"):
            buf = io.StringIO()
            for idx in window:
                value = f.eval_basis(idx)
                if value:
                    buf.write(f"{format_basis_index(idx)} {value}\n")
            return buf.getvalue()

    @staticmethod
    def verify(psi, f, pairs, tr, name):
        with tr.span(f"cohomology.verify_ms.{name}"):
            report = verify_trivialization(psi, f, pairs)
        tr.count(f"cohomology.pairs_checked.{name}", report.checked)
        return report

    @staticmethod
    def check(state, tables, out, rng, tr, first):
        for name, (text, f, report) in out.items():
            config, _probe, _window, pairs = state[name]
            g = {index_key(i): c for i, c in tables[name].items()}
            require(report.passed and report.checked == len(pairs),
                    f"{name}: verifier passed {report.checked - len(report.failures)}"
                    f" of {len(pairs)} pairs")
            # these algebras are perfect, so f = g on the window
            emitted = {}
            for line in text.splitlines():
                literal, value = line.split(" ")
                emitted[literal_key(literal)] = Fraction(value)
            require(emitted == g, f"{name}: emitted f differs from g on the window")
            for iu, iv in rng.sample(pairs, Roundtrip.ORACLE_PAIRS):
                bracket = bracket_operator(AlgebraElement.from_term(config, iu),
                                           AlgebraElement.from_term(config, iv))
                lhs = sum(c * f.eval_basis(r) for r, c in bracket.terms.items())
                rhs = sum(c * g.get(index_key(r), 0) for r, c in bracket.terms.items())
                require(lhs == rhs, f"{name}: f([u,v]) != g([u,v]) at "
                        f"{format_basis_index(iu)} , {format_basis_index(iv)}")


WORKLOADS = {"table": Table, "suite": Suite, "decompose": Decompose,
             "roundtrip": Roundtrip}

_TABLE_CONFIGS = [name for name, _radius in Table.PLAN]
_DECOMPOSE_CONFIGS = [name for name, *_radii in Decompose.PLAN]
_ROUNDTRIP_CONFIGS = [name for name, *_rest in Roundtrip.PLAN]
# the per-layer metrics every traced run reports; units follow the names
# (see `tracing.Tracer.layer_metrics`)
LAYER_METRICS = (
    ["cli.load_config_ms", "cli.csv_write_ms",
     "algebra.structure_rows_ms", "algebra.table_rows",
     "algebra.window_indices_ms"]
    + [f"algebra.bracket_closed_us.{c}" for c in _TABLE_CONFIGS]
    + [f"algebra.bracket_operator_us.{c}" for c in _TABLE_CONFIGS]
    + [f"suite.run_suites_ms.{c}" for c in Suite.CONFIGS]
    + ["suite.render_report_ms", "suite.samples_checked"]
    + [f"derivations.{m}.{c}" for m in ("factorize_ms", "decompose_ms", "rank")
       for c in _DECOMPOSE_CONFIGS]
    + [f"cohomology.{m}.{c}" for m in ("emit_ms", "verify_ms", "pairs_checked")
       for c in _ROUNDTRIP_CONFIGS])
