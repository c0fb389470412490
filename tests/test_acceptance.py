"""Acceptance suite: one test per compliance criterion.

Every check is exact rational arithmetic with zero tolerance.  Each
test prints a single PASS line with its measured counts; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

from __future__ import annotations

import csv
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from contactk import (
    AlgebraElement, DerivationDecomposer, LatticeHom, LinearFunctional,
    LinearOperator, TableCocycle, ad, basis_element, bracket_closed,
    bracket_operator, check_cocycle, check_derivation, check_mirror_identity,
    coboundary, diagonal_derivation, hom_space_basis, mirror_difference_hom,
    outer_indices, run_suites, sample_index, structure_rows, trivialize,
    unit, window_indices, zero_slot_hom,
)
from contactk.algebra import bracket_terms
from contactk.derivations import outer_lower_partial
from contactk.linalg import as_number
from conftest import scale_partial

GOLDEN = Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent


def _term(config, idx, coeff=1):
    # integral coefficients as int, the way the element parser gives them
    return AlgebraElement.from_term(config, idx, as_number(Fraction(coeff)))


def _pairs(config, seed, count):
    rng = random.Random(seed)
    return [(sample_index(config, rng), sample_index(config, rng))
            for _ in range(count)]


# -- 1: the two bracket routes agree ----------------------------------

def test_criterion_1_oracle_equivalence(all_configs):
    per_config = 1000
    total = 0
    for name, config in sorted(all_configs.items()):
        if name == "l6z":
            continue  # seven configurations: one per block plus mixed
        start = time.monotonic()
        rng = random.Random(101)
        for _ in range(per_config):
            u = _term(config, sample_index(config, rng))
            v = _term(config, sample_index(config, rng))
            assert bracket_closed(u, v) == bracket_operator(u, v), (
                name, u.terms, v.terms)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, (name, elapsed)
        total += per_config
    assert total == 7000
    print(f"\nPASS criterion-1: closed and operator brackets agree on "
          f"{total} random basis pairs across 7 configurations")


# -- 2: Lie axioms ----------------------------------------------------

def test_criterion_2_lie_axioms(all_configs):
    anti = jacobi = 0
    for name, config in sorted(all_configs.items()):
        if name == "l6z":
            continue
        rng = random.Random(102)
        for _ in range(1000):
            u = _term(config, sample_index(config, rng))
            v = _term(config, sample_index(config, rng))
            assert (bracket_closed(u, v) + bracket_closed(v, u)).terms == {}
            assert bracket_closed(u, u).terms == {}
            anti += 1
        for _ in range(500):
            u, v, w = (_term(config, sample_index(config, rng))
                       for _ in range(3))
            total = (bracket_closed(u, bracket_closed(v, w))
                     + bracket_closed(v, bracket_closed(w, u))
                     + bracket_closed(w, bracket_closed(u, v)))
            assert total.terms == {}, name
            jacobi += 1
    print(f"\nPASS criterion-2: antisymmetry on {anti} pairs, "
          f"Jacobi on {jacobi} triples, all exactly zero")


# -- 3: pinned structure constants ------------------------------------

def _render_table(config, radius) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lhs_index", "rhs_index", "result_term_index", "coefficient"])
    writer.writerows(structure_rows(config, radius))
    return buf.getvalue().encode()

PINNED_ROWS = {
    # unit bracket: doubled zero-slot coordinate and doubled lowered
    # zero-slot exponent
    "l6n_r1.csv": [
        '"x[0,0,0]","x[1,0,0]","x[1,0,0]",2',
        '"x[0,0,0]","x[1,0,0]t[1,0,0]","x[1,0,0]t[1,0,0]",2',
        '"x[0,0,0]","x[1,0,0]t[1,0,0]","x[1,0,0]",2',
    ],
    # shift-inverse bracket, plain paired block: mirror-difference scaling
    # plus the four commutation/pairing identities of the probe squares
    "caseB_r2.csv": [
        '"x[0,1,1]","x[0,1,0]","x[0,1,0]",-1',
        '"x[0,0,0]","x[0,0,2]",0,0',
        '"x[2,0,0]","x[0,0,2]",0,0',
        '"x[0,1,1]","x[0,0,2]","x[0,0,2]",2',
        '"x[0,2,0]","x[0,0,2]","x[0,1,1]",4',
    ],
    # shift-inverse bracket with one exponent-lowering term
    "l2_r1.csv": ['"x[0,1,1]","x[0,0,0]t[0,0,1]","x[0,0,0]",1'],
    # shift-inverse bracket with both lowering terms
    "l3_r1.csv": [
        '"x[0,1,1]","x[0,0,0]t[0,1,1]","x[0,0,0]t[0,0,1]",-1',
        '"x[0,1,1]","x[0,0,0]t[0,1,1]","x[0,0,0]t[0,1,0]",1',
    ],
    # single-sided blocks: eigenvalue -beta_q + j_mirror, no lowering
    "l4_r1.csv": [
        '"x[0,1,0]t[0,0,1]","x[0,1,0]","x[0,1,0]",-1',
        '"x[0,1,0]t[0,0,1]","x[0,0,0]t[0,0,1]","x[0,0,0]t[0,0,1]",1',
    ],
    # single-sided lowering block: extra -j_q lowered term
    "l5_r1.csv": ['"x[0,1,0]t[0,0,1]","x[0,0,0]t[0,1,0]","x[0,0,0]",-1'],
    # exponent-pair bracket: j_mirror - j_p eigenvalue
    "l6z_r1.csv": ['"x[0,0,0]t[0,1,1]","x[0,0,0]t[0,1,0]","x[0,0,0]t[0,1,0]",-1'],
}


def test_criterion_3_pinned_structure_constants(all_configs):
    plans = [
        ("caseB_r2.csv", all_configs["caseB"], 2),
        ("l2_r1.csv", all_configs["l2"], 1),
        ("l3_r1.csv", all_configs["l3"], 1),
        ("l4_r1.csv", all_configs["l4"], 1),
        ("l5_r1.csv", all_configs["l5"], 1),
        ("l6z_r1.csv", all_configs["l6z"], 1),
        ("l6n_r1.csv", all_configs["l6n"], 1),
    ]
    pinned = 0
    for fname, config, radius in plans:
        data = _render_table(config, radius)
        assert data == (GOLDEN / fname).read_bytes(), f"{fname} drifted"
        lines = set(data.decode().splitlines())
        for row in PINNED_ROWS.get(fname, ()):
            assert row in lines, (fname, row)
            pinned += 1
    assert pinned == sum(len(v) for v in PINNED_ROWS.values())
    print(f"\nPASS criterion-3: {pinned} hand-pinned structure-constant rows "
          f"reproduced and 7 golden tables byte-identical")


# -- 4: exponent-pair eigen-relations ---------------------------------

def test_criterion_4_eigen_relations(cfg_l6n, cfg_mixed):
    checked = 0
    for config in (cfg_l6n, cfg_mixed):
        shape = config.shape
        zero = config.lattice.zero.coords
        rng = random.Random(104)
        for p in shape.blocks(6, 6):
            sp, spb = shape.slot(p), shape.slot(shape.mirror(p))
            pair = basis_element(
                config, zero, config.zero_exps.raised(sp).raised(spb))
            t2p = basis_element(
                config, zero, config.zero_exps.raised(sp).raised(sp))
            t2pb = basis_element(
                config, zero, config.zero_exps.raised(spb).raised(spb))
            for _ in range(60):
                idx = sample_index(config, rng)
                u = _term(config, idx)
                i_p, i_pb = idx.exps[sp], idx.exps[spb]
                assert bracket_closed(pair, u) == (i_pb - i_p) * u
                nested = bracket_closed(t2pb, bracket_closed(t2p, u))
                assert nested == (-4 * (i_p + 1) * i_pb) * u
                checked += 1
    assert checked >= 100
    print(f"\nPASS criterion-4: exponent-pair eigenvalues (j_mirror - j_p) "
          f"and -4(j_p+1)j_mirror exact on {checked} random basis elements")


# -- 5: derivation laws -----------------------------------------------

def _random_hom(config, rng):
    basis = hom_space_basis(config)
    values = [Fraction(0)] * len(config.lattice.generators)
    for h in basis:
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        values = [a + c * b for a, b in zip(values, h.values)]
    return LatticeHom(config, values)


def test_criterion_5_derivation_laws(all_configs):
    law_checks = 0
    for name, config in sorted(all_configs.items()):
        rng = random.Random(105)
        pairs = _pairs(config, 1050, 500)
        for _ in range(10):
            D = diagonal_derivation(_random_hom(config, rng))
            report = check_derivation(D, pairs)
            assert report.passed, (name, report.failures[:1])
            law_checks += report.checked
        for p in outer_indices(config):
            report = check_derivation(outer_lower_partial(config, p), pairs)
            assert report.passed, (name, p, report.failures[:1])
            law_checks += report.checked

    identity_checks = 0
    for name in ("caseB", "l2", "l3"):
        config = all_configs[name]
        window = window_indices(config, 3)
        for p in config.shape.blocks(1, 3):
            report = check_mirror_identity(config, p, window)
            assert report.passed, (name, p, report.failures[:1])
            identity_checks += report.checked
    mixed = all_configs["mixed"]
    rng = random.Random(1055)
    sampled = [sample_index(mixed, rng) for _ in range(600)]
    for p in mixed.shape.blocks(1, 3):
        report = check_mirror_identity(mixed, p, sampled)
        assert report.passed, ("mixed", p, report.failures[:1])
        identity_checks += report.checked
    print(f"\nPASS criterion-5: Leibniz law on {law_checks} operator-pair "
          f"checks; mirror identity on {identity_checks} window indices")


# -- 6: finite-scale decomposition ------------------------------------

def _pivot_translations(config):
    """Inner/outer equivalents of the pivot homs over the solver columns."""
    out = []
    shape = config.shape
    for p in shape.blocks(1, 3):
        inner = config.shift_coords[p].neg().coords
        outer = {}
        if shape.block_of(p) >= 3:
            outer[p] = Fraction(1)
        if shape.block_of(p) >= 2:
            outer[shape.mirror(p)] = Fraction(-1)
        out.append((mirror_difference_hom(config, p), inner, None, outer))
    if not config.j0_naturals and config.lattice.has_zero_slot:
        out.append((zero_slot_hom(config),
                    config.lattice.zero.coords, Fraction(1, 2), {}))
    return out


def _decomposition_model(config, decomposer, rng, translations):
    parts = []
    outer = {p: Fraction(0) for p in decomposer.outer}
    for p in decomposer.outer:
        c = Fraction(rng.randrange(-4, 5))
        outer[p] = c
        if c:
            parts.append((c, outer_lower_partial(config, p)))
    star = []
    for hom in decomposer.star:
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
        star.append(c)
        if c:
            parts.append((c, diagonal_derivation(hom)))
    inner = AlgebraElement.zero(config)
    support = decomposer.inner_support
    for k in rng.sample(range(len(support)), 5):
        c = Fraction(rng.randrange(-3, 4))
        if c:
            inner = inner + _term(config, support[k], c)
    if inner.terms:
        parts.append((Fraction(1), ad(inner)))
    # a diagonal part outside the star directions, folded via its
    # known inner/outer equivalent
    for hom, inner_coords, unit_half, outer_shift in translations:
        a = Fraction(rng.randrange(-2, 3))
        if not a:
            continue
        parts.append((a, diagonal_derivation(hom)))
        scale = a * unit_half if unit_half else a
        inner = inner + scale * basis_element(config, inner_coords)
        for p, c in outer_shift.items():
            outer[p] = outer.get(p, Fraction(0)) + a * c
    if not parts:
        inner = unit(config)
        parts.append((Fraction(1), ad(inner)))
    return LinearOperator.combine(config, parts), outer, tuple(star), inner


def test_criterion_6_decomposition(all_configs, cfg_decomp):
    runs = 0
    plans = [("caseB", 20, 4, 3), ("l6z", 20, 4, 3), ("l5", 10, 4, 3),
             ("decomp", 8, 2, 1)]
    configs = dict(all_configs)
    configs["decomp"] = cfg_decomp
    for name, count, wr, ir in plans:
        config = configs[name]
        decomposer = DerivationDecomposer(
            config, window_indices(config, wr), window_indices(config, ir))
        # unique solve at window radius 4: every direction pivoted
        assert decomposer.rank == len(decomposer.labels), name
        translations = _pivot_translations(config)
        rng = random.Random(106)
        for _ in range(count):
            D, outer, star, inner = _decomposition_model(
                config, decomposer, rng, translations)
            got = decomposer.decompose(D)
            assert got.outer_coeffs == outer, name
            assert got.hom_coords == star, name
            assert got.inner == inner, name
            runs += 1
    assert runs >= 50
    print(f"\nPASS criterion-6: {runs} random derivations decomposed with "
          f"exact coefficient recovery; solves unique at window radius 4")


# -- 7: trivialization round trip -------------------------------------

def _bracket_rows(config, radius):
    """Nonzero window brackets as rows of (result position, int coefficient),
    plus the distinct result indices in order of position."""
    window = window_indices(config, radius)
    position: dict = {}
    rows = []
    for i, iu in enumerate(window):
        # unordered pairs suffice: both the coboundary of g and the
        # coboundary of the recovered f are skew by construction
        for iv in window[i + 1:]:
            terms = bracket_terms(config, iu, iv)
            if terms:
                assert all(c.denominator == 1 for c in terms.values())
                rows.append(tuple((position.setdefault(r, len(position)), int(c))
                                  for r, c in terms.items()))
    return rows, list(position)


def _rows_that_differ(f, g, rows, results, touching):
    """Positions of the rows whose sums under f and under g differ.  The
    sums are equal exactly when d = f - g sums to zero on the row, so
    d is evaluated once per result index and only the rows that touch an
    index with d != 0 are summed: every other row sums d to zero."""
    d = [f.eval_basis(r) - g.eval_basis(r) for r in results]
    hit = sorted({n for k, dk in enumerate(d) if dk for n in touching[k]})
    return [n for n in hit if sum(c * d[k] for k, c in rows[n])]


def test_criterion_7_trivialization_round_trip(cfg_l2, cfg_caseB):
    start = time.monotonic()
    runs = 0
    pair_checks = 0
    for config in (cfg_l2, cfg_caseB):
        window = window_indices(config, 3)
        rows, results = _bracket_rows(config, 3)
        touching = [[] for _ in results]
        for n, row in enumerate(rows):
            for k, _ in row:
                touching[k].append(n)
        rng = random.Random(107)
        for _ in range(25):
            support = rng.sample(window, 20)
            g = LinearFunctional(config, table={
                idx: Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                for idx in support}, tag="g")
            f = trivialize(coboundary(g))
            assert _rows_that_differ(f, g, rows, results, touching) == [], \
                config.shape.ell
            runs += 1
            pair_checks += len(rows)
        # negative control: a trivializer wrong at one result index fails
        off = results[len(results) // 2]
        wrong = LinearFunctional(
            config, rule=lambda b: f.eval_basis(b) + (b == off))
        assert _rows_that_differ(wrong, g, rows, results, touching)
    elapsed = time.monotonic() - start
    assert runs == 50
    assert elapsed < 300.0, elapsed
    print(f"\nPASS criterion-7: {runs} random functionals recovered through "
          f"trivialize across {pair_checks} nonzero bracket pairs "
          f"in {elapsed:.1f}s")


# -- 8: negative controls ---------------------------------------------

def test_criterion_8_negative_controls(cfg_caseB):
    config = cfg_caseB
    # (a) a skew table that is not closed must produce a sum witness
    rng = random.Random(108)
    window = window_indices(config, 1)
    entries = {}
    for _ in range(40):
        a, b = rng.sample(window, 2)
        if (b, a) not in entries:
            entries[(a, b)] = Fraction(rng.randrange(1, 6))
    psi = TableCocycle(config, entries)
    triples = [tuple(rng.choice(window) for _ in range(3))
               for _ in range(300)]
    sums = check_cocycle(psi, triples)
    assert not sums.passed and sums.failures
    witness_triple = sums.failures[0][:3]
    assert len(witness_triple) == 3

    # (b) the grading half of the mixed operator alone breaks Leibniz
    D = LinearOperator(config, lambda idx: scale_partial(
        1, _term(config, idx)).terms, "scale 1")
    dreport = check_derivation(D, _pairs(config, 1080, 80))
    assert not dreport.passed and dreport.failures

    # (c) a corrupted bracket fails the Jacobi suite with a witness
    from contactk import multiply

    def bad_bracket(u, v):
        return bracket_closed(u, v) + multiply(u, v)

    results = {r.name: r for r in run_suites(
        config, seed=108, samples=60, bracket_fn=bad_bracket)}
    assert not results["jacobi"].passed and results["jacobi"].witness
    print("\nPASS criterion-8: non-cocycle, non-derivation, and corrupted "
          "bracket each rejected with a witness")


# -- 9: deterministic reports -----------------------------------------

def test_criterion_9_suite_determinism():
    cmd = [sys.executable, "-m", "contactk.cli", "suite",
           "--config", str(GOLDEN / "l2.cfg"), "--seed", "5",
           "--samples", "120"]
    first = subprocess.run(cmd, capture_output=True, cwd=str(GOLDEN.parent.parent))
    second = subprocess.run(cmd, capture_output=True, cwd=str(GOLDEN.parent.parent))
    assert first.returncode == second.returncode == 0, first.stderr.decode()
    assert first.stdout == second.stdout
    assert b"result: PASS" in first.stdout
    print("\nPASS criterion-9: suite reports byte-identical across two runs")


def _under_two_hash_seeds(args: list[str]) -> list[tuple]:
    """(exit code, stdout, stderr less `duration:` lines) of `python args`,
    with this tree's `src` on the path, under two hash seeds."""
    runs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=ROOT)
        stderr = b"".join(line for line in done.stderr.splitlines(keepends=True)
                          if not line.startswith(b"duration:"))
        runs.append((done.returncode, done.stdout, stderr))
    return runs


def test_criterion_9_outputs_under_two_hash_seeds(tmp_path):
    # string hashing moves with PYTHONHASHSEED, so set and dict iteration
    # over strings may too; each command exits alike and prints the same
    # bytes under two seeds.  Negative control: printing hash("a") differs
    form = tmp_path / "t.tab"
    form.write_text("x[0,0,-1]t[0,0,1] x[0,-1,1] 3/2\n")
    l2 = ["--config", str(GOLDEN / "l2.cfg")]
    commands = [["suite", "--config", str(ROOT / "bench" / "configs" / "mixed.cfg")],
                ["table", *l2, "--radius", "1"],
                ["cocycle", "check", *l2, "--table", str(form)],
                ["deriv", "decompose", *l2, "--op=dmu 1 -1"]]
    for command in commands:
        first, second = _under_two_hash_seeds(["-m", "contactk.cli", *command])
        assert first[0] != 2 and first[1], (command, first[2])
        assert first == second, command
    first, second = _under_two_hash_seeds(["-c", "print(hash('a'))"])
    assert first != second
    print(f"\nPASS criterion-9: {len(commands)} commands byte-identical under two hash seeds")
