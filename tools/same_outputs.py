"""Check that two contactk trees give byte-identical command outputs.

    python3 tools/same_outputs.py PARENT CHANGE

Runs one fixed list of `contactk` commands against `PARENT/src` and
against `CHANGE/src`, each command in a fresh `python -m contactk.cli`
process, and compares per command the exit code, stdout, stderr (less
`suite`'s `duration:` line) and the `--out` file when there is one.  It
prints how many commands ran, how many differ, the exit codes seen, the
first difference, and per command kind and config how many commands
differ; its exit code is 1 when any command differs.

The commands: `table` on the goldens in `PARENT/tests/golden` at their
golden radii; then on each config in `PARENT/bench/configs`, `check-config`,
`suite`, `deriv check` and `deriv decompose` on seeded operator specs, and
`cocycle check`, `trivialize` and `verify` on seeded coboundary and table
forms, and `bracket`, `bracket --oracle` and `mul` on sampled elements
of one to three terms, and `trivialize --probe` at every recursion probe
(on a closed-form config, at a probe it refuses); last, three exit-2
commands on a missing config file, two of them with a count below 1,
which is reported first, and six on malformed input: a config with an
unknown key, a config with no `gamma` line, a `dmu` spec with one value
too few, a literal with an exponent at a slot its config switches off, a
table file with a pair at two values, and a functional file with a
literal that does not parse; and four on the number grammar: a decimal
coefficient and a decimal operator scalar, and each with a `_` separator
in it.  The inputs are drawn from fixed seeds with
PARENT's own contactk (windows, sampling and literal formatting), so both
trees read the same files.  Standard library only.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

# the README's l2 form, which fails `check` at its defaults
L2_FORM = "x[0,0,-1]t[0,0,1] x[0,-1,1] 3/2\n"


def _inputs(parent: Path, work: Path) -> list[list[str]]:
    """The command list, as argv lists after `contactk`; writes the form
    and functional files they read into `work`.  An `--out` argument is
    written as `{out}` and filled in per tree."""
    sys.path.insert(0, str(parent / "src"))
    from contactk import (
        basis_element, closed_form_regime, format_basis_index, format_element,
        hom_space_basis, outer_indices, recursion_probes, sample_element, sample_index,
        window_indices, window_size,
    )
    from contactk.cli import load_config

    commands = []
    for golden in sorted((parent / "tests" / "golden").glob("*_r*.csv")):
        name, radius = golden.stem.rsplit("_r", 1)
        cfg = parent / "tests" / "golden" / f"{name}.cfg"
        commands.append(["table", "--config", str(cfg), "--radius", radius,
                         "--out", "{out}"])

    for cfg in sorted((parent / "bench" / "configs").glob("*.cfg")):
        name, config = cfg.stem, load_config(cfg)
        at = ["--config", str(cfg)]
        rng = random.Random(name)
        commands.append(["check-config", *at])
        for seed, samples in ((0, 60), (5, 80)):
            commands.append(["suite", *at, "--seed", str(seed), "--samples", str(samples)])

        # operator specs: ad, each outer dt, each hom, a sum of them, an
        # ad far outside the inner support, and a dt that is not outer
        tokens = [config.shape.index_token(p) for p in outer_indices(config)]
        element = format_element(sample_element(config, rng))
        specs = [f"ad {element}", *(f"dt {t}" for t in tokens)]
        specs += ["dmu " + " ".join(map(str, h.values)) for h in hom_space_basis(config)[:2]]
        specs.append(" + ".join([f"2 dt {t}" for t in tokens] + [f"-1/2 ad {element}"]
                                + [f"3 {s}" for s in specs if s.startswith("dmu")]))
        far = basis_element(config, (3,) * len(config.lattice.generators))
        specs += [f"ad {format_element(far)}", "dt 0"]
        for spec in specs:
            commands.append(["deriv", "check", *at, f"--op={spec}", "--samples", "40"])
            commands.append(["deriv", "decompose", *at, f"--op={spec}"])

        # forms: three seeded coboundaries, their functional with one value
        # changed, a table form of pair values, and on l2 the README form
        small = window_size(config, 2) <= 5000
        pool = (window_indices(config, 2) if small
                else [sample_index(config, rng) for _ in range(200)])
        radii = ["0"] if not small else ["1", "2"] if window_size(config, 2) <= 300 else ["1"]
        for k in range(3):
            entries = {format_basis_index(i): Fraction(rng.choice([-5, -2, -1, 1, 3]),
                                                       rng.randrange(1, 4))
                       for i in rng.sample(pool, 20)}
            g = work / f"{name}-g{k}.fn"
            g.write_text("".join(f"{i} {v}\n" for i, v in entries.items()))
            changed = work / f"{name}-h{k}.fn"
            first = next(iter(entries))
            entries[first] += 1
            changed.write_text("".join(f"{i} {v}\n" for i, v in entries.items()))
            table = work / f"{name}-t{k}.tab"
            labels = list(entries)
            table.write_text("".join(f"{labels[j]} {labels[j + 1]} {entries[labels[j]]}\n"
                                     for j in range(0, 6, 2)))
            forms = [["--coboundary", str(g)], ["--table", str(table)]]
            for form in forms:
                commands.append(["cocycle", "check", *at, *form])
                commands.append(["cocycle", "check", *at, *form, "--seed", "3",
                                 "--triples", "200"])
                for radius in radii:
                    commands.append(["cocycle", "trivialize", *at, *form,
                                     "--radius", radius, "--out", "{out}"])
                    for f in (g, changed):
                        commands.append(["cocycle", "verify", *at, *form,
                                         "--functional", str(f), "--radius", radius])
        if name == "l2":
            form = work / "l2-readme.tab"
            form.write_text(L2_FORM)
            commands.append(["cocycle", "check", *at, "--table", str(form)])
            commands.append(["cocycle", "trivialize", *at, "--table", str(form)])
            commands.append(["cocycle", "verify", *at, "--table", str(form),
                             "--functional", str(work / "l2-g0.fn")])

        # products and brackets of sampled elements, from a generator of
        # their own so that the inputs above do not move
        pairs = random.Random(f"{name}-bracket")
        for _ in range(3):
            lhs, rhs = (format_element(sample_element(config, pairs)) for _ in range(2))
            commands.append(["bracket", *at, "--", lhs, rhs])
            commands.append(["bracket", *at, "--oracle", "--", lhs, rhs])
            commands.append(["mul", *at, "--", lhs, rhs])

        # the recursion at each of its probes, or on a closed-form config
        # a probe it refuses
        g0 = ["--coboundary", str(work / f"{name}-g0.fn"), "--radius", radii[0]]
        probes = recursion_probes(config) or ([1] if closed_form_regime(config) else [])
        for p in probes:
            commands.append(["cocycle", "trivialize", *at, *g0,
                             "--probe", config.shape.index_token(p), "--out", "{out}"])

    # exit 2: a count below 1 is reported before a missing config file
    missing = ["--config", str(work / "missing.cfg")]
    commands += [["suite", *missing, "--samples", "0"],
                 ["cocycle", "check", *missing, "--table", str(work / "l2-t0.tab"),
                  "--triples", "0"],
                 ["check-config", *missing]]
    # exit 2 on malformed input: an unknown config key, a config with no
    # gamma line, a dmu spec one value short of caseB's three generators,
    # an exponent at a slot that caseB switches off, a table pair given two
    # values, and a functional line whose literal does not parse
    caseb_cfg = parent / "bench" / "configs" / "caseB.cfg"
    caseb = ["--config", str(caseb_cfg)]
    colour = work / "colour.cfg"
    colour.write_text(caseb_cfg.read_text().rstrip("\n") + "\ncolour: red\n")
    no_gamma = work / "no-gamma.cfg"
    no_gamma.write_text("ell: 1 0 0 0 0 0\nj0: zero\n")
    duplicate = work / "dup.tab"
    duplicate.write_text("x[0,1,0] x[0,0,1] 2\nx[0,1,0] x[0,0,1] 3\n")
    malformed = work / "malformed.fn"
    malformed.write_text("y 2\n")
    commands += [["check-config", "--config", str(colour)],
                 ["check-config", "--config", str(no_gamma)],
                 ["deriv", "check", *caseb, "--op=dmu 1 0"],
                 ["bracket", *caseb, "--", "1*x[0,1,0]t[1,0,0]", "1*x[0,0,1]"],
                 ["cocycle", "check", *caseb, "--table", str(duplicate)],
                 ["cocycle", "check", *caseb, "--coboundary", str(malformed)]]
    # a term's coefficient and an operator's scalar, as a decimal and with
    # a `_` separator
    for number in ("0.5", "1_0"):
        commands += [["bracket", *caseb, "--", f"{number}*x[0,1,0]", "1*x[0,0,1]"],
                     ["deriv", "check", *caseb, f"--op={number} ad 1*x[0,1,0]"]]
    return commands


def _run(tree: Path, argv: list[str], out: Path) -> tuple:
    """(exit code, stdout, stderr less `duration:` lines, --out bytes)."""
    argv = [str(out) if a == "{out}" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "contactk.cli", *argv],
                          capture_output=True, env=env, cwd=out.parent)
    stderr = b"".join(line for line in done.stderr.splitlines(keepends=True)
                      if not line.startswith(b"duration:"))
    written = out.read_bytes() if out.exists() else None
    return done.returncode, done.stdout, stderr, written


def _first_difference(a: tuple, b: tuple) -> str:
    for field, x, y in zip(("exit code", "stdout", "stderr", "--out file"), a, b):
        if x == y:
            continue
        if not isinstance(x, bytes) or not isinstance(y, bytes):
            return f"{field}: {x!r} != {y!r}"
        xs, ys = x.splitlines(), y.splitlines()
        n = next((i for i, (p, q) in enumerate(zip(xs, ys)) if p != q), min(len(xs), len(ys)))
        return (f"{field}, line {n + 1}: {xs[n] if n < len(xs) else b'<end>'!r} "
                f"!= {ys[n] if n < len(ys) else b'<end>'!r}")
    return ""


def _kind(command: list[str]) -> tuple[str, str]:
    """(kind, config) of a command: its words before `--config`, the
    form flag it reads or `--oracle`, and the config file's name."""
    at = command.index("--config")
    words = command[:at] + [a for a in command if a in ("--table", "--coboundary", "--oracle")]
    return " ".join(words), Path(command[at + 1]).stem


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        commands = _inputs(parent, work)
        for side in ("parent", "change"):
            (work / side).mkdir()
        codes: dict[int, int] = {}
        differ = []
        for n, command in enumerate(commands):
            a = _run(parent, command, work / "parent" / f"out{n}")
            b = _run(change, command, work / "change" / f"out{n}")
            codes[a[0]] = codes.get(a[0], 0) + 1
            if a != b:
                differ.append((command, _first_difference(a, b)))
    seen = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(commands)} commands, {len(differ)} differ; parent: {seen}")
    if differ:
        command, what = differ[0]
        print(f"first difference: contactk {' '.join(command)}")
        print(f"  {what}")
        for (kind, name), count in sorted(Counter(_kind(c) for c, _ in differ).items()):
            print(f"{count} differ: {kind} on {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
