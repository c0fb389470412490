"""The README's command examples, run and compared with what it shows.

Each `sh` block of README.md is read as a shell session.  A `$ cat FILE`
line and the lines after it, up to a blank line or the next `$` line,
are written to FILE.  A `$ contactk ...` line, joined with its `\\`
continuation lines, runs through `cli.main` in a scratch directory, and
the lines after it, up to a blank line or the next `$` line, are the
stdout it must print: a `...` line stands for any lines, and `| head -N`
keeps the first N.  The exit code must be 1 when the output shows a
`FAIL` line and 0 otherwise.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from contactk.cli import main

ROOT = Path(__file__).resolve().parent.parent


def session_steps(text: str) -> list[tuple[str, list[str]]]:
    """(command, shown lines) for each `$` line of the `sh` blocks."""
    steps = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.M | re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            line, i = lines[i], i + 1
            if not line.startswith("$ "):
                continue
            command = line[2:]
            while command.endswith("\\"):
                command, i = command[:-1] + " " + lines[i].strip(), i + 1
            shown = []
            while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
                shown.append(lines[i])
                i += 1
            steps.append((command, shown))
    return steps


def shows(shown: list[str], printed: list[str]) -> bool:
    """True when `printed` is `shown` with each `...` line read as any lines."""
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n"
                      for line in shown)
    return re.fullmatch(pattern, "".join(line + "\n" for line in printed)) is not None


def run_readme(text: str, workdir: Path, capsys, monkeypatch) -> tuple[int, list[str]]:
    """(commands run, mismatches) for the README `text`, run in `workdir`,
    where `tests` links to this tree's tests so the README's paths hold."""
    (workdir / "tests").symlink_to(ROOT / "tests")
    monkeypatch.chdir(workdir)
    ran, mismatches = 0, []
    for command, shown in session_steps(text):
        words = shlex.split(command)
        if words[0] == "cat":
            (workdir / words[1]).write_text("".join(line + "\n" for line in shown))
            continue
        head = None
        if "|" in words:
            at = words.index("|")
            assert words[at + 1:-1] == ["head"], command
            words, head = words[:at], int(words[-1].lstrip("-"))
        assert words[0] == "contactk", command
        code = main(words[1:])
        printed = capsys.readouterr().out.splitlines()[:head]
        ran += 1
        expected = 1 if any(line.startswith("FAIL") for line in shown) else 0
        if code != expected or not shows(shown, printed):
            mismatches.append(f"{command}: exit {code}, printed {printed[:4]}")
    return ran, mismatches


def test_every_readme_example_prints_what_it_shows(tmp_path, capsys, monkeypatch):
    text = (ROOT / "README.md").read_text()
    ran, mismatches = run_readme(text, tmp_path, capsys, monkeypatch)
    assert mismatches == []
    assert ran == text.count("\n$ contactk ")
    shown = [line for _command, lines in session_steps(text) for line in lines]
    assert "PASS cocycle-axioms (40 triples)" in shown
    assert "FAIL cocycle-axioms (50 uniform + 50 targeted triples)" in shown


def test_an_edited_readme_line_is_caught(tmp_path, capsys, monkeypatch):
    # negative control: a copy of the README with one expected line edited
    text = (ROOT / "README.md").read_text()
    edited = text.replace("FAIL cocycle-axioms (50 uniform + 50 targeted triples)",
                          "FAIL cocycle-axioms (50 uniform + 51 targeted triples)")
    assert edited != text
    copy = tmp_path / "README.md"
    copy.write_text(edited)
    _ran, mismatches = run_readme(copy.read_text(), tmp_path, capsys, monkeypatch)
    assert len(mismatches) == 1 and "--table t.tab" in mismatches[0]
