"""List the lines of ``src/nonloose`` that have code but that the tier-1
tests never run, and fail on any that ``unrun_allowlist.txt`` does not name.

The tier-1 pytest command runs in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, so Python 3.10 runs it too),
with a hypothesis profile that sets no deadline, since tracing slows every
example.  A line has code if it appears in ``co_lines()`` of its compiled
module or, recursively, of a code object nested in it.  Only in-process runs
count: a line reached only by a test's child process shows as unrun.

Each line of the allowlist reads ``file | source text | reason``, the file
relative to ``src/nonloose`` and the source text stripped; it names every
unrun line of that file with that text.  Lines starting with ``#`` are
comments.  Run from anywhere, with pytest and hypothesis installed:

    python tools/unrun_lines.py

Exit status: 0 when only allowlisted lines are unrun, 1 when another line is
unrun or the tests fail.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nonloose"
ALLOWLIST = Path(__file__).resolve().with_name("unrun_allowlist.txt")
# The tier-1 command's options.  hypothesis is imported here before pytest
# starts, too early for pytest to rewrite its asserts, which it warns about.
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-W", "ignore::pytest.PytestAssertRewriteWarning"]


def code_lines(code: CodeType) -> set[int]:
    """Every line number in ``co_lines()`` of ``code`` and of its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def read_allowlist() -> set[tuple[str, str]]:
    """The (file, stripped source text) of each entry; every entry must give a reason."""
    entries = set()
    for raw in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, _, rest = raw.partition(" | ")
        text, _, reason = rest.rpartition(" | ")
        if not (name.strip() and text.strip() and reason.strip()):
            raise SystemExit(f"{ALLOWLIST.name}: expected 'file | source text | reason', got {raw!r}")
        entries.add((name.strip(), text.strip()))
    return entries


def line_recorder(lines: set[int]):
    """A local trace function that adds each line its frame runs to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def run_traced(files: list[Path], args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` in this process; the exit code and, per file, the lines that ran."""
    ran = {str(path): set() for path in files}
    local_tracers = {name: line_recorder(lines) for name, lines in ran.items()}
    by_filename: dict[str, object] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = local_tracers.get(os.path.realpath(filename))
        return by_filename[filename]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    settings.register_profile("unrun-lines", deadline=None)
    settings.load_profile("unrun-lines")
    files = sorted(path.resolve() for path in PACKAGE.glob("*.py"))
    code, ran = run_traced(files, [*PYTEST_ARGS, str(ROOT / "tests")])
    if code != 0:
        print(f"unrun_lines: the tests failed (pytest exit code {code})")
        return 1

    allowed = read_allowlist()
    used = set()
    unlisted = []
    total = unrun = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = code_lines(compile(source, str(path), "exec"))
        total += len(lines)
        for line in sorted(lines - ran[str(path)]):
            unrun += 1
            key = (path.name, text[line - 1].strip())
            if key in allowed:
                used.add(key)
            else:
                unlisted.append(f"src/nonloose/{path.name}:{line}: {key[1]}")
    for name, text in sorted(allowed - used):
        print(f"unrun_lines: allowlisted but run (or gone): {name} | {text}")
    for entry in unlisted:
        print(f"unrun_lines: never run: {entry}")
    print(f"unrun_lines: {total} lines with code, {unrun} unrun, {len(unlisted)} of them not allowlisted")
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
