"""List the lines of ``src/nonloose`` that have code but that the tier-1
tests never run, and fail on any that ``unrun_allowlist.txt`` does not name.
In the same run, list the functions of ``src/nonloose`` never entered while
``cli.main`` is on the stack, and fail on any that ``unreached_allowlist.txt``
does not name: every function serves a command or a documented name.

The tier-1 pytest command runs in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, so Python 3.10 runs it too),
with a hypothesis profile that sets no deadline, since tracing slows every
example.  A line has code if it appears in ``co_lines()`` of its compiled
module or, recursively, of a code object nested in it.  Only in-process runs
count: a line reached only by a test's child process shows as unrun.  A
function is each ``def``; the tracer counts ``cli.main``'s calls and
returns, and records each code object that starts while that count is above
zero.  Test files that call ``cli.main`` in process (the golden table among
them) are what reach a function.

Each line of an allowlist reads ``file | source text | reason``, the file
relative to ``src/nonloose`` and the source text stripped; it names every
unrun line, or every unreached function whose ``def`` line is that text, of
that file.  Lines starting with ``#`` are comments.  Run from anywhere, with
pytest and hypothesis installed:

    python tools/unrun_lines.py

Exit status: 0 when only allowlisted lines are unrun, only allowlisted
functions unreached and every allowlist entry still names one; 1 when another
line or function is, an entry is stale (its line ran, its function was
entered, or its source text is gone), or the tests fail.
"""

from __future__ import annotations

import ast
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
UNREACHED_ALLOWLIST = ALLOWLIST.with_name("unreached_allowlist.txt")
# the function that a command runs beneath: src/nonloose/cli.py's main
ENTRY = ("cli.py", "main")
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


def function_defs(source: str) -> dict[int, tuple[str, str]]:
    """Each ``def`` in ``source`` by the first line of its code object (its
    first decorator's line, if it has one): its name and stripped ``def`` line."""
    text = source.splitlines()
    return {
        (node.decorator_list[0].lineno if node.decorator_list else node.lineno): (
            node.name,
            text[node.lineno - 1].strip(),
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def read_allowlist(path: Path) -> set[tuple[str, str]]:
    """The (file, stripped source text) of each entry; every entry must give a reason."""
    entries = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, _, rest = raw.partition(" | ")
        text, _, reason = rest.rpartition(" | ")
        if not (name.strip() and text.strip() and reason.strip()):
            raise SystemExit(f"{path.name}: expected 'file | source text | reason', got {raw!r}")
        entries.add((name.strip(), text.strip()))
    return entries


def line_recorder(lines: set[int]):
    """A local trace function that adds each line its frame runs to ``lines``."""

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def run_traced(
    files: list[Path], args: list[str], entry: tuple[str, int]
) -> tuple[int, dict[str, set[int]], dict[str, set[int]]]:
    """Run pytest on ``args`` in this process.  Return the exit code and, per
    file, the lines that ran and the first lines of the code objects that
    started while ``entry`` (a file and the first line of a function) was on
    the stack, ``entry`` itself included."""
    ran = {str(path): set() for path in files}
    entered = {str(path): set() for path in files}
    local_tracers = {name: line_recorder(lines) for name, lines in ran.items()}
    entry_lines = ran[entry[0]]
    by_filename: dict[str, str | None] = {}
    depth = 0

    def in_entry(frame, event, arg):
        """The local trace function of an ``entry`` frame: records its lines and its return."""
        nonlocal depth
        if event == "line":
            entry_lines.add(frame.f_lineno)
        elif event == "return":  # also when an exception leaves the frame
            depth -= 1
        return in_entry

    def tracer(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        if code.co_filename not in by_filename:
            path = os.path.realpath(code.co_filename)
            by_filename[code.co_filename] = path if path in ran else None
        path = by_filename[code.co_filename]
        if path is None:
            return None
        is_entry = (path, code.co_firstlineno) == entry
        depth += is_entry
        if depth:
            entered[path].add(code.co_firstlineno)
        return in_entry if is_entry else local_tracers[path]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran, entered


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    settings.register_profile("unrun-lines", deadline=None)
    settings.load_profile("unrun-lines")
    files = sorted(path.resolve() for path in PACKAGE.glob("*.py"))
    sources = {path: path.read_text(encoding="utf-8") for path in files}
    defs = {path: function_defs(source) for path, source in sources.items()}
    entry_path = (PACKAGE / ENTRY[0]).resolve()
    (entry_line,) = [line for line, (name, _) in defs[entry_path].items() if name == ENTRY[1]]
    code, ran, entered = run_traced(files, [*PYTEST_ARGS, str(ROOT / "tests")], (str(entry_path), entry_line))
    if code != 0:
        print(f"unrun_lines: the tests failed (pytest exit code {code})")
        return 1

    allowed, allowed_functions = read_allowlist(ALLOWLIST), read_allowlist(UNREACHED_ALLOWLIST)
    used, used_functions = set(), set()
    unlisted, unlisted_functions = [], []
    total = unrun = unreached = 0
    for path, source in sources.items():
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
        for first, (_, def_line) in sorted(defs[path].items()):
            if first in entered[str(path)]:
                continue
            unreached += 1
            key = (path.name, def_line)
            if key in allowed_functions:
                used_functions.add(key)
            else:
                unlisted_functions.append(f"src/nonloose/{path.name}:{first}: {def_line}")
    stale, stale_functions = sorted(allowed - used), sorted(allowed_functions - used_functions)
    for name, text in stale:
        print(f"unrun_lines: allowlisted but run (or gone): {name} | {text}")
    for name, text in stale_functions:
        print(f"unrun_lines: allowlisted but entered beneath cli.main (or gone): {name} | {text}")
    for entry in unlisted:
        print(f"unrun_lines: never run: {entry}")
    for entry in unlisted_functions:
        print(f"unrun_lines: never entered beneath cli.main: {entry}")
    print(f"unrun_lines: {total} lines with code, {unrun} unrun, {len(unlisted)} of them not allowlisted")
    functions = sum(len(found) for found in defs.values())
    print(
        f"unrun_lines: {functions} functions, {unreached} never entered beneath cli.main, "
        f"{len(unlisted_functions)} of them not allowlisted"
    )
    return 1 if unlisted or unlisted_functions or stale or stale_functions else 0


if __name__ == "__main__":
    sys.exit(main())
