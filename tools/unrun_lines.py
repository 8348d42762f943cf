"""List the lines of ``src/nonloose`` that have code but that the tier-1
tests never run, and fail on any.  In the same run, list the functions of
``src/nonloose`` never reached, and fail on any that
``unreached_allowlist.txt`` does not name: every function serves a command
or a documented name.

The tier-1 pytest command runs in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``, so Python 3.10 runs it too),
with a hypothesis profile that sets no deadline, since tracing slows every
example.  A line has code if it appears in ``co_lines()`` of its compiled
module or, recursively, of a code object nested in it, and if it is not in
the body of an ``if TYPE_CHECKING:`` or ``if __name__ == "__main__":``,
which only a type checker or a child process runs.  Only in-process runs
count: any other line a test reaches only in a child process shows as
unrun.

A function is each ``def``.  It is reached when it runs beneath an entry: a
call of ``cli.main``, or the body of a ``src/nonloose`` module while it is
imported, since every command that imports the module runs that work too.
The tracer counts the entries on the stack, and records each code object
that starts while the count is above zero.  The in-process CLI tests,
which run command lines through ``cli.main`` with the shared ``run_cli``
of ``tests/conftest.py`` (the golden table among them), are what reach a
function at run time.

Each line of the allowlist reads ``file | def line | reason``, the file
relative to ``src/nonloose`` and the ``def`` line stripped; it names every
unreached function of that file whose ``def`` line is that text.  Lines
starting with ``#`` are comments.  Run from anywhere, with pytest and
hypothesis installed:

    python tools/unrun_lines.py

Exit status: 0 when no line is unrun, only allowlisted functions are
unreached and every allowlist entry still names one; 1 when a line is unrun,
another function is unreached, an entry is stale (its function was reached,
or its ``def`` line is gone), or the tests fail.
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
ALLOWLIST = Path(__file__).resolve().with_name("unreached_allowlist.txt")
# the function that a command runs beneath: src/nonloose/cli.py's main
ENTRY = ("cli.py", "main")
# the tests of the blocks that only a type checker or a child process runs
OUT_OF_PROCESS = {"TYPE_CHECKING", "__name__ == '__main__'"}
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


def out_of_process_lines(source: str) -> set[int]:
    """The lines of the bodies of ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` in ``source``."""
    return {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and ast.unparse(node.test) in OUT_OF_PROCESS
        for statement in node.body
        for line in range(statement.lineno, statement.end_lineno + 1)
    }


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
    """The (file, stripped ``def`` line) of each entry; every entry must give a reason."""
    entries = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        name, _, rest = raw.partition(" | ")
        text, _, reason = rest.rpartition(" | ")
        if not (name.strip() and text.strip() and reason.strip()):
            raise SystemExit(f"{path.name}: expected 'file | def line | reason', got {raw!r}")
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
    started while an entry was on the stack, the entries included: ``entry``
    (a file and the first line of a function) and each module body of
    ``files``."""
    ran = {str(path): set() for path in files}
    entered = {str(path): set() for path in files}
    local_tracers = {name: line_recorder(lines) for name, lines in ran.items()}
    by_filename: dict[str, str | None] = {}
    depth = 0

    def entry_recorder(lines: set[int]):
        """The local trace function of an entry frame: records its lines and its return."""

        def in_entry(frame, event, arg):
            nonlocal depth
            if event == "line":
                lines.add(frame.f_lineno)
            elif event == "return":  # also when an exception leaves the frame
                depth -= 1
            return in_entry

        return in_entry

    entry_tracers = {name: entry_recorder(lines) for name, lines in ran.items()}

    def tracer(frame, event, arg):
        nonlocal depth
        code = frame.f_code
        if code.co_filename not in by_filename:
            path = os.path.realpath(code.co_filename)
            by_filename[code.co_filename] = path if path in ran else None
        path = by_filename[code.co_filename]
        if path is None:
            return None
        is_entry = code.co_name == "<module>" or (path, code.co_firstlineno) == entry
        depth += is_entry
        if depth:
            entered[path].add(code.co_firstlineno)
        return (entry_tracers if is_entry else local_tracers)[path]

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

    allowed, used = read_allowlist(ALLOWLIST), set()
    unrun, unlisted = [], []
    total = unreached = 0
    for path, source in sources.items():
        text = source.splitlines()
        lines = code_lines(compile(source, str(path), "exec")) - out_of_process_lines(source)
        total += len(lines)
        unrun += [
            f"src/nonloose/{path.name}:{line}: {text[line - 1].strip()}" for line in sorted(lines - ran[str(path)])
        ]
        for first, (_, def_line) in sorted(defs[path].items()):
            if first in entered[str(path)]:
                continue
            unreached += 1
            key = (path.name, def_line)
            if key in allowed:
                used.add(key)
            else:
                unlisted.append(f"src/nonloose/{path.name}:{first}: {def_line}")
    stale = sorted(allowed - used)
    for name, text in stale:
        print(f"unrun_lines: allowlisted but reached (or gone): {name} | {text}")
    for entry in unrun:
        print(f"unrun_lines: never run: {entry}")
    for entry in unlisted:
        print(f"unrun_lines: never reached: {entry}")
    print(f"unrun_lines: {total} lines with code, {len(unrun)} unrun")
    functions = sum(len(found) for found in defs.values())
    print(
        f"unrun_lines: {functions} functions, {unreached} never reached beneath cli.main or a module body, "
        f"{len(unlisted)} of them not allowlisted"
    )
    return 1 if unrun or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
