"""Every name a module imports is used in it: in the package, the tests and
the tools.  A name used only inside a string annotation counts as used, and
``from __future__`` imports are exempt.  The repository has no linter, so
this ``ast`` walk is the check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/nonloose", "tests", "tools") for path in (ROOT / folder).rglob("*.py"))

# (file, name) -> the code outside the scanned folders that reads the name there
KEPT = {
    ("src/nonloose/surgery.py", "dual_invariants"): ("bench/workloads.py", "surgery.dual_invariants("),
}


def annotation_names(node):
    """The names in a string annotation, such as ``"SurgeryDiagram"``."""
    for part in ast.walk(node):
        if isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                yield from (n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name))
            except SyntaxError:
                continue


def unused_imports(path):
    """The names that the file at ``path`` imports and never uses."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                used.update(annotation_names(annotation))
    return sorted(imported - used)


@pytest.mark.parametrize("path", FILES, ids=[str(path.relative_to(ROOT)) for path in FILES])
def test_every_imported_name_is_used(path):
    relative = str(path.relative_to(ROOT))
    assert [name for name in unused_imports(path) if (relative, name) not in KEPT] == []


@pytest.mark.parametrize("kept", KEPT, ids="-".join)
def test_each_kept_import_is_unused_and_read_elsewhere(kept):
    """A kept name is still imported and unused, and its reader still reads it."""
    relative, name = kept
    reader, text = KEPT[kept]
    assert name in unused_imports(ROOT / relative)
    assert text in (ROOT / reader).read_text()
