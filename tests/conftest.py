"""The runner of command lines that every in-process CLI test uses.

``run_cli`` runs a command line through ``cli.main`` in ``workdir``, a fresh
directory holding ``examples.FILES``.  That directory is the working
directory and ``HOME``, and the default records file is the one written
there, so no user's own ``~/.config/nonloose/records.json`` ever changes a
result.  (A hypothesis ``@given`` test cannot take these function-scoped
fixtures; ``test_fuzz_boundary`` keeps a plain helper of its own.)
"""

import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from nonloose import cli

sys.path.insert(0, str(Path(__file__).parent))

from examples import FILES, RECORDS  # noqa: E402  (found through the path just set)


@pytest.fixture
def workdir(tmp_path):
    for name, text in FILES.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


class CliRunner:
    """Runs command lines through ``cli.main``; ``stderr`` holds what the
    last one wrote there."""

    def __init__(self, monkeypatch, capsys):
        self._monkeypatch, self._capsys = monkeypatch, capsys
        self.stderr = ""

    def __call__(self, argv, stdin=""):
        """(exit code, stdout) of ``argv``, a list or a string split as a shell
        would, with ``stdin`` as its input; argparse's usage errors included."""
        self._monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = cli.main(shlex.split(argv) if isinstance(argv, str) else list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = self._capsys.readouterr()
        self.stderr = captured.err
        return code, captured.out

    def json(self, argv, stdin=""):
        """(exit code, stdout read as JSON) of ``argv``."""
        code, out = self(argv, stdin)
        return code, json.loads(out)


@pytest.fixture
def run_cli(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("HOME", str(workdir))
    # DEFAULT_RECORDS_PATH is computed from HOME at import time, so patch it directly
    monkeypatch.setattr(cli, "DEFAULT_RECORDS_PATH", os.path.join(workdir, RECORDS))
    return CliRunner(monkeypatch, capsys)
