"""Run every case of the golden table, tests/test_cli_golden.py, through the
``nonloose`` console script on PATH, each in a fresh work directory that holds
``examples.FILES`` and is ``HOME``, with its stdin and 10 seconds; exit 1,
naming each case, if an exit code or stdout differs byte for byte.  Run from
anywhere, with pytest importable: ``python tools/golden_console.py``."""

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from textwrap import dedent

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    from examples import write_files
    from test_cli_golden import CASES

    failed = 0
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            kwargs = dict(input=case.stdin.encode(), cwd=write_files(Path(work)), env=dict(os.environ, HOME=work))
            try:
                done = subprocess.run(["nonloose", *shlex.split(case.argv)], **kwargs, capture_output=True, timeout=10)
                got = done.returncode, done.stdout
            except subprocess.TimeoutExpired:
                got = None
        if got != (case.code, dedent(case.stdout).encode()):
            failed += 1
            why = f"exit {got[0]}" if got else "ran past 10 s"
            print(f"golden_console: differs from the table: {name} ({why})")
    print(f"golden_console: {len(CASES) - failed} of {len(CASES)} cases match")
    sys.exit(1 if failed else 0)
