"""Run Python in a fresh interpreter that imports the same ``nonloose`` as
the tests do: the directory holding the imported package goes first on the
child's ``PYTHONPATH``, so a source checkout and an installed package are
each tested as themselves."""

import os
import subprocess
import sys
from pathlib import Path

import nonloose

SRC = Path(nonloose.__file__).resolve().parents[1]


def run_python(args, *, stdin="", cwd=None, home=None):
    """``python *args`` with ``stdin`` as its input, in ``cwd``, and with
    ``HOME`` set to ``home`` when one is given; the finished process, its
    output decoded from bytes, so that no newline is translated.  A child
    that runs past 60 s fails the test."""
    paths = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    if home is not None:
        env["HOME"] = str(home)
    done = subprocess.run(
        [sys.executable, *args], input=stdin.encode(), cwd=cwd, env=env, capture_output=True, timeout=60
    )
    return subprocess.CompletedProcess(done.args, done.returncode, done.stdout.decode(), done.stderr.decode())
