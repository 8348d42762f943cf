"""The law of printed names: every name a command can print is pinned.

A command prints the ``type`` of an error document, the name of a
``DomainError`` subclass, and the ``verdict`` of a certificate, a ``Verdict``
value.  Each such name must appear in a golden stdout of ``test_cli_golden``
or in a ``TestPinnedCertificates`` text of ``test_certify``, unless
``UNPINNED`` gives the reason why no command prints it.  A new error class or
verdict thus comes with a golden row, or with a reason here.
"""

import importlib
import pkgutil
import re
from textwrap import dedent

import test_certify
from test_cli_golden import CASES, README

import nonloose
from nonloose.certify import Verdict
from nonloose.errors import DomainError

# name -> why no golden row or pinned certificate prints it
UNPINNED = {
    "FrontParseError": "the base of the front word errors; no code raises it itself",
    "NotLoosened": "only order_bounds raises it; ROADMAP item 6's bounds command will run it",
    "ContradictoryEvidence": "only order_zero_by_tb_bound raises it; ROADMAP item 6's bounds command will run it",
    "IncompatibleRelation": "only transverse_transfer raises it; ROADMAP item 6's bounds command will run it",
}

GOLDEN = [dedent(case.stdout) for case in CASES.values()]
PINNED = [text for _, text in test_certify.TestPinnedCertificates.CASES.values()]


def error_types() -> set[str]:
    """The names of ``DomainError`` and its subclasses, once every module of
    the package is imported (``cli.InputError`` lives in ``cli``)."""
    for module in pkgutil.iter_modules(nonloose.__path__):
        importlib.import_module(f"nonloose.{module.name}")
    found, todo = set(), [DomainError]
    while todo:
        cls = todo.pop()
        found.add(cls.__name__)
        todo += cls.__subclasses__()
    return found


def printed_error_types() -> set[str]:
    return {name for name in error_types() if any(f'"type": "{name}"' in out for out in GOLDEN)}


def test_every_printed_name_is_pinned_or_excused():
    verdicts = {verdict.value for verdict in Verdict}
    pinned_verdicts = {v for v in verdicts if any(f'"verdict": "{v}"' in text for text in GOLDEN + PINNED)}
    unpinned = (error_types() - printed_error_types()) | (verdicts - pinned_verdicts)
    missing, stale = sorted(unpinned - UNPINNED.keys()), sorted(UNPINNED.keys() - unpinned)
    assert not missing, f"printed by no golden row or pinned certificate: {missing}"
    # a reason stays only while its name exists and is pinned nowhere
    assert not stale, f"excused, but pinned or gone: {stale}"


def test_readme_lists_the_printed_error_types():
    """The README's CLI section names exactly the error types the golden rows print."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    marker = "An error document's `type` is one of"
    assert marker in section
    paragraph = section.split(marker, 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == printed_error_types()
