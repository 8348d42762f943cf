"""``import nonloose`` loads no submodule, and a command loads only the
modules it runs.  Module sets are read in a fresh interpreter per command,
since a test process has long since imported everything."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from examples import write_files
from fresh_process import run_python

import nonloose

FRONT = {"cli", "diagram", "errors"}
SURGERY = {"calculus", "cli", "errors", "linalg", "surgery"}
CERTIFY = {"calculus", "certify", "cli", "errors"}

# argv, run in the work directory of examples.FILES, and the nonloose
# submodules the command leaves loaded
COMMANDS = {
    "front-invariants": (["front-invariants", "unknot.front"], FRONT),
    "front-stabilize": (["front-stabilize", "unknot.front", "--sign", "+"], FRONT),
    "front-destab": (["front-destab", "unknot.front"], FRONT),
    "dual-invariants": (["dual-invariants", "--tb", "-15", "--rot", "-2", "--chi", "-7", "--stab", "+1"], SURGERY),
    "surgery-invariants": (["surgery-invariants", "diagram.json", "--chi", "-7"], SURGERY),
    "certify-bennequin": (["certify-bennequin", "--tb", "0", "--rot", "3", "--chi", "-1"], CERTIFY),
    "certify-unknot": (["certify-unknot", "--tb", "2", "--rot", "1"], CERTIFY),
    "certify-tension": (["certify-tension", "--tb", "3", "--rot", "0", "--chi", "-1"], CERTIFY),
    "certify-dual": (["certify-dual", "--tb", "-15", "--rot", "-2", "--chi", "-7"], CERTIFY | SURGERY),
    "search-examples": (["search-examples", "--p-max", "5"], CERTIFY | SURGERY | {"knotdata"}),
    "knot-record": (["knot-record", "--family", "unknot"], {"cli", "errors", "knotdata"}),
}

# Runs argv through cli.main, then prints as one JSON line its exit code
# (argparse's, if it exits), the start of what it wrote, the nonloose
# submodules it left loaded, and which of ``argparse``, ``dataclasses``,
# ``inspect`` and ``pathlib`` got loaded.
PROBE = """
import contextlib, io, json, sys
from nonloose import cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("nonloose."))
watched = [m for m in ("argparse", "dataclasses", "inspect", "pathlib") if m in sys.modules]
print(json.dumps([code, out.getvalue()[:60], loaded, watched]))
"""


def fresh(code, *argv, options=(), cwd=None):
    done = run_python([*options, "-c", code, *argv], cwd=cwd, home=cwd)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    loaded = fresh('import json, sys, nonloose; print(json.dumps(sorted(m for m in sys.modules if "nonloose" in m)))')
    assert loaded == ["nonloose"]


@pytest.fixture(scope="module")
def command_probe(tmp_path_factory):
    """Runs a command's argv through PROBE once, under ``python -S``, in a
    work directory holding examples.FILES; each test below reads its own
    part of the one result.  The probe runs under ``-S``: a site ``.pth``
    file (certifi's, where it is installed) can load ``pathlib`` before any
    program code, and then no plain run shows it and no timing can tell it
    apart."""
    workdir = write_files(tmp_path_factory.mktemp("commands"))
    results = {}

    def probe(command):
        if command not in results:
            results[command] = fresh(PROBE, *COMMANDS[command][0], options=["-S"], cwd=workdir)
        return results[command]

    return probe


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_what_it_runs(command_probe, command):
    code, _, loaded, _ = command_probe(command)
    assert code == 0
    assert loaded == sorted(f"nonloose.{name}" for name in COMMANDS[command][1])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_dataclasses_or_inspect(command_probe, command):
    """Value classes are plain ``__slots__`` classes, so no command pays for
    ``dataclasses`` and the ``inspect`` it imports."""
    code, _, _, watched = command_probe(command)
    assert (code, [m for m in watched if m in ("dataclasses", "inspect")]) == (0, [])


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_argparse_or_pathlib(command_probe, command):
    """A well-formed command line is read from the flag table, without
    argparse, and no command needs ``pathlib``."""
    code, _, _, watched = command_probe(command)
    assert (code, [m for m in watched if m in ("argparse", "pathlib")]) == (0, [])


@pytest.mark.parametrize(
    "argv, code, usage",
    [(["-h"], 0, "usage: nonloose [-h]")]
    + [([name, "-h"], 0, f"usage: nonloose {name} [-h]") for name in sorted(COMMANDS)]
    + [(["certify-tension", "--tb", "x"], 2, "usage: nonloose certify-tension [-h]")],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_help_and_usage_errors_load_argparse(argv, code, usage):
    """argparse writes the help and every usage error, and only they load it."""
    got, start, _, watched = fresh(PROBE, *argv, options=["-S"])
    assert (got, watched) == (code, ["argparse"])
    assert start.startswith(usage)


# Runs argv through cli.main, then prints its exit code and whether
# ``fractions`` got loaded, as one JSON line.
FRACTIONS_PROBE = """
import contextlib, io, json, sys
from nonloose import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, "fractions" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, parses_a_fraction",
    [
        (["front-invariants", "unknot.front"], False),
        (["knot-record", "--family", "unknot"], False),
        (["certify-bennequin", "--tb-q", "1/2", "--rot-q", "1/2", "--chi", "-1"], True),
    ],
    ids=["front-invariants", "knot-record", "certify-bennequin"],
)
def test_fractions_loads_only_to_parse_a_fraction(workdir, argv, parses_a_fraction):
    code, loaded = fresh(FRACTIONS_PROBE, *argv, cwd=workdir)
    assert (code, loaded) == (0, parses_a_fraction)


# every name the package exported when it imported its submodules eagerly
EXPORTED = {
    "calculus": ["ClassicalPair", "RationalData"],
    "certify": [
        "Certificate", "CheckResult", "Depth2Witness", "Reason", "Verdict", "bennequin_null",
        "bennequin_rational", "bundle_is_consistent", "certificate_bounds", "check_consistency",
        "depth2_check", "depth_one_dual", "order_bounds",
        "order_zero_by_tb_bound", "possurg_depth_one", "tension_certificate",
        "tension_less_than_depth_search", "tension_one_dual", "tension_refinement",
        "tension_upper_bound", "transverse_bennequin", "transverse_transfer", "unknot_verdict",
    ],
    "diagram": [
        "Direction", "EventKind", "FrontEvent", "FrontWord", "OrientedFront", "destabilize_front",
        "detect_syntactic_destabilization", "parse_front", "resolve_orientation", "reverse_orientation",
        "rot", "serialize_front", "stabilize_front", "tb",
    ],
    "errors": ["DomainError"],
    "knotdata": [
        "KnotRecord", "load_records", "named_example", "negative_torus_record",
        "positive_torus_record", "unknot_record",
    ],
    "linalg": ["det_exact"],
    "surgery": [
        "SurgeryComponent", "SurgeryDiagram", "diagram_from_json", "dual_invariants",
        "linking_matrix", "rational_invariants",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_resolve(module):
    home = getattr(nonloose, module)
    for name in EXPORTED[module]:
        assert getattr(nonloose, name) is getattr(home, name)
        assert name in nonloose.__all__ and name in dir(nonloose)


def test_all_lists_exactly_the_exports():
    assert sorted(nonloose.__all__) == sorted(name for names in EXPORTED.values() for name in names)


def test_readme_library_example():
    from nonloose import (
        ClassicalPair,
        bennequin_rational,
        dual_invariants,
        parse_front,
        resolve_orientation,
        rot,
        stabilize_front,
        tb,
        tension_upper_bound,
        unknot_verdict,
    )

    front = resolve_orientation(parse_front("l 1 ; l 2 ; x 1 ; x 1 ; x 1 ; r 2 ; r 1"))
    assert (tb(front), rot(front)) == (1, 0)
    dual = dual_invariants(-15, -2, 1, 0, -7)
    assert dual.tb_q == Fraction(1, 14)
    bound, witness = tension_upper_bound(ClassicalPair(3, 0, chi=-1))
    assert bound == 3
    assert callable(stabilize_front) and callable(bennequin_rational) and callable(unknot_verdict)


# every module of the package, read off its files rather than its own list
SUBMODULES = sorted(path.stem for path in Path(nonloose.__file__).parent.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("submodule", SUBMODULES)
def test_submodule_attribute_after_bare_import(submodule):
    name, loaded = fresh(
        "import json, sys, nonloose\n"
        f"m = nonloose.{submodule}\n"
        f"print(json.dumps([m.__name__, 'nonloose.{submodule}' in sys.modules]))"
    )
    assert (name, loaded) == (f"nonloose.{submodule}", True)


@pytest.mark.parametrize("name", ["no_such_name", "Surgery", "__wrapped__", "obs"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(nonloose, name)
    assert not hasattr(nonloose, name)
