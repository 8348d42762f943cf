"""Fuzzing of the outside-input boundary: front text, command lines and the
bytes of input files.  Whatever comes in, only a DomainError, or exit code
0, 1 or 2 (with an error document on 1), may come out: never a traceback."""

import argparse
import contextlib
import io
import json
from unittest import mock

import examples
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonloose.cli import build_parser, main
from nonloose.diagram import parse_front, serialize_front
from nonloose.errors import FrontParseError, PositionOutOfRange, UnknownToken

# the shared examples, as the bytes of input files
UNKNOT, TREFOIL = examples.UNKNOT.encode(), examples.TREFOIL.encode()
DIAGRAM = json.dumps(examples.README_DIAGRAM).encode()
RECORDS = json.dumps([{"family": "k", "max_tb": -3, "rot_at_max_tb": [0], "chi": -5}]).encode()
HUGE = b"1" * 5000  # past int()'s 4,300-digit limit


def run(argv, stdin=""):
    """Exit code and stdout of ``main(argv)``, usage errors included: the
    runner of the ``@given`` tests, which cannot take ``conftest.run_cli``."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_outcome(code, out, fmt="json"):
    assert code in (0, 1, 2)
    if code == 1 and fmt == "json":
        assert set(json.loads(out)) == {"error"}
    elif code == 1:
        assert out.startswith("error.type: ")


# ---------------------------------------------------------------------------
# parse_front


def check_parse(text):
    try:
        word = parse_front(text)
    except FrontParseError:
        return
    assert parse_front(serialize_front(word)) == word


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("l ١ r ١")
@example("l 1 r " + HUGE.decode())
def test_parse_front_arbitrary_text(text):
    check_parse(text)


tokens = st.one_of(
    st.sampled_from(["l", "r", "x", "L", "y", "l1", ";", "#"]),
    st.integers(-2, 9).map(str),
    st.sampled_from(["0", "01", "+1", "1.0", "0x1", "١", "１", "1_0", HUGE.decode()]),
)
separators = st.sampled_from([" ", "\n", " ; ", ";", "\t", " # note\n"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(tokens, separators), max_size=24))
def test_parse_front_token_streams(pairs):
    check_parse("".join(tok + sep for tok, sep in pairs))


@pytest.mark.parametrize("digit", ["١", "１", "१"])
def test_parse_front_reads_ascii_digits_only(digit):
    with pytest.raises(UnknownToken):
        parse_front(f"l {digit} r {digit}")


def test_parse_front_huge_position():
    with pytest.raises(PositionOutOfRange) as info:
        parse_front("l 1 r " + HUGE.decode())
    assert info.value.event_index == 1


# ---------------------------------------------------------------------------
# cli.main over command lines built from each subcommand's flags


def subcommands():
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [
            (a.option_strings[0], a.nargs == 0)
            for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in action.choices.items()
    }


SUBCOMMANDS = subcommands()
FILE_COMMANDS = {"front-invariants", "front-stabilize", "front-destab", "surgery-invariants"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    contents = {"unknot": UNKNOT, "trefoil": TREFOIL, "diagram": DIAGRAM, "records": RECORDS, "junk": b"\xff\x00["}
    for name, data in contents.items():
        (root / name).write_bytes(data)
    return [str(root / name) for name in contents] + [str(root / "missing"), "-"]


# Integers stay small: the searches behind --max-n and --p-max are
# quadratic in them, and no other flag's cost depends on its value.
junk = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)
values = st.one_of(
    st.integers(-70, 70).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-40, 40), st.integers(-9, 9)),
    st.sampled_from(["+", "-", "both", "positive_only", "leftward", "unknot", "negative-torus", "L2q(3)", "k"]),
    junk,
)


@st.composite
def command_lines(draw, paths):
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "text", "yaml"]))]
    if draw(st.booleans()):
        argv += ["--records", draw(st.sampled_from(paths))]
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv.append(name)
    if name in FILE_COMMANDS and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(paths)))
    flags = draw(st.lists(st.sampled_from(SUBCOMMANDS[name]), max_size=6))
    for flag, is_switch in flags:
        argv.append(flag)
        if not is_switch and draw(st.integers(0, 9)):
            argv.append(draw(values))
    return argv


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_cli_argv(files, data):
    argv = data.draw(command_lines(files))
    stdin = data.draw(st.sampled_from([UNKNOT.decode(), DIAGRAM.decode(), "", "l 1"]))
    code, out = run(argv, stdin)
    check_outcome(code, out, "text" if "text" in argv[:2] else "json")


# ---------------------------------------------------------------------------
# cli.main over arbitrary bytes in an input file

VALID = [UNKNOT, TREFOIL, DIAGRAM, RECORDS]


@st.composite
def mutated(draw):
    doc = draw(st.sampled_from(VALID))
    start = draw(st.integers(0, len(doc)))
    end = draw(st.integers(start, len(doc)))
    return doc[:start] + draw(st.binary(max_size=8)) + doc[end:]


file_bytes = st.one_of(st.binary(max_size=80), st.text(max_size=80).map(str.encode), mutated())
# argv around one input file, written where FILE stands
FILE_ARGV = [
    ["front-invariants", "FILE"],
    ["front-stabilize", "FILE", "--sign", "-"],
    ["front-destab", "FILE"],
    ["surgery-invariants", "FILE", "--chi", "-7"],
    ["--records", "FILE", "knot-record", "--name", "k"],
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FILE_ARGV), file_bytes)
@example(["front-invariants", "FILE"], b"\xff")
@example(["--records", "FILE", "knot-record", "--name", "k"], b"\xff\xfe")
def test_cli_file_bytes(tmp_path_factory, argv, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed-input"
    path.write_bytes(data)
    code, out = run([str(path) if arg == "FILE" else arg for arg in argv])
    check_outcome(code, out)
    assert code != 2


BAD_FILES = {
    "front not UTF-8": (["front-invariants", "FILE"], b"\xff", "InputError"),
    "records not UTF-8": (["--records", "FILE", "knot-record", "--name", "k"], b"[\xff]", "InvalidParams"),
    "diagram not UTF-8": (["surgery-invariants", "FILE", "--chi", "-7"], b"{\xff}", "InputError"),
    "huge front position": (["front-invariants", "FILE"], b"l 1 r " + HUGE, "PositionOutOfRange"),
    "non-ASCII front digits": (["front-invariants", "FILE"], "l ١ r ١".encode(), "UnknownToken"),
    "huge diagram tb": (
        ["surgery-invariants", "FILE", "--chi", "-7"],
        DIAGRAM.replace(b'"tb": -16', b'"tb": -' + HUGE),
        "InputError",
    ),
    "huge record max_tb": (
        ["--records", "FILE", "knot-record", "--name", "k"],
        RECORDS.replace(b'"max_tb": -3', b'"max_tb": -' + HUGE),
        "InvalidParams",
    ),
    "deeply nested diagram": (["surgery-invariants", "FILE", "--chi", "-7"], b"[" * 100_000, "InputError"),
    "deeply nested records": (["--records", "FILE", "knot-record", "--name", "k"], b"[" * 100_000, "InvalidParams"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_cli_bad_input_file(run_cli, workdir, case):
    argv, data, error = BAD_FILES[case]
    (workdir / "FILE").write_bytes(data)
    code, doc = run_cli.json(argv)
    assert code == 1
    assert doc["error"]["type"] == error


def test_cli_stdin_not_utf8():
    stdin = mock.Mock()
    stdin.read.side_effect = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    out = io.StringIO()
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out):
        code = main(["front-invariants", "-"])
    assert code == 1
    assert json.loads(out.getvalue())["error"]["type"] == "InputError"
