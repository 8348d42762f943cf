"""The table-built parser and the strict command-line reader against the
parser argparse alone built, kept in ``cli_oracles``.

``build_parser`` writes the same ``--help`` text as the oracle.  On any
command line, ``_read_argv`` gives the oracle's namespace or None; it is None
whenever the oracle exits, so argparse alone writes help and usage errors.
"""

import contextlib
import io

import cli_oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli_golden import CASES
from test_fuzz_boundary import HUGE, command_lines

from nonloose import cli
from nonloose.cli import _read_argv, build_parser


def subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def oracle(argv):
    """("exit", code) if the oracle's parser exits on ``argv``, else
    ("namespace", its namespace as a dict)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "namespace", vars(cli_oracles.build_parser().parse_args(argv))
        except SystemExit as exc:
            return "exit", exc.code


def check(argv):
    """The reader gives the oracle's namespace or None, and None when the oracle exits."""
    read, expected = _read_argv(argv), oracle(argv)
    if read is not None:
        assert expected == ("namespace", vars(read)), argv
    return read, expected


@pytest.mark.parametrize("columns", ["80", "200"])
def test_help_is_the_oracles(monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    new, old = build_parser(), cli_oracles.build_parser()
    assert new.format_help() == old.format_help()
    assert list(subparsers(new)) == list(subparsers(old)) and len(subparsers(new)) == 11
    for name, parser in subparsers(new).items():
        assert parser.format_help() == subparsers(old)[name].format_help(), name


@pytest.mark.parametrize("argv", [case[0] for case in CASES.values()], ids=CASES)
def test_golden_command_lines_need_no_argparse(argv):
    read, _ = check(argv.split())
    assert read is not None


# Command lines that the reader declines, each for its own reason, and
# whether the oracle then exits (help exits 0, a usage error 2).
DECLINED = {
    "no arguments": ([], 2),
    "top-level help": (["-h"], 0),
    "help after the subcommand": (["certify-unknot", "--help"], 0),
    "unknown subcommand": (["no-such-command"], 2),
    "abbreviated global flag": (["--form", "text", "certify-unknot", "--tb", "2", "--rot", "1"], None),
    "abbreviated flag": (["certify-unknot", "--tb", "2", "--ro", "1"], None),
    "unknown flag": (["certify-unknot", "--tb", "2", "--rot", "1", "--chi", "-1"], 2),
    "global flag after the subcommand": (["certify-unknot", "--tb", "2", "--rot", "1", "--format", "text"], 2),
    "double dash": (["certify-unknot", "--tb", "2", "--", "--rot", "1"], 2),
    "double dash as the value": (["knot-record", "--tag=--"], None),
    "value for a switch": (["certify-dual", "--tb", "-15", "--rot", "-2", "--chi", "-7", "--is-stabilization=1"], 2),
    "flag where a value belongs": (["certify-unknot", "--tb", "--rot", "1"], 2),
    "flag without its value": (["certify-unknot", "--rot", "1", "--tb"], 2),
    "global flag without its value": (["--records"], 2),
    "bad int": (["certify-tension", "--tb", "x", "--rot", "0", "--chi", "-1"], 2),
    "non-ASCII digit": (["certify-unknot", "--tb", "-٣", "--rot", "1"], 2),
    "int past the digit limit": (["certify-unknot", "--tb", HUGE.decode(), "--rot", "1"], 2),
    "negative rational without =": (["certify-bennequin", "--sl-q", "-15/14", "--chi", "-7"], 2),
    "bad choice": (["certify-tension", "--tb", "3", "--rot", "0", "--chi", "-1", "--side", "up"], 2),
    "bad global choice": (["--format", "yaml", "certify-unknot", "--tb", "2", "--rot", "1"], 2),
    "missing required flag": (["certify-unknot", "--tb", "2"], 2),
    "missing positional": (["front-invariants", "--base-direction", "leftward"], 2),
    "extra positional": (["front-invariants", "a", "b"], 2),
    "subcommand missing": (["--format", "text"], 2),
}


@pytest.mark.parametrize("argv, code", DECLINED.values(), ids=DECLINED)
def test_declined_command_lines(argv, code):
    read, expected = check(argv)
    assert read is None
    if code is not None:
        assert expected == ("exit", code)


ACCEPTED = {
    "values after a lone dash": ["front-stabilize", "-", "--sign", "-"],
    "flags before the positional": ["front-invariants", "--base-direction", "leftward", "-"],
    "= forms": ["--format=text", "--records=r.json", "knot-record", "--family=positive-torus", "--p=2", "--q=-3"],
    "negative values": ["dual-invariants", "--tb", "-15", "--rot", "-2", "--chi", "-7", "--stab", "-1"],
    "empty values": ["--records", "", "knot-record", "--tag=", "--name", ""],
    "repeated flags": ["--format", "text", "--format", "json", "certify-unknot", "--tb", "1", "--tb", "2", "--rot", "1"],
    "repeated append": ["dual-invariants", "--stab", "+1", "--tb", "0", "--stab=-2", "--rot", "0", "--chi", "-1"],
    "repeated switch": ["surgery-invariants", "d.json", "--reverse-distinguished", "--chi", "1", "--reverse-distinguished"],
    "rational forms": ["certify-tension", "--tb-q=-15/14", "--rot-q", "+3", "--order", "14", "--chi", "-7"],
}


@pytest.mark.parametrize("argv", ACCEPTED.values(), ids=ACCEPTED)
def test_accepted_command_lines(argv):
    read, _ = check(argv)
    assert read is not None


def test_defaults_are_not_shared():
    first = _read_argv(["dual-invariants", "--tb", "0", "--rot", "0", "--chi", "-1", "--stab", "1"])
    second = _read_argv(["dual-invariants", "--tb", "0", "--rot", "0", "--chi", "-1"])
    assert (first.stab, second.stab) == ([1], [])


FLAGS = sorted(
    {name for name, _ in cli.GLOBAL_ARGS}
    | {name for _, _, arguments in cli.COMMANDS.values() for name, _ in arguments if name[0] == "-"}
)
values = st.one_of(
    st.sampled_from(["-", "--", "", "-15/14", "15/14", "-1.5", "+1", "-0", "٣", "-٣", "1 2", "-1\n", HUGE.decode()]),
    st.integers(-20, 20).map(str),
    st.sampled_from(["json", "text", "+", "both", "leftward", "unknot", "positive-torus", "L2q(3)", "f"]),
)
tokens = st.one_of(
    st.sampled_from(FLAGS + ["-h", "--help", "--", "-", "-x", "--no-such-flag"]),
    st.sampled_from(FLAGS).flatmap(lambda flag: st.integers(2, len(flag) - 1).map(lambda n: flag[:n])),
    st.builds(lambda flag, value: f"{flag}={value}", st.sampled_from(FLAGS), values),
    st.sampled_from(sorted(cli.COMMANDS)),
    values,
)


@st.composite
def mixed_command_lines(draw):
    """A subcommand among tokens drawn from every flag, with abbreviations,
    ``=`` forms, odd values and global flags on either side."""
    before = draw(st.lists(tokens, max_size=4))
    after = draw(st.lists(tokens, max_size=8))
    return [*before, draw(st.sampled_from(sorted(cli.COMMANDS))), *after]


PATHS = ["unknot.front", "diagram.json", "-", "missing"]


def value_of(keywords):
    """A value the argument takes, in the forms a user writes; one in ten is odd."""
    if "choices" in keywords:
        good = st.sampled_from(keywords["choices"])
    elif keywords.get("type") is cli._int_arg:
        good = st.integers(-99, 99).map(str) | st.integers(0, 9).map(lambda n: f"+{n}")
    elif keywords.get("type") is cli._fraction_arg:
        good = st.builds(lambda p, q: f"{p}/{q}", st.integers(-30, 30), st.integers(1, 9))
    else:
        good = st.sampled_from(PATHS + ["L2q(3)", "k"])
    return st.integers(0, 9).flatmap(lambda k: values if k == 0 else good)


@st.composite
def table_command_lines(draw):
    """A command line built from the table: the positional and required
    flags, some optional ones, in any order, each value written apart or
    after ``=``."""
    argv = []
    for name, keywords in cli.GLOBAL_ARGS:
        if draw(st.booleans()):
            value = draw(value_of(keywords))
            argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    parts = []
    for name, keywords in cli.COMMANDS[command][2]:
        for _ in range(draw(st.integers(1 if name[0] != "-" or keywords.get("required") else 0, 2))):
            if keywords.get("action") == "store_true":
                parts.append([name])
            elif name[0] != "-":
                parts.append([draw(value_of(keywords))])
            else:
                value = draw(value_of(keywords))
                parts.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    return [*argv, command, *[token for part in draw(st.permutations(parts)) for token in part]]


@settings(max_examples=300, deadline=None)
@given(st.one_of(command_lines(PATHS), mixed_command_lines(), table_command_lines(), table_command_lines()))
@example(["front-stabilize", "f", "--sign", "-"])
@example(["--records", "r", "--records", "s", "knot-record", "--name", "k", "--name", "-7"])
@example(["certify-bennequin", "--tb-q", "-1", "--rot-q", "-1.5", "--chi", "-1"])
def test_reader_agrees_with_the_oracle(argv):
    check(argv)
