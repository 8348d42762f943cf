"""Numeric flags are read in ASCII digits, in the forms the program prints.

A rational flag (--tb-q, --rot-q, --sl-q) is ``n`` or ``p/q``; an int flag is
``n``; either may carry a sign.  Anything else is a usage error (exit 2)
before any work is done: an exponent such as ``1e10000000`` would have
``Fraction`` build an integer of ten million digits, and a non-ASCII digit
such as ``٣`` would be read as 3.
"""

import pytest
from examples import README_DOC


def bennequin(tb_q="1/2", order="3"):
    return ["certify-bennequin", "--tb-q", tb_q, "--rot-q", "0", "--order", order, "--chi", "-1"]


@pytest.mark.parametrize("text", ["1e3", "1e10000000", "1.5", "١/٢", "1/0", " 1/2", "1_0", "0x1"])
def test_rational_flag_rejects(run_cli, text):
    assert run_cli(bennequin(tb_q=text)) == (2, "")
    assert f"argument --tb-q: not an exact rational: {text!r}" in run_cli.stderr


@pytest.mark.parametrize("text", ["٣", "3.0", "1e3", "1_0", " 3", "+-3"])
def test_int_flag_rejects(run_cli, text):
    assert run_cli(bennequin(order=text)) == (2, "")
    assert f"argument --order: invalid int value: {text!r}" in run_cli.stderr


@pytest.mark.parametrize("flag", ["--tb", "--rot", "--chi", "--max-n"])
def test_each_int_flag_of_certify_tension_reads_ascii_only(run_cli, flag):
    values = {"--tb": "3", "--rot": "0", "--chi": "-1", "--max-n": "4", flag: "٣"}
    argv = ["certify-tension"]
    for name, value in values.items():
        argv += [name, value]
    assert run_cli(argv) == (2, "")
    assert f"argument {flag}: invalid int value: '٣'" in run_cli.stderr


@pytest.mark.parametrize(
    "tb_q, rot_q, result",
    [("15/14", "-15/14", "Holds"), ("+1", "3", "Violated"), ("-15/14", "+1/7", "Holds"), ("3", "0", "Holds")],
)
def test_rational_forms_still_parse(run_cli, tb_q, rot_q, result):
    argv = ["certify-bennequin", f"--tb-q={tb_q}", f"--rot-q={rot_q}", "--order", "14", "--chi", "-7"]
    assert run_cli.json(argv) == (0, {"check": "rational", "result": result})


def test_signed_int_flags_still_parse(run_cli):
    argv = "dual-invariants --tb -15 --rot -2 --chi -7 --stab=+1 --stab -0"
    assert run_cli.json(argv) == (0, README_DOC)
