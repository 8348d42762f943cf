"""chi is at most 1 for every Seifert surface, and odd for a knot's.

A rational Seifert surface may have several boundary components, so the
rational and transverse data take an even chi but no chi > 1; a knot record,
like a ``ClassicalPair`` and the surgered knot of certify-dual, takes only an
odd chi <= 1."""

import json
from fractions import Fraction

import pytest

from nonloose.calculus import RationalData
from nonloose.certify import CheckResult, tension_one_dual, transverse_bennequin
from nonloose.errors import InvalidParams
from nonloose.knotdata import KnotRecord, record_from_dict

# every command that builds rational or transverse data, with its chi last
RATIONAL_COMMANDS = {
    "surgery-invariants": ["surgery-invariants", "diagram.json", "--chi"],
    "dual-invariants": ["dual-invariants", "--tb", "-15", "--rot", "-2", "--stab", "+1", "--chi"],
    "certify-bennequin rational": ["certify-bennequin", "--tb-q", "1", "--rot-q", "0", "--chi"],
    "certify-bennequin transverse": ["certify-bennequin", "--sl-q", "1", "--order", "3", "--chi"],
    "certify-tension rational": ["certify-tension", "--tb-q", "1/3", "--rot-q", "0", "--order", "3", "--chi"],
    "certify-dual": ["certify-dual", "--tb", "-15", "--rot", "-2", "--surgery-overtwisted", "--chi"],
}
# those of them whose chi is also a knot's, and so odd
KNOT_CHI_COMMANDS = {"certify-dual"}


@pytest.mark.parametrize("command", sorted(RATIONAL_COMMANDS))
@pytest.mark.parametrize("chi", [2, 4, 6])
def test_rational_commands_reject_chi_above_one(run_cli, command, chi):
    argv = RATIONAL_COMMANDS[command] + [str(chi)]
    code, doc = run_cli.json(argv)
    assert code == 1
    assert doc == {"error": {"type": "InvalidParams", "message": f"chi must be <= 1, got {chi}"}}


@pytest.mark.parametrize(
    "chi, command",
    [
        (chi, command)
        for chi in (1, 0, -2, -7)
        for command in sorted(RATIONAL_COMMANDS)
        if chi % 2 or command not in KNOT_CHI_COMMANDS
    ],
)
def test_rational_commands_take_any_chi_up_to_one(run_cli, command, chi):
    argv = RATIONAL_COMMANDS[command] + [str(chi)]
    code, doc = run_cli.json(argv)
    assert code == 0, doc


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify-bennequin", "--tb", "1", "--rot", "0", "--chi", "4"], "chi must be <= 1, got 4"),
        (["certify-bennequin", "--tb", "1", "--rot", "0", "--chi", "-2"], "chi of a knot's Seifert surface is odd, got -2"),
        (["certify-tension", "--tb", "1", "--rot", "0", "--chi", "0"], "chi of a knot's Seifert surface is odd, got 0"),
    ],
)
def test_classical_commands_keep_chi_odd_and_at_most_one(run_cli, argv, message):
    assert run_cli.json(argv) == (1, {"error": {"type": "InvalidParams", "message": message}})


@pytest.mark.parametrize("chi", [0, -2, -8])
def test_certify_dual_takes_only_a_knots_chi(run_cli, chi):
    """The dual's chi is the surgered knot's, so the tension criterion checks
    it is odd, as it checks a knot record's."""
    message = f"chi of a knot's Seifert surface is odd, got {chi}"
    argv = ["certify-dual", "--tb", "-15", "--rot", "-2", "--chi", str(chi), "--surgery-overtwisted",
            "--complement-tight"]
    assert run_cli.json(argv) == (1, {"error": {"type": "InvalidParams", "message": message}})
    with pytest.raises(InvalidParams, match=message):
        tension_one_dual(-15, -2, chi, True)
    with pytest.raises(InvalidParams, match=message):
        tension_one_dual(-2, 1, chi, False)  # hypotheses failing too


def test_library_checks():
    with pytest.raises(InvalidParams, match="chi must be <= 1, got 2"):
        RationalData(Fraction(1, 3), 0, 3, 2)
    with pytest.raises(InvalidParams, match="chi must be <= 1, got 3"):
        transverse_bennequin(1, 3, 1)
    assert RationalData(Fraction(1, 3), 0, 3, -2).chi == -2
    assert transverse_bennequin(Fraction(1, 3), 0, 3) is CheckResult.VIOLATED


@pytest.mark.parametrize("chi", [-4, 0, -10])
def test_knot_record_rejects_even_chi(run_cli, tmp_path, chi):
    message = f"chi of a knot's Seifert surface is odd, got {chi}"
    with pytest.raises(InvalidParams, match=message):
        KnotRecord("k", -3, frozenset({0}), chi)
    entry = {"family": "k", "max_tb": -3, "rot_at_max_tb": [0], "chi": chi}
    with pytest.raises(InvalidParams, match=message):
        record_from_dict(entry)
    path = tmp_path / "records.json"
    path.write_text(json.dumps([entry]))
    code, doc = run_cli.json(["--records", str(path), "knot-record", "--name", "k"])
    assert code == 1
    assert doc == {"error": {"type": "InvalidParams", "message": message}}


def test_knot_record_keeps_its_message_above_one(run_cli, tmp_path):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"family": "k", "max_tb": -3, "rot_at_max_tb": [0], "chi": 4}]))
    code, doc = run_cli.json(["--records", str(path), "knot-record", "--name", "k"])
    assert code == 1
    assert doc == {"error": {"type": "InvalidParams", "message": "chi must be <= 1, got 4"}}
