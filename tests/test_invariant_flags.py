"""certify-bennequin and certify-tension read their invariant flags one way:
exactly one kind, classical (--tb, --rot), rational (--tb-q, --rot-q) or,
for certify-bennequin, transverse (--sl-q), each pair given whole.  --order
goes with the rational and transverse kinds only, and defaults to 1 there."""

import pytest

REJECTED = [
    # a rational flag beside a classical pair
    ["certify-tension", "--tb", "3", "--rot", "0", "--rot-q", "1/2", "--chi", "-1"],
    ["certify-bennequin", "--tb", "3", "--rot", "0", "--rot-q", "1/2", "--chi", "-1"],
    ["certify-tension", "--tb", "3", "--rot", "0", "--tb-q", "1/2", "--chi", "-1"],
    # a classical flag beside a rational pair
    ["certify-tension", "--tb-q", "1/2", "--rot-q", "1/2", "--tb", "4", "--chi", "-1"],
    ["certify-bennequin", "--tb-q", "1/2", "--rot-q", "1/2", "--rot", "4", "--chi", "-1"],
    # a classical flag beside the transverse one
    ["certify-bennequin", "--sl-q", "1", "--tb", "3", "--chi", "-1"],
    ["certify-bennequin", "--sl-q", "1", "--tb", "3", "--rot", "0", "--chi", "-1"],
    # a rational flag beside the transverse one
    ["certify-bennequin", "--sl-q", "1", "--tb-q", "1/2", "--rot-q", "1/2", "--chi", "-1"],
    # half a rational pair
    ["certify-bennequin", "--rot-q", "1/2", "--chi", "-1"],
    ["certify-bennequin", "--tb-q", "1/2", "--chi", "-1"],
    ["certify-tension", "--rot-q", "1/2", "--chi", "-1"],
    ["certify-tension", "--tb-q", "1/2", "--chi", "-1"],
    # half a classical pair, or nothing
    ["certify-bennequin", "--tb", "3", "--chi", "-1"],
    ["certify-tension", "--rot", "0", "--chi", "-1"],
    ["certify-bennequin", "--chi", "-1"],
    ["certify-tension", "--chi", "-1"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_mixed_or_half_given_flags_are_domain_errors(run_cli, argv):
    code, doc = run_cli.json(argv)
    assert code == 1
    assert doc["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-bennequin", "--tb", "0", "--rot", "3", "--order", "5", "--chi", "-1"],
        ["certify-tension", "--tb", "3", "--rot", "0", "--chi", "-1", "--order", "9"],
    ],
    ids=" ".join,
)
def test_order_beside_a_classical_pair_is_a_domain_error(run_cli, argv):
    # only rational and transverse invariants have an order
    code, doc = run_cli.json(argv)
    assert code == 1
    assert doc["error"] == {
        "type": "DomainError",
        "message": "--order goes with rational or transverse invariants, not --tb and --rot",
    }


# The golden rows "readme certify-bennequin classical", "... rational",
# "... transverse" and "readme certify-tension" read one whole kind each.
def test_one_whole_kind_is_read(run_cli):
    argv = "certify-tension --tb-q 15/14 --rot-q 1/7 --order 14 --chi -7 --side positive_only"
    assert run_cli.json(argv) == (0, {"bound": 1, "witness": [1, 0], "max_n": 64})


@pytest.mark.parametrize(
    "argv, error",
    [
        (["certify-bennequin", "--tb", "0", "--rot", "3", "--chi", "2"], "InvalidParams"),
        (["certify-bennequin", "--tb-q", "1", "--rot-q", "0", "--order", "0", "--chi", "-1"], "InvalidParams"),
        (["certify-bennequin", "--sl-q", "1", "--order", "0", "--chi", "-1"], "InvalidParams"),
        (["certify-tension", "--tb-q", "1", "--rot-q", "0", "--order", "0", "--chi", "-1"], "InvalidParams"),
    ],
)
def test_values_are_still_checked_by_the_library(run_cli, argv, error):
    code, doc = run_cli.json(argv)
    assert code == 1
    assert doc["error"]["type"] == error


@pytest.mark.parametrize(
    "argv",
    [
        ["certify-bennequin", "--sl-q", "1", "--chi", "-1"],
        ["certify-bennequin", "--tb-q", "0", "--rot-q", "1", "--chi", "-1"],
        ["certify-tension", "--tb-q", "3", "--rot-q", "0", "--chi", "-1"],
    ],
    ids=" ".join,
)
def test_order_defaults_to_one(run_cli, argv):
    code, doc = run_cli.json(argv)
    assert code == 0
    assert run_cli.json([*argv, "--order", "1"]) == (0, doc)
    assert run_cli.json([*argv, "--order", "2"]) != (0, doc)
