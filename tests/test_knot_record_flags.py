"""``knot-record`` takes exactly one selector, and --p/--q only with a torus
family; any other combination is a domain error, never a silent drop."""

import pytest

REJECTED = {
    "tag and family": (["--tag", "L2q(3)", "--family", "unknot"], "not --family and --tag"),
    "tag and name": (["--tag", "L2q(3)", "--name", "k"], "not --tag and --name"),
    "family and name": (["--family", "unknot", "--name", "k"], "not --family and --name"),
    "all three": (
        ["--family", "unknot", "--tag", "L2q(3)", "--name", "k"],
        "not --family and --tag and --name",
    ),
    "torus family and tag": (
        ["--family", "positive-torus", "--p", "2", "--q", "3", "--tag", "L2q(3)"],
        "not --family and --tag",
    ),
    "unknot with p and q": (["--family", "unknot", "--p", "5", "--q", "3"], "--p and --q go with"),
    "unknot with p": (["--family", "unknot", "--p", "5"], "--p and --q go with"),
    "unknot with q": (["--family", "unknot", "--q", "3"], "--p and --q go with"),
    "tag with p and q": (["--tag", "L2q(3)", "--p", "2", "--q", "3"], "--p and --q go with"),
    "name with q": (["--name", "k", "--q", "3"], "--p and --q go with"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_combinations(run_cli, case):
    argv, fragment = REJECTED[case]
    code, doc = run_cli.json(["knot-record", *argv])
    assert code == 1
    assert doc["error"]["type"] == "DomainError"
    assert fragment in doc["error"]["message"]


@pytest.mark.parametrize("argv", [[], ["--p", "2", "--q", "3"]])
def test_no_selector_keeps_its_message(run_cli, argv):
    code, doc = run_cli.json(["knot-record", *argv])
    assert (code, doc["error"]) == (1, {"type": "DomainError", "message": "choose --family, --tag or --name"})


def test_half_given_torus_keeps_its_message(run_cli):
    code, doc = run_cli.json("knot-record --family negative-torus --p -5")
    assert (code, doc["error"]["message"]) == (1, "negative-torus needs --p and --q")


@pytest.mark.parametrize(
    "argv, family",
    [
        (["--family", "unknot"], "unknot"),
        (["--family", "positive-torus", "--p", "2", "--q", "3"], "torus(2,3)"),
    ],
)
def test_one_selector_still_works(run_cli, argv, family):
    code, doc = run_cli.json(["knot-record", *argv])
    assert (code, doc["family"]) == (0, family)
