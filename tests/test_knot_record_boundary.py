"""``knot-record`` reads a tag's number in ASCII digits only, and a given
``--records`` is always the file it reads, even when empty."""

import pytest


@pytest.mark.parametrize(
    "tag, message",
    [
        ("L2q(" + "9" * 5000 + ")", "L2q number of 5000 digits is too large"),
        ("LOSSfamily(" + "9" * 5000 + ")", "LOSSfamily number of 5000 digits is too large"),
        ("L2q(٣)", "unrecognized tag 'L2q(٣)'"),
        ("LOSSfamily(٣)", "unrecognized tag 'LOSSfamily(٣)'"),
    ],
    ids=["L2q-5000-digits", "LOSSfamily-5000-digits", "L2q-arabic-indic", "LOSSfamily-arabic-indic"],
)
def test_tag_number_is_ascii_and_convertible(run_cli, tag, message):
    code, doc = run_cli.json(["knot-record", "--tag", tag])
    assert (code, doc) == (1, {"error": {"type": "UnknownTag", "message": message}})


# run_cli's HOME holds a default records file, with one record named "house"
def test_empty_records_flag_reads_no_default_file(run_cli):
    code, doc = run_cli.json(["--records", "", "knot-record", "--name", "house"])
    assert code == 1
    assert doc["error"]["type"] == "InvalidParams"
    assert doc["error"]["message"].startswith("cannot read records file :")


def test_default_records_file_is_read_without_the_flag(run_cli):
    code, doc = run_cli.json("knot-record --name house")
    assert (code, doc["family"], doc["max_tb"]) == (0, "house", -2)
