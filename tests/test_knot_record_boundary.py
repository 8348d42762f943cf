"""``knot-record`` reads a tag's number in ASCII digits only, and a given
``--records`` is always the file it reads, even when empty."""

import json

import pytest

from nonloose import cli


def run_json(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


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
def test_tag_number_is_ascii_and_convertible(capsys, tag, message):
    code, doc = run_json(capsys, "knot-record", "--tag", tag)
    assert (code, doc) == (1, {"error": {"type": "UnknownTag", "message": message}})


@pytest.fixture
def default_records(tmp_path, monkeypatch):
    path = tmp_path / "records.json"
    path.write_text(json.dumps([{"family": "custom", "max_tb": -3, "rot_at_max_tb": [0], "chi": -1}]))
    monkeypatch.setattr(cli, "DEFAULT_RECORDS_PATH", path)
    return path


def test_empty_records_flag_reads_no_default_file(capsys, default_records):
    code, doc = run_json(capsys, "--records", "", "knot-record", "--name", "custom")
    assert code == 1
    assert doc["error"]["type"] == "InvalidParams"
    assert doc["error"]["message"].startswith("cannot read records file :")


def test_default_records_file_is_read_without_the_flag(capsys, default_records):
    code, doc = run_json(capsys, "knot-record", "--name", "custom")
    assert (code, doc["family"], doc["max_tb"]) == (0, "custom", -3)
