"""``knot-record`` reads a tag's number in ASCII digits only.  That a given
``--records`` is always the file it reads, even when empty, is pinned by the
golden rows "default records file" and "empty --records"."""

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

