"""The example inputs the tests share, each defined once: the README's front
words and surgery diagram (and that diagram with a misspelt key), and the
files of the work directory in which a command line runs
(``conftest.workdir``), written by ``write_files``."""

import json
import os

UNKNOT = "l 1\nr 1\n"
STABILIZED = "l 1\nl 1\nr 2\nr 1\n"  # the unknot stabilized positively, a zigzag at events (1, 2)
TREFOIL = "l 1 ; l 2 ; x 1 ; x 1 ; x 1 ; r 2 ; r 1\n"  # the maximal-tb trefoil

# the README's surgery diagram, and its invariants at chi = -7 as a command prints them
README_DIAGRAM = {
    "components": [
        {"id": "Lstar", "tb": -16, "rot": -1, "coeff": "passive"},
        {"id": "L", "tb": -15, "rot": -2, "coeff": "+1"},
    ],
    "lk": [["Lstar", "L", -15]],
    "distinguished": "Lstar",
}
README_DOC = {"tb_q": "1/14", "rot_q": "8/7", "r": 14, "chi": -7}
# the README's diagram with "links" for "lk", a key no diagram has: ignored,
# it would leave the diagram unlinked
LINKS_DIAGRAM = {"links" if key == "lk" else key: value for key, value in README_DIAGRAM.items()}

# the default records file, relative to HOME
RECORDS = os.path.join(".config", "nonloose", "records.json")

FILES = {
    "unknot.front": UNKNOT,
    "stabilized.front": STABILIZED,
    "trefoil.front": TREFOIL,
    "diagram.json": json.dumps(README_DIAGRAM),
    "my_records.json": json.dumps(
        [{"family": "custom", "max_tb": -3, "rot_at_max_tb": [0], "chi": -1}]
    ),
    "empty.json": "",
    RECORDS: json.dumps([{"family": "house", "max_tb": -2, "rot_at_max_tb": [1], "chi": -3}]),
}


def write_files(directory):
    """Writes ``FILES`` into ``directory`` (a ``pathlib.Path``) and returns it."""
    for name, text in FILES.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return directory
