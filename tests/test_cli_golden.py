"""Golden stdout of the command line.

Each case pins the exact stdout text and exit code of ``cli.main`` for one
argument list: every example of the README's CLI section (run in a directory
holding the files it names), each subcommand once with ``--format text``, and
one error document each for a ``DomainError`` and an ``InputError``.  A change
meant to keep the output byte-identical must leave every case passing as it
stands.
"""

import hashlib
import json
from textwrap import dedent

import pytest

from nonloose.cli import main

FILES = {
    "unknot.front": "l 1\nr 1\n",
    "stabilized.front": "l 1\nl 1\nr 2\nr 1\n",
    "diagram.json": json.dumps(
        {
            "components": [
                {"id": "Lstar", "tb": -16, "rot": -1, "coeff": "passive"},
                {"id": "L", "tb": -15, "rot": -2, "coeff": "+1"},
            ],
            "lk": [["Lstar", "L", -15]],
            "distinguished": "Lstar",
        }
    ),
    "my_records.json": json.dumps(
        [{"family": "custom", "max_tb": -3, "rot_at_max_tb": [0], "chi": -1}]
    ),
    "empty.json": "",
}

# name -> (argument list split on spaces, exit code, stdout with its
# indentation removed by ``dedent``)
CASES = {
    "readme front-invariants": (
        "front-invariants unknot.front",
        0,
        """\
            {
              "tb": -1,
              "rot": 0,
              "writhe": 0,
              "up_cusps": 1,
              "down_cusps": 1
            }
        """
    ),
    "readme front-stabilize": (
        "front-stabilize unknot.front --sign +",
        0,
        """\
            {
              "word": "l 1\\nl 1\\nr 2\\nr 1\\n",
              "tb": -2,
              "rot": 1,
              "writhe": 0,
              "up_cusps": 1,
              "down_cusps": 3
            }
        """
    ),
    "readme front-destab": (
        "front-destab stabilized.front",
        0,
        """\
            {
              "found": true,
              "event_indices": [
                1,
                2
              ],
              "word": "l 1\\nr 1\\n",
              "tb": -1,
              "rot": 0,
              "writhe": 0,
              "up_cusps": 1,
              "down_cusps": 1
            }
        """
    ),
    "readme dual-invariants": (
        "dual-invariants --tb -15 --rot -2 --chi -7 --stab +1",
        0,
        """\
            {
              "tb_q": "1/14",
              "rot_q": "8/7",
              "r": 14,
              "chi": -7
            }
        """
    ),
    "readme surgery-invariants": (
        "surgery-invariants diagram.json --chi -7",
        0,
        """\
            {
              "tb_q": "1/14",
              "rot_q": "8/7",
              "r": 14,
              "chi": -7
            }
        """
    ),
    "readme certify-bennequin classical": (
        "certify-bennequin --tb 0 --rot 3 --chi -1",
        0,
        """\
            {
              "check": "classical",
              "result": "Violated"
            }
        """
    ),
    "readme certify-bennequin rational": (
        "certify-bennequin --tb-q 15/14 --rot-q 1/7 --order 14 --chi -7",
        0,
        """\
            {
              "check": "rational",
              "result": "Holds"
            }
        """
    ),
    "readme certify-bennequin transverse": (
        "certify-bennequin --sl-q=-15/14 --order 14 --chi -7",
        0,
        """\
            {
              "check": "transverse",
              "result": "Holds"
            }
        """
    ),
    "readme certify-unknot": (
        "certify-unknot --tb 2 --rot 1",
        0,
        """\
            {
              "verdict": "Inconclusive",
              "details": {
                "knot_type": "unknot",
                "tb": 2,
                "rot": 1,
                "possibly_nonloose": true,
                "if_nonloose": {
                  "depth": 1,
                  "tension": 1,
                  "order_bar": 0
                },
                "order_bar_max": 0
              },
              "reasons": [
                {
                  "rule": "unknot-classification",
                  "note": "(tb, rot) = (n, +-(n-1)) matches a classified non-loose unknot",
                  "inputs": {
                    "tb": 2,
                    "rot": 1
                  }
                },
                {
                  "rule": "unknot-depth-tension",
                  "note": "every non-loose unknot has depth = tension = 1",
                  "inputs": {}
                },
                {
                  "rule": "tb-bound-order-zero",
                  "note": "non-loose unknots have tb >= 1, so the torsion order vanishes",
                  "inputs": {}
                }
              ],
              "assumptions": {}
            }
        """
    ),
    "readme certify-dual": (
        "certify-dual --tb -15 --rot -2 --chi -7 --surgery-overtwisted --complement-tight",
        0,
        """\
            {
              "stabilized_dual": {
                "tb_q": "1/14",
                "rot_q": "8/7",
                "r": 14,
                "chi": -7
              },
              "bennequin_rational": "Violated",
              "tension": {
                "verdict": "TensionExactlyOne",
                "details": {
                  "tb": -15,
                  "rot": -2,
                  "chi": -7,
                  "tension_min": 1,
                  "tension_max": 1
                },
                "reasons": [
                  {
                    "rule": "dual-tension-criterion",
                    "note": "a positive stabilization of the dual violates the rational Bennequin bound, and the dual itself is non-loose",
                    "inputs": {
                      "tb": -15,
                      "rot": -2,
                      "chi": -7
                    }
                  }
                ],
                "assumptions": {
                  "surgery_overtwisted": true
                }
              },
              "depth": {
                "verdict": "DepthAtLeastTwo",
                "details": {
                  "depth_min": 2
                },
                "reasons": [
                  {
                    "rule": "dual-depth-characterization",
                    "note": "depth one of the dual forces the surgered knot to destabilize",
                    "inputs": {}
                  }
                ],
                "assumptions": {
                  "is_stabilization": false,
                  "complement_tight": true
                }
              }
            }
        """
    ),
    "readme certify-tension": (
        "certify-tension --tb 3 --rot 0 --chi -1",
        0,
        """\
            {
              "bound": 3,
              "witness": [
                0,
                3
              ],
              "max_n": 64
            }
        """
    ),
    "readme knot-record family": (
        "knot-record --family negative-torus --p -5 --q 3",
        0,
        """\
            {
              "family": "torus(-5,3)",
              "max_tb": -15,
              "rot_at_max_tb": [
                -2
              ],
              "chi": -7,
              "g_s": null,
              "plus_one_surgery_overtwisted": true,
              "ambient": "tight-S3",
              "order_positive": false
            }
        """
    ),
    "readme knot-record tag": (
        "knot-record --tag L2q(3)",
        0,
        """\
            {
              "family": "torus(2,3)",
              "max_tb": 3,
              "rot_at_max_tb": [
                0
              ],
              "chi": -1,
              "g_s": null,
              "plus_one_surgery_overtwisted": null,
              "ambient": "overtwisted-S3(hopf=-1)",
              "order_positive": false
            }
        """
    ),
    "readme knot-record name": (
        "--records my_records.json knot-record --name custom",
        0,
        """\
            {
              "family": "custom",
              "max_tb": -3,
              "rot_at_max_tb": [
                0
              ],
              "chi": -1,
              "g_s": null,
              "plus_one_surgery_overtwisted": null,
              "ambient": "tight-S3",
              "order_positive": false
            }
        """
    ),
    "text front-invariants": (
        "--format text front-invariants unknot.front",
        0,
        """\
            tb: -1
            rot: 0
            writhe: 0
            up_cusps: 1
            down_cusps: 1
        """
    ),
    "text front-stabilize": (
        "--format text front-stabilize unknot.front --sign -",
        0,
        """\
            word: l 1
            l 2
            r 1
            r 1

            tb: -2
            rot: -1
            writhe: 0
            up_cusps: 3
            down_cusps: 1
        """
    ),
    "text front-destab": (
        "--format text front-destab unknot.front",
        0,
        """\
            found: False
        """
    ),
    "text surgery-invariants": (
        "--format text surgery-invariants diagram.json --chi -7 --reverse-distinguished",
        0,
        """\
            tb_q: 1/14
            rot_q: -8/7
            r: 14
            chi: -7
        """
    ),
    "text dual-invariants": (
        "--format text dual-invariants --tb -15 --rot -2 --chi -7 --stab +1 --stab -2",
        0,
        """\
            tb_q: -27/14
            rot_q: -6/7
            r: 14
            chi: -7
        """
    ),
    "text certify-bennequin": (
        "--format text certify-bennequin --tb-q=5/3 --rot-q=-1/3 --order 3 --chi -1",
        0,
        """\
            check: rational
            result: Holds
        """
    ),
    "text certify-unknot": (
        "--format text certify-unknot --tb 0 --rot 1",
        0,
        """\
            verdict: LooseCertified
            details.knot_type: unknot
            details.tb: 0
            details.rot: 1
            details.depth_min: 0
            details.depth_max: 0
            details.tension_min: 0
            details.tension_max: 0
            details.order_bar_max: 0
            reasons: [{"rule": "unknot-tb-nonpositive", "note": "a Legendrian unknot with tb <= 0 in an overtwisted structure is loose", "inputs": {"tb": 0}}]
        """
    ),
    "text certify-dual": (
        "--format text certify-dual --tb -2 --rot 1 --chi -1 --is-stabilization",
        0,
        """\
            stabilized_dual.tb_q: 1
            stabilized_dual.rot_q: 0
            stabilized_dual.r: 1
            stabilized_dual.chi: -1
            bennequin_rational: Holds
            tension.verdict: Inconclusive
            tension.details.tb: -2
            tension.details.rot: 1
            tension.details.chi: -1
            tension.details.failed_conditions: ["rot < 0", "tb + rot + 2 < chi", "surgery_overtwisted"]
            tension.reasons: [{"rule": "dual-tension-criterion", "note": "hypotheses of the dual tension-one criterion are not all met", "inputs": {"tb": -2, "rot": 1, "chi": -1}}]
            tension.assumptions.surgery_overtwisted: False
            depth.verdict: LooseCertified
            depth.details.depth_min: 0
            depth.details.depth_max: 0
            depth.details.tension_min: 0
            depth.details.tension_max: 0
            depth.reasons: [{"rule": "loose-complement", "note": "an overtwisted complement is the definition of loose", "inputs": {}}]
            depth.assumptions.is_stabilization: True
            depth.assumptions.complement_tight: False
        """
    ),
    "text certify-tension": (
        "--format text certify-tension --tb 3 --rot 0 --chi -1 --max-n 2",
        0,
        """\
            bound: None
            witness: None
            max_n: 2
        """
    ),
    "text search-examples": (
        "--format text search-examples --p-max 3",
        0,
        """\
            certificates: [{"knot": "torus(-3,2)", "t": 1, "d": ">=2", "certificate": {"verdict": "TensionExactlyOne", "details": {"knot": "torus(-3,2)", "tb": -6, "rot": -1, "chi": -1, "tension_min": 1, "tension_max": 1, "depth_min": 2, "dual_tb_q": "1/5", "dual_rot_q": "6/5", "dual_order_r": 5}, "reasons": [{"rule": "dual-tension-criterion", "note": "a positive stabilization of the dual violates the rational Bennequin bound, and the dual itself is non-loose", "inputs": {"tb": -6, "rot": -1, "chi": -1}}, {"rule": "dual-depth-characterization", "note": "depth one of the dual forces the surgered knot to destabilize", "inputs": {}}, {"rule": "max-tb-witness", "note": "tb equals the classified maximum, ruling out a destabilization", "inputs": {"tb": -6, "max_tb": -6}}, {"rule": "bennequin-rational", "note": "the stabilized dual violates the rational Bennequin bound", "inputs": {"tb_q": "1/5", "rot_q": "6/5", "r": 5, "chi": -1}}], "assumptions": {"surgery_overtwisted": true, "complement_tight": true}}}]
        """
    ),
    "text knot-record": (
        "--format text knot-record --family unknot",
        0,
        """\
            family: unknot
            max_tb: -1
            rot_at_max_tb: [0]
            chi: 1
            g_s: None
            plus_one_surgery_overtwisted: None
            ambient: tight-S3
            order_positive: False
        """
    ),
    "DomainError document": (
        "certify-tension --tb 3 --chi -1",
        1,
        """\
            {
              "error": {
                "type": "DomainError",
                "message": "classical invariants need --tb and --rot"
              }
            }
        """
    ),
    "InputError document": (
        "surgery-invariants empty.json --chi -7",
        1,
        """\
            {
              "error": {
                "type": "InputError",
                "message": "surgery diagram is not valid JSON: Expecting value: line 1 column 1 (char 0)"
              }
            }
        """
    ),
}

# The README's search-examples command prints 294 lines; they are pinned by
# digest, and the one-certificate run of "text search-examples" pins the
# fields of a certificate in full.
SEARCH_EXAMPLES_P_MAX_5_SHA256 = (
    "6fd1ad0d847117cb12c9e82b274e1ac0a7e7e6bac44478b50ca4582d59c02e69"
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv, code, stdout", CASES.values(), ids=CASES)
def test_stdout(workdir, capsys, argv, code, stdout):
    assert main(argv.split()) == code
    assert capsys.readouterr().out == dedent(stdout)


def test_readme_search_examples(capsys):
    assert main(["search-examples", "--p-max", "5"]) == 0
    out = capsys.readouterr().out
    knots = [c["knot"] for c in json.loads(out)["certificates"]]
    assert knots == ["torus(-3,2)", "torus(-4,3)", "torus(-5,2)", "torus(-5,3)", "torus(-5,4)"]
    assert len(out.splitlines()) == 294
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_EXAMPLES_P_MAX_5_SHA256
