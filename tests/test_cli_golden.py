"""Golden stdout of the command line: the CLI contract, and the only
statement of what a command prints.

Each case pins the exact stdout text and exit code of one command line: every
example of the README's CLI section (run in a directory holding the files it
names), each subcommand once with ``--format text``, error documents (a
``DomainError``, an ``InputError`` for a file that is not JSON and one that
is missing, ``InvalidParams``, ``MeridionalSlope``, ``SingularMatrix``, the
front word errors ``UnknownToken``, ``EmptyWord``, ``NonzeroFinalStrands``,
``MultipleComponents`` and ``PositionOutOfRange``, and a ``DiagramError``
for an unknown key, for a document that is not an object and for a
component whose tb + rot is even, and an ``InvalidParams`` for rational
invariants off the lattice (1/r) Z and for a dual whose tb + rot is even;
the law of
``test_printed_names`` holds every error type a command prints to a case
here), and the edges of the input boundary
(stdin input, the default records file, flag values that are errors, an
abbreviated flag, an unknown subcommand).
A change meant to keep the output byte-identical must leave every case
passing as it stands.  ``test_readme_cli_block`` holds the README's CLI
section to the table: each command there is a case, and each output it
shows is that case's stdout.

Every case runs twice: through ``cli.main`` in this process, with the shared
``run_cli`` runner of ``conftest``, and as ``python -m nonloose.cli`` in a
fresh process, where a handler that lost one of its imports shows.  Both
runs get the case's stdin, run in a work directory that holds
``examples.FILES`` and see that directory as ``HOME``, so the default records
file is the one written there, never the user's own.
"""

import hashlib
import json
import random
import shlex
from pathlib import Path
from textwrap import dedent
from typing import NamedTuple

import pytest
from examples import FILES, LINKS_DIAGRAM, STABILIZED, UNKNOT
from fresh_process import run_python

README = Path(__file__).resolve().parents[1] / "README.md"


class Case(NamedTuple):
    argv: str  # split as a shell would, by shlex.split
    code: int
    stdout: str  # with its indentation removed by dedent
    stdin: str = ""


# Two unlinked surgered components, M = diag(2, 3), each linking the passive
# one once, so M x = (1, 1) gives x = (1/2, 1/3), r = 6 and y = r x = (3, 2):
# tb_q = (6 (-2) - 5)/6 and rot_q = (6 - 2)/6 = 2/3.  Each tb + rot is odd,
# as for any Legendrian knot.
R6_DIAGRAM = {
    "components": [
        {"id": "K", "tb": -2, "rot": 1, "coeff": "passive"},
        {"id": "A", "tb": 1, "rot": 0, "coeff": "+1"},
        {"id": "B", "tb": 2, "rot": 1, "coeff": "+1"},
    ],
    "lk": [["K", "A", 1], ["K", "B", 1]],
    "distinguished": "K",
}

# R6_DIAGRAM with B's rot set to 0: its tb + rot = 2 is even, which no
# Legendrian knot has.
EVEN_PAIR_DIAGRAM = dict(
    R6_DIAGRAM, components=[*R6_DIAGRAM["components"][:2], dict(R6_DIAGRAM["components"][2], rot=0)]
)

# Eleven surgered components, 16 of their 55 pairs linked, and the passive
# one linking four of them: an 11 x 11 M that is mostly zeros, with zero
# diagonal entries at K5 (tb -1, coefficient +1) and K7 (tb 1, coefficient
# -1), so the solve cannot pivot down the diagonal.  x has denominators 97
# and 194, so r = 194.  Each tb + rot is odd.
SPARSE_DIAGRAM = {
    "components": [
        {"id": "P", "tb": -3, "rot": 0, "coeff": "passive"},
        {"id": "K0", "tb": 1, "rot": 0, "coeff": "+1"},
        {"id": "K1", "tb": -4, "rot": 3, "coeff": "-1"},
        {"id": "K2", "tb": -3, "rot": 0, "coeff": "+1"},
        {"id": "K3", "tb": -1, "rot": -2, "coeff": "-1"},
        {"id": "K4", "tb": -2, "rot": 1, "coeff": "+1"},
        {"id": "K5", "tb": -1, "rot": 2, "coeff": "+1"},
        {"id": "K6", "tb": -6, "rot": -3, "coeff": "-1"},
        {"id": "K7", "tb": 1, "rot": 2, "coeff": "-1"},
        {"id": "K8", "tb": -1, "rot": 2, "coeff": "-1"},
        {"id": "K9", "tb": -1, "rot": -2, "coeff": "-1"},
        {"id": "K10", "tb": -5, "rot": 2, "coeff": "-1"},
    ],
    "lk": [
        ["K0", "K5", 2], ["K0", "K7", -2], ["K0", "K9", 1], ["K0", "K10", -1],
        ["K1", "K3", -1], ["K1", "K8", -2], ["K1", "K10", -1],
        ["K2", "K3", 2], ["K2", "K6", 2], ["K2", "K10", -1],
        ["K3", "K5", 1], ["K4", "K6", -1], ["K4", "K9", 1],
        ["K6", "K9", -2], ["K7", "K9", -1], ["K7", "K10", -1],
        ["P", "K5", 1], ["P", "K1", -1], ["P", "K2", 1], ["P", "K8", 1],
    ],
    "distinguished": "P",
}


def sparse_forty_component_diagram(seed=25):
    """Thirty-nine surgered components and a passive one, each pair linked
    with probability 0.08 by +-1, +-2 or +-3: a 39 x 39 M, mostly zeros,
    larger than the largest (28 x 28) of the benchmark's surgery workload.
    tb is in [-8, 1], each coefficient +1 or -1 and each tb + rot odd.  For
    seed 25, 59 of the 780 pairs are linked and r = 33120350282, twice the
    denominator of tb_Q and of rot_Q."""
    rng = random.Random(seed)
    components = [{"id": "P", "tb": -3, "rot": 0, "coeff": "passive"}]
    for k in range(39):
        tb = rng.randint(-8, 1)
        rot = rng.choice([rot for rot in range(-3, 4) if (tb + rot) % 2])
        components.append({"id": f"K{k}", "tb": tb, "rot": rot, "coeff": rng.choice(["+1", "-1"])})
    ids = [c["id"] for c in components]
    lk = [
        [a, b, rng.choice([-3, -2, -1, 1, 2, 3])]
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if rng.random() < 0.08
    ]
    return {"components": components, "lk": lk, "distinguished": "P"}


# A surgered component with tb = -1 and coefficient +1 has the diagonal
# entry tb + 1 = 0, and links nothing else surgered, so M = (0) is singular.
SINGULAR_DIAGRAM = {
    "components": [
        {"id": "K", "tb": -2, "rot": 1, "coeff": "passive"},
        {"id": "A", "tb": -1, "rot": 0, "coeff": "+1"},
    ],
    "lk": [["K", "A", 1]],
    "distinguished": "K",
}

# name -> the fields of its Case
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
    "knot-record positive torus": (
        "knot-record --family positive-torus --p 2 --q 3",
        0,
        """\
            {
              "family": "torus(2,3)",
              "max_tb": 1,
              "rot_at_max_tb": [
                0
              ],
              "chi": -1,
              "g_s": 1,
              "plus_one_surgery_overtwisted": null,
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
    "trefoil front-invariants": (
        "front-invariants trefoil.front",
        0,
        """\
            {
              "tb": 1,
              "rot": 0,
              "writhe": 3,
              "up_cusps": 2,
              "down_cusps": 2
            }
        """
    ),
    "PositionOutOfRange document": (
        "front-invariants -",
        1,
        """\
            {
              "error": {
                "type": "PositionOutOfRange",
                "message": "event 1: right cusp at 2 with 2 strands"
              }
            }
        """,
        "l 1 ; r 2",
    ),
    "missing front file": (
        "front-invariants no_such.front",
        1,
        """\
            {
              "error": {
                "type": "InputError",
                "message": "cannot read no_such.front: [Errno 2] No such file or directory: 'no_such.front'"
              }
            }
        """
    ),
    "MeridionalSlope document": (
        "dual-invariants --tb -1 --rot 0 --chi 1",
        1,
        """\
            {
              "error": {
                "type": "MeridionalSlope",
                "message": "tb = -1 makes (+1)-surgery meridional (det M = 0)"
              }
            }
        """
    ),
    # No Legendrian knot has tb + rot even, so no diagram has such a dual.
    "dual-invariants with an even tb + rot": (
        "dual-invariants --tb -15 --rot -1 --chi -7",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "tb + rot must be odd, got tb -15 and rot -1"
              }
            }
        """
    ),
    "certify-dual with an even tb + rot": (
        "certify-dual --tb -2 --rot 0 --chi -1 --is-stabilization",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "tb + rot must be odd, got tb -2 and rot 0"
              }
            }
        """
    ),
    "InvalidParams document": (
        "knot-record --family negative-torus --p -4 --q 2",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "need coprime (p, q) with -p > q >= 2, got (-4, 2)"
              }
            }
        """
    ),
    # tb_Q and rot_Q lie in (1/r) Z: 1/2 does at r = 2, 1/3 does not
    "rational invariants off their lattice": (
        "certify-bennequin --tb-q 1/2 --rot-q 1/3 --order 2 --chi -1",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "tb_q and rot_q must be multiples of 1/order_r, got tb_q 1/2, rot_q 1/3 and order_r 2"
              }
            }
        """
    ),
    # sl_Q = tb_Q - rot_Q lies in (1/r) Z too: 1/3 does not at r = 2
    "transverse sl_Q off its lattice": (
        "certify-bennequin --sl-q 1/3 --order 2 --chi -1",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "sl_q must be a multiple of 1/order_r, got sl_q 1/3 and order_r 2"
              }
            }
        """
    ),
    "UnknownToken document": (
        "front-invariants -",
        1,
        """\
            {
              "error": {
                "type": "UnknownToken",
                "message": "unknown token 'q'"
              }
            }
        """,
        "q 1",
    ),
    "EmptyWord document": (
        "front-invariants -",
        1,
        """\
            {
              "error": {
                "type": "EmptyWord",
                "message": "no events in input"
              }
            }
        """,
        "",
    ),
    "NonzeroFinalStrands document": (
        "front-invariants -",
        1,
        """\
            {
              "error": {
                "type": "NonzeroFinalStrands",
                "message": "4 strands left open at the end"
              }
            }
        """,
        "l 1 l 2",
    ),
    "MultipleComponents document": (
        "front-invariants -",
        1,
        """\
            {
              "error": {
                "type": "MultipleComponents",
                "message": "front word traces out more than one component"
              }
            }
        """,
        "l 1 r 1 l 1 r 1",
    ),
    "SingularMatrix document": (
        "surgery-invariants - --chi -1",
        1,
        """\
            {
              "error": {
                "type": "SingularMatrix",
                "message": "surgery linking matrix is singular"
              }
            }
        """,
        json.dumps(SINGULAR_DIAGRAM),
    ),
    # A document that is not an object is a DiagramError, not a leaked Python error.
    "diagram not an object": (
        "surgery-invariants - --chi -1",
        1,
        """\
            {
              "error": {
                "type": "DiagramError",
                "message": "surgery diagram must be a JSON object, got list"
              }
            }
        """,
        "[1]",
    ),
    "stdin surgery-invariants": (
        "surgery-invariants - --chi -7",
        0,
        """\
            {
              "tb_q": "1/14",
              "rot_q": "8/7",
              "r": 14,
              "chi": -7
            }
        """,
        FILES["diagram.json"],
    ),
    # r = 6 is the lcm of the denominators of x = (1/2, 1/3), and neither of them.
    "r the lcm of the denominators": (
        "surgery-invariants - --chi -1",
        0,
        """\
            {
              "tb_q": "-17/6",
              "rot_q": "2/3",
              "r": 6,
              "chi": -1
            }
        """,
        json.dumps(R6_DIAGRAM),
    ),
    # a sparse 11 x 11 linking matrix; the output was pinned before the solve kept sparse rows
    "sparse twelve-component diagram": (
        "surgery-invariants - --chi -5",
        0,
        """\
            {
              "tb_q": "3/97",
              "rot_q": "-410/97",
              "r": 194,
              "chi": -5
            }
        """,
        json.dumps(SPARSE_DIAGRAM),
    ),
    # a sparse 39 x 39 linking matrix; the output was pinned before the solve ran on integer rows
    "sparse forty-component diagram": (
        "surgery-invariants - --chi -5",
        0,
        """\
            {
              "tb_q": "32616100023/16560175141",
              "rot_q": "-691902597201/16560175141",
              "r": 33120350282,
              "chi": -5
            }
        """,
        json.dumps(sparse_forty_component_diagram()),
    ),
    # No Legendrian knot has tb + rot even.
    "even tb + rot": (
        "surgery-invariants - --chi -1",
        1,
        """\
            {
              "error": {
                "type": "DiagramError",
                "message": "component 'B': tb + rot must be odd, got tb 2 and rot 0"
              }
            }
        """,
        json.dumps(EVEN_PAIR_DIAGRAM),
    ),
    # A key the shape does not name is an error, not ignored.
    "unknown diagram key": (
        "surgery-invariants - --chi -7",
        1,
        """\
            {
              "error": {
                "type": "DiagramError",
                "message": "unknown diagram keys: ['links']"
              }
            }
        """,
        json.dumps(LINKS_DIAGRAM),
    ),
    "stdin front-invariants": (
        "front-invariants -",
        0,
        """\
            {
              "tb": -1,
              "rot": 0,
              "writhe": 0,
              "up_cusps": 1,
              "down_cusps": 1
            }
        """,
        UNKNOT,
    ),
    # A '#' comment ends at a line boundary, '\r' included.
    "carriage return ends a comment": (
        "front-stabilize - --sign +",
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
        """,
        "l 1 # c\rr 1\n",
    ),
    # The word just printed parses back to the same tb and rot.
    "stabilized word parses back": (
        "front-invariants -",
        0,
        """\
            {
              "tb": -2,
              "rot": 1,
              "writhe": 0,
              "up_cusps": 1,
              "down_cusps": 3
            }
        """,
        STABILIZED,
    ),
    # --base-direction orients the destabilized front, as front-invariants
    # orients the printed word: leftward swaps up and down cusps and negates rot.
    "leftward front-destab": (
        "front-destab - --base-direction leftward",
        0,
        """\
            {
              "found": true,
              "event_indices": [
                1,
                2
              ],
              "word": "l 1\\nl 1\\nr 2\\nr 1\\n",
              "tb": -2,
              "rot": -1,
              "writhe": 0,
              "up_cusps": 3,
              "down_cusps": 1
            }
        """,
        "l 1 ; l 1 ; r 2 ; l 1 ; r 2 ; r 1",
    ),
    # Within a total the search tests only the splits its side allows: one
    # negative stabilization violates first, two positive ones on the
    # positive side.
    "rational certify-tension both": (
        "certify-tension --tb-q=5/3 --rot-q=-1/3 --order 3 --chi -1 --side both",
        0,
        """\
            {
              "bound": 1,
              "witness": [
                0,
                1
              ],
              "max_n": 64
            }
        """,
    ),
    "rational certify-tension negative_only": (
        "certify-tension --tb-q=5/3 --rot-q=-1/3 --order 3 --chi -1 --side negative_only",
        0,
        """\
            {
              "bound": 1,
              "witness": [
                0,
                1
              ],
              "max_n": 64
            }
        """,
    ),
    "rational certify-tension positive_only": (
        "certify-tension --tb-q=5/3 --rot-q=-1/3 --order 3 --chi -1 --side positive_only",
        0,
        """\
            {
              "bound": 2,
              "witness": [
                2,
                0
              ],
              "max_n": 64
            }
        """,
    ),
    # The budget bounds the total: (0, 3) is found at --max-n 3, not at 2
    # ("text certify-tension").
    "certify-tension at its budget": (
        "certify-tension --tb 3 --rot 0 --chi -1 --max-n 3 --side negative_only",
        0,
        """\
            {
              "bound": 3,
              "witness": [
                0,
                3
              ],
              "max_n": 3
            }
        """,
    ),
    # One side is a closed form: a budget of 10^12 costs what a budget of 0
    # does, and the bound is the least violating total, wherever it lies.
    "certify-tension positive_only at a budget of 10^12": (
        "certify-tension --tb 3 --rot 0 --chi -1 --side positive_only --max-n 1000000000000",
        0,
        """\
            {
              "bound": 3,
              "witness": [
                3,
                0
              ],
              "max_n": 1000000000000
            }
        """,
    ),
    "certify-tension positive_only without a witness at a budget of 10^12": (
        "certify-tension --tb 1 --rot 0 --chi -5 --side positive_only --max-n 1000000000000",
        0,
        """\
            {
              "bound": null,
              "witness": null,
              "max_n": 1000000000000
            }
        """,
    ),
    "negative --p-max": (
        "search-examples --p-max -1",
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "p_max must be nonnegative"
              }
            }
        """,
    ),
    # A tag number past int()'s digit limit is an error document, not a traceback.
    "5000-digit L2q tag": (
        f"knot-record --tag L2q({'9' * 5000})",
        1,
        """\
            {
              "error": {
                "type": "UnknownTag",
                "message": "L2q number of 5000 digits is too large"
              }
            }
        """,
    ),
    # Without --records the default file under HOME is read; a given
    # --records is the file read, even when empty.
    "default records file": (
        "knot-record --name house",
        0,
        """\
            {
              "family": "house",
              "max_tb": -2,
              "rot_at_max_tb": [
                1
              ],
              "chi": -3,
              "g_s": null,
              "plus_one_surgery_overtwisted": null,
              "ambient": "tight-S3",
              "order_positive": false
            }
        """,
    ),
    "empty --records": (
        '--records "" knot-record --name house',
        1,
        """\
            {
              "error": {
                "type": "InvalidParams",
                "message": "cannot read records file : [Errno 2] No such file or directory: ''"
              }
            }
        """,
    ),
    # A usage error prints its message on stderr only.
    "unknown subcommand": ("no-such-command", 2, ""),
    # argparse stores [] for "--flag=--"; each is a usage error.
    "double dash as --records": ("--records=-- knot-record --name k", 2, ""),
    "double dash as --tag": ("knot-record --tag=--", 2, ""),
    "double dash as an int": ("certify-unknot --tb=-- --rot 0", 2, ""),
    "double dash as a choice": ("front-stabilize unknot.front --sign=--", 2, ""),
    "double dash as a repeated flag": ("dual-invariants --tb -15 --rot -2 --chi -7 --stab=--", 2, ""),
}
# argparse reads an abbreviated flag, which cli.main's own reader leaves to it.
CASES["abbreviated --rot"] = ("certify-unknot --tb 2 --ro 1", 0, CASES["readme certify-unknot"][2])
CASES = {name: Case(*fields) for name, fields in CASES.items()}

# The README's search-examples command prints 294 lines; they are pinned by
# digest, and the one-certificate run of "text search-examples" pins the
# fields of a certificate in full.
README_SEARCH_EXAMPLES = ["search-examples", "--p-max", "5"]
SEARCH_EXAMPLES_P_MAX_5_SHA256 = (
    "6fd1ad0d847117cb12c9e82b274e1ac0a7e7e6bac44478b50ca4582d59c02e69"
)


@pytest.fixture
def fresh_process(workdir):
    """A runner of command lines as ``python -m nonloose.cli``: (exit code, stdout)."""

    def run(argv, stdin=""):
        done = run_python(["-m", "nonloose.cli", *shlex.split(argv)], stdin=stdin, cwd=workdir, home=workdir)
        return done.returncode, done.stdout

    return run


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_stdout(run_cli, case):
    assert run_cli(case.argv, case.stdin) == (case.code, dedent(case.stdout))


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_stdout_fresh_process(fresh_process, case):
    assert fresh_process(case.argv, case.stdin) == (case.code, dedent(case.stdout))


def check_readme_search_examples(code, out):
    assert code == 0
    knots = [c["knot"] for c in json.loads(out)["certificates"]]
    assert knots == ["torus(-3,2)", "torus(-4,3)", "torus(-5,2)", "torus(-5,3)", "torus(-5,4)"]
    assert len(out.splitlines()) == 294
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_EXAMPLES_P_MAX_5_SHA256


def test_readme_search_examples(run_cli):
    check_readme_search_examples(*run_cli(README_SEARCH_EXAMPLES))


def test_readme_search_examples_fresh_process(fresh_process):
    check_readme_search_examples(*fresh_process(shlex.join(README_SEARCH_EXAMPLES)))


def readme_cli_block():
    """The README's CLI example block: [argv, the JSON of the ``# {...}`` comment
    printed below it or None] for each ``nonloose`` line, and the files that
    its ``printf`` lines write, by name."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands, written = [], {}
    for line in block.splitlines():
        if line.startswith("nonloose "):
            commands.append([shlex.split(line)[1:], None])
        elif line.startswith("# {"):
            commands[-1][1] = json.loads(line[2:])
        elif line.startswith("printf "):
            text, redirect, name = shlex.split(line)[1:]
            assert redirect == ">", line
            written[name] = text.replace("\\n", "\n")
        else:
            assert not line or line.startswith("# "), line
    return commands, written


def test_readme_cli_block():
    commands, written = readme_cli_block()
    cases = {tuple(shlex.split(case.argv)): case for case in CASES.values()}
    assert commands and any(printed for _, printed in commands)
    for argv, printed in commands:
        if argv == README_SEARCH_EXAMPLES:  # pinned by its digest
            continue
        assert tuple(argv) in cases, f"no golden case runs {shlex.join(argv)}"
        case = cases[tuple(argv)]
        assert case.code == 0, argv
        if printed is not None:
            assert json.loads(dedent(case.stdout)) == printed, argv
    assert written == {name: FILES[name] for name in written}
