"""The command-line parser as argparse alone built it, kept as an oracle for
the tests.

``build_parser`` and its two flag converters are the library's as they stood
before ``nonloose.cli`` described every argument in one table and read
well-formed command lines without argparse.  ``test_cli_reader`` holds the
table's parser to this one for ``--help`` text, and the reader to its
namespaces.  The handlers and the default records path come from
``nonloose.cli``, so a namespace of either names the same handler.
"""

from __future__ import annotations

import argparse
import re
from fractions import Fraction

from nonloose.cli import (
    DEFAULT_RECORDS_PATH,
    cmd_certify_bennequin,
    cmd_certify_dual,
    cmd_certify_tension,
    cmd_certify_unknot,
    cmd_dual_invariants,
    cmd_front_destab,
    cmd_front_invariants,
    cmd_front_stabilize,
    cmd_knot_record,
    cmd_search_examples,
    cmd_surgery_invariants,
)


def _int_arg(text: str) -> int:
    """An int flag: ``[+-]?[0-9]+`` in ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)  # past its digit limit int() raises ValueError: a usage error too


def _fraction_arg(text: str) -> Fraction:
    """A rational flag: ``n`` or ``p/q`` in ASCII digits, as str(Fraction) prints."""
    try:
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or p/0
        pass
    raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonloose",
        description="Exact Legendrian/transverse knot invariants and "
        "non-looseness certificates",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", help="output rendering"
    )
    parser.add_argument(
        "--records",
        metavar="FILE",
        default=None,
        help=f"user knot-record JSON file (default: {DEFAULT_RECORDS_PATH} if present)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def front_args(p):
        p.add_argument("front_file", help="front word file ('-' for stdin)")
        p.add_argument(
            "--base-direction",
            choices=("rightward", "leftward"),
            default="rightward",
        )

    p = sub.add_parser("front-invariants", help="tb/rot/writhe of a front word")
    front_args(p)
    p.set_defaults(handler=cmd_front_invariants)

    p = sub.add_parser("front-stabilize", help="insert a stabilization zigzag")
    front_args(p)
    p.add_argument("--sign", choices=("+", "-"), required=True)
    p.set_defaults(handler=cmd_front_stabilize)

    p = sub.add_parser("front-destab", help="remove one syntactic zigzag if present")
    front_args(p)
    p.set_defaults(handler=cmd_front_destab)

    p = sub.add_parser(
        "surgery-invariants", help="rational invariants of the passive component"
    )
    p.add_argument("diagram_file", help="surgery diagram JSON ('-' for stdin)")
    p.add_argument("--chi", type=_int_arg, required=True)
    p.add_argument("--reverse-distinguished", action="store_true")
    p.set_defaults(handler=cmd_surgery_invariants)

    p = sub.add_parser(
        "dual-invariants",
        help="invariants of a stabilized push-off of a (+1)-surgery dual",
    )
    p.add_argument("--tb", type=_int_arg, required=True)
    p.add_argument("--rot", type=_int_arg, required=True)
    p.add_argument("--chi", type=_int_arg, required=True)
    p.add_argument(
        "--stab",
        type=_int_arg,
        action="append",
        default=[],
        help="signed stabilization count, repeatable (e.g. --stab +1 --stab -2)",
    )
    p.set_defaults(handler=cmd_dual_invariants)

    p = sub.add_parser("certify-bennequin", help="Bennequin-type looseness checks")
    p.add_argument("--tb", type=_int_arg)
    p.add_argument("--rot", type=_int_arg)
    p.add_argument("--tb-q", type=_fraction_arg)
    p.add_argument("--rot-q", type=_fraction_arg)
    p.add_argument("--sl-q", type=_fraction_arg)
    p.add_argument("--order", type=_int_arg, help="homological order r (default 1)")
    p.add_argument("--chi", type=_int_arg, required=True)
    p.set_defaults(handler=cmd_certify_bennequin)

    p = sub.add_parser("certify-unknot", help="classify a Legendrian unknot")
    p.add_argument("--tb", type=_int_arg, required=True)
    p.add_argument("--rot", type=_int_arg, required=True)
    p.set_defaults(handler=cmd_certify_unknot)

    p = sub.add_parser(
        "certify-dual", help="joint tension/depth certificates for a surgery dual"
    )
    p.add_argument("--tb", type=_int_arg, required=True)
    p.add_argument("--rot", type=_int_arg, required=True)
    p.add_argument("--chi", type=_int_arg, required=True)
    p.add_argument("--surgery-overtwisted", action="store_true")
    p.add_argument("--complement-tight", action="store_true")
    p.add_argument("--is-stabilization", action="store_true")
    p.set_defaults(handler=cmd_certify_dual)

    p = sub.add_parser("certify-tension", help="stabilization search for tension bounds")
    p.add_argument("--tb", type=_int_arg)
    p.add_argument("--rot", type=_int_arg)
    p.add_argument("--tb-q", type=_fraction_arg)
    p.add_argument("--rot-q", type=_fraction_arg)
    p.add_argument("--order", type=_int_arg, help="homological order r (default 1)")
    p.add_argument("--chi", type=_int_arg, required=True)
    p.add_argument("--max-n", type=_int_arg, default=64)
    p.add_argument(
        "--side", choices=("both", "positive_only", "negative_only"), default="both"
    )
    p.set_defaults(handler=cmd_certify_tension)

    p = sub.add_parser(
        "search-examples", help="torus-knot duals separating tension from depth"
    )
    p.add_argument("--p-max", type=_int_arg, required=True)
    p.set_defaults(handler=cmd_search_examples)

    p = sub.add_parser("knot-record", help="formula-generated or user knot records")
    p.add_argument(
        "--family", choices=("unknot", "negative-torus", "positive-torus"), default=None
    )
    p.add_argument("--p", type=_int_arg)
    p.add_argument("--q", type=_int_arg)
    p.add_argument("--tag", help="named example tag, e.g. 'L2q(3)'")
    p.add_argument("--name", help="family string to look up in --records")
    p.set_defaults(handler=cmd_knot_record)

    return parser
