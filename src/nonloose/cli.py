"""Command-line driver.

Every subcommand prints a single JSON document on stdout (or a flat
``key: value`` rendering with ``--format text``) and is a thin wrapper over
the library calls.  Exit codes: 0 success, 1 domain error (with an error
document on stdout), 2 usage error.  Each handler imports the library modules
it calls, so a command loads only those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

    from . import calculus, diagram

DEFAULT_RECORDS_PATH = Path.home() / ".config" / "nonloose" / "records.json"


class InputError(DomainError):
    """Unreadable or unparseable input file."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _int_arg(text: str) -> int:
    """An int flag: ``[+-]?[0-9]+`` in ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)  # past its digit limit int() raises ValueError: a usage error too


def _fraction_arg(text: str) -> Fraction:
    """A rational flag: ``n`` or ``p/q`` in ASCII digits, as str(Fraction) prints."""
    from fractions import Fraction

    try:
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or p/0
        pass
    raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _render(doc: Any, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    lines: list[str] = []

    def walk(key: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{key}.{k}" if key else str(k), v)
        elif isinstance(value, list):
            lines.append(f"{key}: {json.dumps(value)}")
        else:
            lines.append(f"{key}: {value}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _front_doc(front: diagram.OrientedFront) -> dict:
    from . import diagram

    return {
        "tb": diagram.tb(front),
        "rot": diagram.rot(front),
        "writhe": front.writhe,
        "up_cusps": front.up_cusps,
        "down_cusps": front.down_cusps,
    }


def _rational_doc(d: calculus.RationalData) -> dict:
    return {
        "tb_q": str(d.tb_q),
        "rot_q": str(d.rot_q),
        "r": d.order_r,
        "chi": d.chi,
    }


def cmd_front_invariants(args) -> dict:
    from . import diagram

    word = diagram.parse_front(_read_text(args.front_file))
    return _front_doc(diagram.resolve_orientation(word, diagram.Direction(args.base_direction)))


def cmd_front_stabilize(args) -> dict:
    from . import diagram

    word = diagram.parse_front(_read_text(args.front_file))
    front = diagram.resolve_orientation(word, diagram.Direction(args.base_direction))
    result = diagram.stabilize_front(front, args.sign)
    return {"word": diagram.serialize_front(result.word), **_front_doc(result)}


def cmd_front_destab(args) -> dict:
    from . import diagram

    word = diagram.parse_front(_read_text(args.front_file))
    pair = diagram.detect_syntactic_destabilization(word)
    if pair is None:
        return {"found": False}
    smaller = diagram.destabilize_front(word, pair)
    front = diagram.resolve_orientation(smaller)
    return {
        "found": True,
        "event_indices": list(pair),
        "word": diagram.serialize_front(smaller),
        **_front_doc(front),
    }


def cmd_surgery_invariants(args) -> dict:
    from . import surgery

    text = _read_text(args.diagram_file)
    try:
        doc = json.loads(text)
    # malformed JSON, an integer past int()'s digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"surgery diagram is not valid JSON: {exc}") from exc
    diag = surgery.diagram_from_json(doc)
    data = surgery.rational_invariants(
        diag, args.chi, reverse_distinguished=args.reverse_distinguished
    )
    return _rational_doc(data)


def cmd_dual_invariants(args) -> dict:
    from . import surgery

    a = sum(s for s in args.stab if s > 0)
    b = sum(-s for s in args.stab if s < 0)
    data = surgery.dual_invariants(args.tb, args.rot, a, b, args.chi)
    return _rational_doc(data)


def _invariant_data(
    args,
) -> tuple[str, calculus.ClassicalPair | calculus.RationalData | tuple[Fraction, int]]:
    """The one kind of invariants the flags give, and its data.

    "classical" (--tb with --rot) gives a ``ClassicalPair``, "rational" (--tb-q
    with --rot-q) a ``RationalData`` of order --order, and "transverse" (--sl-q,
    certify-bennequin only) the self-linking number and the order.  --order
    defaults to 1 for the last two and is a ``DomainError`` with the first, as
    are a half-given pair and flags of two kinds.
    """
    from . import calculus

    flags = {
        "classical": {"--tb": args.tb, "--rot": args.rot},
        "rational": {"--tb-q": args.tb_q, "--rot-q": args.rot_q},
        "transverse": {"--sl-q": getattr(args, "sl_q", None)},
    }
    given = [kind for kind, values in flags.items() if any(v is not None for v in values.values())]
    if len(given) > 1:
        raise DomainError(f"give one kind of invariants, not {' and '.join(given)} flags together")
    kind = given[0] if given else "classical"
    if None in flags[kind].values():
        raise DomainError(f"{kind} invariants need {' and '.join(flags[kind])}")
    if kind == "classical":
        if args.order is not None:
            raise DomainError("--order goes with rational or transverse invariants, not --tb and --rot")
        return kind, calculus.ClassicalPair(args.tb, args.rot, args.chi)
    order = 1 if args.order is None else args.order
    if kind == "transverse":
        return kind, (args.sl_q, order)
    return kind, calculus.RationalData(args.tb_q, args.rot_q, order, args.chi)


def cmd_certify_bennequin(args) -> dict:
    from . import certify

    kind, data = _invariant_data(args)
    if kind == "transverse":
        sl_q, order = data
        result = certify.transverse_bennequin(sl_q, args.chi, order)
    elif kind == "rational":
        result = certify.bennequin_rational(data)
    else:
        result = certify.bennequin_null(data)
    return {"check": kind, "result": result.value}


def cmd_certify_unknot(args) -> dict:
    from . import calculus, certify

    return certify.unknot_verdict(calculus.ClassicalPair(args.tb, args.rot)).to_dict()


def cmd_certify_dual(args) -> dict:
    from . import certify, surgery

    dual = surgery.dual_invariants(args.tb, args.rot, 1, 0, args.chi)
    tension = certify.tension_one_dual(
        args.tb, args.rot, args.chi, args.surgery_overtwisted
    )
    depth = certify.depth_one_dual(args.is_stabilization, args.complement_tight)
    return {
        "stabilized_dual": _rational_doc(dual),
        "bennequin_rational": certify.bennequin_rational(dual).value,
        "tension": tension.to_dict(),
        "depth": depth.to_dict(),
    }


def cmd_certify_tension(args) -> dict:
    from . import certify

    _, data = _invariant_data(args)
    found = certify.tension_upper_bound(data, max_n=args.max_n, side=args.side)
    bound, witness = found or (None, None)
    return {"bound": bound, "witness": witness and list(witness), "max_n": args.max_n}


def cmd_search_examples(args) -> dict:
    from . import certify

    certs = certify.tension_less_than_depth_search(args.p_max)
    rows = [{"knot": c.details["knot"], "t": 1, "d": ">=2", "certificate": c.to_dict()} for c in certs]
    return {"certificates": rows}


def cmd_knot_record(args) -> dict:
    from . import knotdata

    selectors = {"--family": args.family, "--tag": args.tag, "--name": args.name}
    given = [flag for flag, value in selectors.items() if value is not None]
    if not given:
        raise DomainError("choose --family, --tag or --name")
    if len(given) > 1:
        raise DomainError(f"choose one of --family, --tag and --name, not {' and '.join(given)}")
    if args.family in (None, "unknot") and (args.p is not None or args.q is not None):
        raise DomainError("--p and --q go with --family negative-torus or positive-torus only")
    if args.tag is not None:
        return knotdata.record_to_dict(knotdata.named_example(args.tag))
    if args.name is not None:
        path = args.records
        if path is None:
            if not DEFAULT_RECORDS_PATH.is_file():
                raise DomainError(
                    f"--name needs a --records file or one at {DEFAULT_RECORDS_PATH}"
                )
            path = str(DEFAULT_RECORDS_PATH)
        for rec in knotdata.load_records(path):
            if rec.family == args.name:
                return knotdata.record_to_dict(rec)
        raise DomainError(f"no record named {args.name!r} in {path}")
    if args.family == "unknot":
        return knotdata.record_to_dict(knotdata.unknot_record())
    if args.p is None or args.q is None:
        raise DomainError(f"{args.family} needs --p and --q")
    negative = args.family == "negative-torus"
    maker = knotdata.negative_torus_record if negative else knotdata.positive_torus_record
    return knotdata.record_to_dict(maker(args.p, args.q))


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.handler(args)
    except DomainError as exc:
        error_doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stdout.write(_render(error_doc, args.format))
        return 1
    sys.stdout.write(_render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
