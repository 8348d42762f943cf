"""Command-line driver.

Every subcommand prints a single JSON document on stdout (or a flat
``key: value`` rendering with ``--format text``) and is a thin wrapper over
the library calls.  Exit codes: 0 success, 1 domain error (with an error
document on stdout), 2 usage error.  Each handler imports the library modules
it calls, so a command loads only those.

One table, ``COMMANDS`` with ``GLOBAL_ARGS``, describes every argument.
``_read_argv`` reads a well-formed command line from it without argparse;
anything else (``-h``, an abbreviated or unknown flag, a bad or missing
value) goes to ``build_parser``, the argparse parser of the same table, which
writes the help and every usage error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from .errors import DomainError

if TYPE_CHECKING:
    from fractions import Fraction

    from . import calculus, diagram

DEFAULT_RECORDS_PATH = os.path.join(os.path.expanduser("~"), ".config", "nonloose", "records.json")


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


class _BadValue(ValueError):
    """A flag value not in its documented form; argparse reports the message."""


def _int_arg(text: str) -> int:
    """An int flag: ``[+-]?[0-9]+`` in ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise _BadValue(f"invalid int value: {text!r}")
    return int(text)  # past its digit limit int() raises ValueError: a usage error too


def _fraction_arg(text: str) -> Fraction:
    """A rational flag: ``n`` or ``p/q`` in ASCII digits, as str(Fraction) prints."""
    from fractions import Fraction

    try:
        if re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # past int()'s digit limit, or p/0
        pass
    raise _BadValue(f"not an exact rational: {text!r}")


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
            if not os.path.isfile(DEFAULT_RECORDS_PATH):
                raise DomainError(
                    f"--name needs a --records file or one at {DEFAULT_RECORDS_PATH}"
                )
            path = DEFAULT_RECORDS_PATH
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


# Each argument is (name, keywords): a flag when the name starts with "-",
# else a positional; the keywords are those of argparse's add_argument.
_INT = {"type": _int_arg}
_REQUIRED_INT = {"type": _int_arg, "required": True}
_RATIONAL = {"type": _fraction_arg}
_SWITCH = {"action": "store_true", "default": False}
_ORDER = ("--order", {"type": _int_arg, "help": "homological order r (default 1)"})
_FRONT_ARGS = (
    ("front_file", {"help": "front word file ('-' for stdin)"}),
    ("--base-direction", {"choices": ("rightward", "leftward"), "default": "rightward"}),
)

GLOBAL_ARGS = (
    ("--format", {"choices": ("json", "text"), "default": "json", "help": "output rendering"}),
    (
        "--records",
        {"metavar": "FILE", "help": f"user knot-record JSON file (default: {DEFAULT_RECORDS_PATH} if present)"},
    ),
)

# subcommand -> (handler, help, arguments), in the order --help lists them
COMMANDS = {
    "front-invariants": (cmd_front_invariants, "tb/rot/writhe of a front word", _FRONT_ARGS),
    "front-stabilize": (
        cmd_front_stabilize,
        "insert a stabilization zigzag",
        (*_FRONT_ARGS, ("--sign", {"choices": ("+", "-"), "required": True})),
    ),
    "front-destab": (cmd_front_destab, "remove one syntactic zigzag if present", _FRONT_ARGS),
    "surgery-invariants": (
        cmd_surgery_invariants,
        "rational invariants of the passive component",
        (
            ("diagram_file", {"help": "surgery diagram JSON ('-' for stdin)"}),
            ("--chi", _REQUIRED_INT),
            ("--reverse-distinguished", _SWITCH),
        ),
    ),
    "dual-invariants": (
        cmd_dual_invariants,
        "invariants of a stabilized push-off of a (+1)-surgery dual",
        (
            ("--tb", _REQUIRED_INT),
            ("--rot", _REQUIRED_INT),
            ("--chi", _REQUIRED_INT),
            (
                "--stab",
                {
                    "type": _int_arg,
                    "action": "append",
                    "default": [],
                    "help": "signed stabilization count, repeatable (e.g. --stab +1 --stab -2)",
                },
            ),
        ),
    ),
    "certify-bennequin": (
        cmd_certify_bennequin,
        "Bennequin-type looseness checks",
        (
            ("--tb", _INT),
            ("--rot", _INT),
            ("--tb-q", _RATIONAL),
            ("--rot-q", _RATIONAL),
            ("--sl-q", _RATIONAL),
            _ORDER,
            ("--chi", _REQUIRED_INT),
        ),
    ),
    "certify-unknot": (
        cmd_certify_unknot, "classify a Legendrian unknot", (("--tb", _REQUIRED_INT), ("--rot", _REQUIRED_INT))
    ),
    "certify-dual": (
        cmd_certify_dual,
        "joint tension/depth certificates for a surgery dual",
        (
            ("--tb", _REQUIRED_INT),
            ("--rot", _REQUIRED_INT),
            ("--chi", _REQUIRED_INT),
            ("--surgery-overtwisted", _SWITCH),
            ("--complement-tight", _SWITCH),
            ("--is-stabilization", _SWITCH),
        ),
    ),
    "certify-tension": (
        cmd_certify_tension,
        "stabilization search for tension bounds",
        (
            ("--tb", _INT),
            ("--rot", _INT),
            ("--tb-q", _RATIONAL),
            ("--rot-q", _RATIONAL),
            _ORDER,
            ("--chi", _REQUIRED_INT),
            ("--max-n", {"type": _int_arg, "default": 64}),
            ("--side", {"choices": ("both", "positive_only", "negative_only"), "default": "both"}),
        ),
    ),
    "search-examples": (
        cmd_search_examples, "torus-knot duals separating tension from depth", (("--p-max", _REQUIRED_INT),)
    ),
    "knot-record": (
        cmd_knot_record,
        "formula-generated or user knot records",
        (
            ("--family", {"choices": ("unknot", "negative-torus", "positive-torus")}),
            ("--p", _INT),
            ("--q", _INT),
            ("--tag", {"help": "named example tag, e.g. 'L2q(3)'"}),
            ("--name", {"help": "family string to look up in --records"}),
        ),
    ),
}


def build_parser():
    """The ``argparse.ArgumentParser`` of ``GLOBAL_ARGS`` and ``COMMANDS``."""
    import argparse

    def reported(convert):
        """``convert``, with its ``_BadValue`` message passed on to argparse."""

        def read(text):
            try:
                return convert(text)
            except _BadValue as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        read.__name__ = convert.__name__  # argparse names it in "invalid <name> value"
        return read

    def add(parser, arguments):
        for name, keywords in arguments:
            if "type" in keywords:
                keywords = dict(keywords, type=reported(keywords["type"]))
            parser.add_argument(name, **keywords)

    parser = argparse.ArgumentParser(
        prog="nonloose",
        description="Exact Legendrian/transverse knot invariants and "
        "non-looseness certificates",
    )
    add(parser, GLOBAL_ARGS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        add(p, arguments)
        p.set_defaults(handler=handler)
    return parser


def _is_value(token: str) -> bool:
    """Whether argparse reads ``token`` as a value: it does not start with
    "-", or it is "-" or a negative number (argparse's pattern for one)."""
    return token[:1] != "-" or token == "-" or re.match(r"^-\d+$|^-\d*\.\d+$", token) is not None


def _read_arguments(arguments, argv: list[str], i: int, values: dict) -> int | None:
    """Read ``arguments`` from ``argv[i:]`` into ``values``, defaults
    included, up to a value that no positional takes, or to the end; the
    index it stops at.  None when a token is not one of the arguments' flags
    written out in full, a flag lacks its value or has a bad one, or a
    required argument is missing."""
    flags, positionals, required = {}, [], set()
    for name, keywords in arguments:
        dest = name.lstrip("-").replace("-", "_")
        if name[0] != "-":
            positionals.append((dest, keywords))
            continue
        flags[name] = dest, keywords
        values[dest] = keywords.get("default")
        if keywords.get("required"):
            required.add(dest)
    while i < len(argv):
        token = argv[i]
        i += 1
        if _is_value(token):
            if not positionals:
                return i - 1
            (dest, keywords), text = positionals.pop(0), token
        else:
            name, eq, text = token.partition("=")
            if name not in flags:
                return None
            dest, keywords = flags[name]
            if keywords.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                if i == len(argv) or not _is_value(argv[i]):
                    return None
                text = argv[i]
                i += 1
            elif text == "--":  # argparse drops a "--" value and stores []
                return None
        convert = keywords.get("type")
        try:
            value = convert(text) if convert else text
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = [*values[dest], value] if keywords.get("action") == "append" else value
        required.discard(dest)
    return None if positionals or required else i


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives, for a command
    line that argparse reads without help, abbreviation or error: global
    flags before the subcommand, every flag whole (``--flag value`` or
    ``--flag=value``), every value valid, no ``--``.  None for any other
    command line, which argparse then reads."""
    values: dict = {}
    i = _read_arguments(GLOBAL_ARGS, argv, 0, values)
    if i is None or i == len(argv) or argv[i] not in COMMANDS:
        return None
    handler, _, arguments = COMMANDS[argv[i]]
    values.update(command=argv[i], handler=handler)
    if _read_arguments(arguments, argv, i + 1, values) != len(argv):
        return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:  # help, or a line for argparse to read or reject
        args = build_parser().parse_args(argv)
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
