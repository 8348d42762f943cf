"""Curated knot records: torus-knot families, unknots, and named examples.

Records are generated by formula rather than kept in a static table.  For
records in the tight S^3 the constructor enforces the Bennequin bound
max_tb + |rot| <= -chi; records living in an overtwisted structure may
violate it, which is the whole point of the subject.
"""

from __future__ import annotations

import json
import os
import re
from math import gcd
from typing import Iterable

from .errors import InvalidParams, UnknownTag, Value
from .fields import read_bool, read_int, read_str

AMBIENT_TIGHT_S3 = "tight-S3"


def ambient_overtwisted_s3(hopf: int) -> str:
    return f"overtwisted-S3(hopf={hopf})"


class KnotRecord(Value):
    __slots__ = _fields = (
        "family", "max_tb", "rot_at_max_tb", "chi", "g_s", "plus_one_surgery_overtwisted", "ambient", "order_positive"
    )

    def __init__(
        self, family: str, max_tb: int | None, rot_at_max_tb: Iterable[int], chi: int, g_s: int | None = None,
        plus_one_surgery_overtwisted: bool | None = None, ambient: str = AMBIENT_TIGHT_S3, order_positive: bool = False,
    ):
        if max_tb is not None:
            read_int(max_tb, "max_tb", InvalidParams)
        if not isinstance(rot_at_max_tb, frozenset):
            rot_at_max_tb = tuple(rot_at_max_tb)  # each entry is read before a set merges True into 1
        for r in rot_at_max_tb:
            read_int(r, "rot_at_max_tb entry", InvalidParams)
        rot_at_max_tb = frozenset(rot_at_max_tb)
        read_int(chi, "chi", InvalidParams)
        if g_s is not None:
            read_int(g_s, "g_s", InvalidParams)
        # calculus.check_chi, repeated so that a record loads without calculus
        if chi > 1:
            raise InvalidParams(f"chi must be <= 1, got {chi}")
        if chi % 2 == 0:
            raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {chi}")
        if g_s is not None and g_s < 0:
            raise InvalidParams("smooth 4-ball genus must be nonnegative")
        if ambient == AMBIENT_TIGHT_S3 and max_tb is not None:
            for r in rot_at_max_tb:
                if max_tb + abs(r) > -chi:
                    raise InvalidParams(f"record violates the Bennequin bound: {max_tb} + |{r}| > {-chi}")
        self._set(family, max_tb, rot_at_max_tb, chi, g_s, plus_one_surgery_overtwisted, ambient, order_positive)


def unknot_record() -> KnotRecord:
    return KnotRecord("unknot", max_tb=-1, rot_at_max_tb=frozenset({0}), chi=1)


def negative_torus_record(p: int, q: int) -> KnotRecord:
    """Record of the negative torus knot T(p, q) with -p > q >= 2 coprime.

    Maximal tb is pq, realized with rotation number p + q, and
    chi = q - p + pq.  (+1)-surgery on the maximal representative is
    overtwisted.  q = 1 is rejected: that curve is an unknot and the
    formulas do not apply to it.
    """
    if not (q >= 2 and -p > q and gcd(p, q) == 1):
        raise InvalidParams(
            f"need coprime (p, q) with -p > q >= 2, got ({p}, {q})"
        )
    return KnotRecord(
        family=f"torus({p},{q})",
        max_tb=p * q,
        rot_at_max_tb=frozenset({p + q}),
        chi=q - p + p * q,
        plus_one_surgery_overtwisted=True,
    )


def positive_torus_record(p: int, q: int) -> KnotRecord:
    """Record of the positive torus knot T(p, q), p, q >= 2 coprime.

    Maximal tb is pq - p - q = 2 g_s - 1 with rotation number 0.
    """
    if not (p >= 2 and q >= 2 and gcd(p, q) == 1):
        raise InvalidParams(
            f"need coprime (p, q) with p, q >= 2, got ({p}, {q})"
        )
    return KnotRecord(
        family=f"torus({p},{q})",
        max_tb=p * q - p - q,
        rot_at_max_tb=frozenset({0}),
        chi=p + q - p * q,
        g_s=(p - 1) * (q - 1) // 2,
    )


def nonloose_unknot_table(n_max: int) -> list[tuple[int, int]]:
    """The (tb, rot) pairs realizable by non-loose unknots, for tb up to n_max."""
    if n_max < 1:
        raise InvalidParams(f"n_max must be >= 1, got {n_max}")
    pairs: list[tuple[int, int]] = []
    for n in range(1, n_max + 1):
        pairs.append((n, n - 1))
        if n > 1:
            pairs.append((n, -(n - 1)))
    return pairs


_TAG_RE = re.compile(r"(L2q|LOSSfamily)\(([0-9]+)\)")


def named_example(tag: str) -> KnotRecord:
    """Named records used by the certificate examples.

    ``L2q(q)``: the non-loose (2, q) torus knot in the overtwisted S^3 of
    Hopf invariant -1, with tb = q and rot = 0 (q odd, >= 3).

    ``LOSSfamily(n)``: the (2, 2n-1) torus knot family in the overtwisted
    S^3 of Hopf invariant 1-2n, carrying a nonvanishing positive-order
    torsion invariant (n >= 2; n = 1 would be an unknot).

    The number is written in ASCII digits.
    """
    m = _TAG_RE.fullmatch(tag)
    if m is None:
        raise UnknownTag(f"unrecognized tag {tag!r}")
    family, digits = m.groups()
    try:
        number = int(digits)
    except ValueError:  # more digits than int() converts
        raise UnknownTag(f"{family} number of {len(digits)} digits is too large") from None
    if family == "L2q":
        q = number
        if q < 3 or q % 2 == 0:
            raise UnknownTag(f"L2q needs odd q >= 3, got {q}")
        return KnotRecord(
            family=f"torus(2,{q})",
            max_tb=q,
            rot_at_max_tb=frozenset({0}),
            chi=2 - q,
            ambient=ambient_overtwisted_s3(-1),
        )
    n = number
    if n < 2:
        raise UnknownTag(f"LOSSfamily needs n >= 2, got {n}")
    return KnotRecord(
        family=f"torus(2,{2 * n - 1})",
        max_tb=None,
        rot_at_max_tb=frozenset(),
        chi=3 - 2 * n,
        ambient=ambient_overtwisted_s3(1 - 2 * n),
        order_positive=True,
    )


_RECORD_KEYS = frozenset(KnotRecord._fields)


def record_to_dict(rec: KnotRecord) -> dict:
    """Every field by name, in declaration order; the rotation set as a sorted list."""
    doc = {name: getattr(rec, name) for name in KnotRecord._fields}
    doc["rot_at_max_tb"] = sorted(rec.rot_at_max_tb)
    return doc


def record_from_dict(doc: dict) -> KnotRecord:
    if not isinstance(doc, dict):
        raise InvalidParams(f"record entry must be an object, got {type(doc).__name__}")
    unknown = set(doc) - _RECORD_KEYS
    if unknown:
        raise InvalidParams(f"unknown record keys: {sorted(unknown)}")
    try:
        family, chi = doc["family"], doc["chi"]
    except KeyError as exc:
        raise InvalidParams(f"record entry missing key {exc}") from exc
    rots = doc.get("rot_at_max_tb", [])
    if not isinstance(rots, list):
        raise InvalidParams(f"rot_at_max_tb must be a list of integers, got {rots!r}")

    overtwisted = doc.get("plus_one_surgery_overtwisted")
    if overtwisted is not None:
        overtwisted = read_bool(overtwisted, "plus_one_surgery_overtwisted", InvalidParams)
    return KnotRecord(
        family=read_str(family, "family", InvalidParams),
        max_tb=doc.get("max_tb"),
        rot_at_max_tb=rots,
        chi=chi,
        g_s=doc.get("g_s"),
        plus_one_surgery_overtwisted=overtwisted,
        ambient=read_str(doc.get("ambient", AMBIENT_TIGHT_S3), "ambient", InvalidParams),
        order_positive=read_bool(doc.get("order_positive", False), "order_positive", InvalidParams),
    )


def load_records(path: str | os.PathLike[str]) -> tuple[KnotRecord, ...]:
    """Read a user-supplied JSON list of KnotRecord fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidParams(f"cannot read records file {path}: {exc}") from exc
    # malformed JSON or UTF-8, an integer past int()'s digit limit, or nesting
    # past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InvalidParams(f"records file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InvalidParams("records file must hold a JSON list")
    return tuple(record_from_dict(entry) for entry in data)
