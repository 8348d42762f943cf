"""The classical and rational classical invariants as values.

A :class:`ClassicalPair` holds (tb, rot) of a Legendrian knot and a
:class:`RationalData` the rational invariants (tb_Q, rot_Q) with the order r;
each constructor checks its fields.  All rational values are exact
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams, Value, check_chi, read_int


def _rational(value, what: str) -> Fraction:
    """``value`` as a Fraction if it is one or an integer; else InvalidParams."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value if type(value) is Fraction else Fraction(value)
    raise InvalidParams(f"{what} must be an integer or a Fraction, got {value!r}")


class ClassicalPair(Value):
    """(tb, rot) of an oriented Legendrian knot, with optional genus data."""

    __slots__ = _fields = ("tb", "rot", "chi")

    def __init__(self, tb: int, rot: int, chi: int | None = None):
        read_int(tb, "tb", InvalidParams)
        read_int(rot, "rot", InvalidParams)
        if chi is not None:
            read_int(chi, "chi", InvalidParams)
            check_chi(chi)
        self._set(tb, rot, chi)


class RationalData(Value):
    """Rational invariants (tb_Q, rot_Q) of a rationally null-homologous knot.

    ``order_r`` is the order of the knot class in first homology and ``chi``
    the Euler characteristic of a rational Seifert surface.
    """

    __slots__ = _fields = ("tb_q", "rot_q", "order_r", "chi")

    def __init__(self, tb_q: Fraction | int, rot_q: Fraction | int, order_r: int, chi: int):
        tb_q, rot_q = _rational(tb_q, "tb_q"), _rational(rot_q, "rot_q")
        read_int(order_r, "order_r", InvalidParams)
        read_int(chi, "chi", InvalidParams)
        check_chi(chi, odd=False)
        if order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {order_r}")
        self._set(tb_q, rot_q, order_r, chi)
