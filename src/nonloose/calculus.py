"""The classical and rational classical invariants as values.

A :class:`ClassicalPair` holds (tb, rot) of a Legendrian knot and a
:class:`RationalData` the rational invariants (tb_Q, rot_Q) with the order r;
each constructor checks its fields.  All rational values are exact
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams, Value, check_chi, optional, read_int


def read_fraction(value, what, error):
    """The rule: an integer, not a boolean, or a ``Fraction``, stored as a ``Fraction``."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value if type(value) is Fraction else Fraction(value)
    raise error(f"{what} must be an integer or a Fraction, got {value!r}")


class ClassicalPair(Value):
    """(tb, rot) of an oriented Legendrian knot, with optional genus data."""

    __slots__ = _fields = ("tb", "rot", "chi")
    _rules = {"tb": read_int, "rot": read_int, "chi": optional(read_int)}

    def __init__(self, tb: int, rot: int, chi: int | None = None):
        self._set(tb, rot, chi)
        if chi is not None:
            check_chi(chi)


class RationalData(Value):
    """Rational invariants (tb_Q, rot_Q) of a rationally null-homologous knot.

    ``order_r`` is the order of the knot class in first homology and ``chi``
    the Euler characteristic of a rational Seifert surface.
    """

    __slots__ = _fields = ("tb_q", "rot_q", "order_r", "chi")
    _rules = {"tb_q": read_fraction, "rot_q": read_fraction, "order_r": read_int, "chi": read_int}

    def __init__(self, tb_q: Fraction | int, rot_q: Fraction | int, order_r: int, chi: int):
        self._set(tb_q, rot_q, order_r, chi)
        check_chi(chi, odd=False)
        if order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {order_r}")
