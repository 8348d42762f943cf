"""The classical and rational classical invariants as values.

A :class:`ClassicalPair` holds (tb, rot) of a Legendrian knot and a
:class:`RationalData` the rational invariants (tb_Q, rot_Q) with the order r;
each constructor checks its fields.  All rational values are exact
``Fraction``s.

The stabilized dual of (+1)-surgery on one knot is a two-component surgery
diagram with a 1x1 linking matrix, and ``dual_invariants`` gives its
invariants in closed form, with no matrix formed; ``nonloose.surgery``, which
holds the general diagram pipeline, imports it from here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams, MeridionalSlope, Value, check_chi, optional, read_chi, read_count, read_int


def read_fraction(value, what, error):
    """The rule: an integer, not a boolean, or a ``Fraction``, stored as a ``Fraction``."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value if type(value) is Fraction else Fraction(value)
    raise error(f"{what} must be an integer or a Fraction, got {value!r}")


class ClassicalPair(Value):
    """(tb, rot) of an oriented Legendrian knot, with optional genus data."""

    __slots__ = _fields = ("tb", "rot", "chi")
    _rules = {"tb": read_int, "rot": read_int, "chi": optional(read_chi)}

    def __init__(self, tb: int, rot: int, chi: int | None = None):
        self._set(tb, rot, chi)


class RationalData(Value):
    """Rational invariants (tb_Q, rot_Q) of a rationally null-homologous knot.

    ``order_r`` is the order of the knot class in first homology and ``chi``
    the Euler characteristic of a rational Seifert surface.  tb_Q and rot_Q
    lie in (1/r) Z (Baker and Etnyre, "Rational linking and contact
    geometry", 2012), so a value whose denominator does not divide r raises
    ``InvalidParams``.
    """

    __slots__ = _fields = ("tb_q", "rot_q", "order_r", "chi")
    _rules = {"tb_q": read_fraction, "rot_q": read_fraction, "order_r": read_int, "chi": read_int}

    def __init__(self, tb_q: Fraction | int, rot_q: Fraction | int, order_r: int, chi: int):
        self._set(tb_q, rot_q, order_r, chi)
        check_chi(chi, odd=False)
        if order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {order_r}")
        if order_r % self.tb_q.denominator or order_r % self.rot_q.denominator:
            raise InvalidParams(
                f"tb_q and rot_q must be multiples of 1/order_r, got tb_q {self.tb_q}, rot_q {self.rot_q}"
                f" and order_r {order_r}"
            )


def dual_invariants(tb: int, rot: int, a: int, b: int, chi: int) -> RationalData:
    """Invariants of an (a, b)-stabilized push-off of the dual to (+1)-surgery.

    The diagram has two components: the surgered knot, with classical
    invariants (tb, rot) and coefficient +1, and its push-off, stabilized a
    times positively and b times negatively, as the passive component; their
    linking number is tb.  So M = [tb + 1] and lk = tb, and the formulas of
    ``surgery.rational_invariants`` close up:

        tb_Q  = (tb - a - b) - tb^2/(tb + 1)  = tb/(tb + 1) - a - b
        rot_Q = (rot + a - b) - rot tb/(tb + 1) = rot/(tb + 1) + a - b
        r     = |tb + 1|

    r is the order of tb in Z/(tb + 1), which is all of |tb + 1| because
    gcd(tb, tb + 1) = 1.  tb + rot of a Legendrian knot is odd, so an even
    sum raises ``InvalidParams``, as ``SurgeryComponent`` refuses it.
    """
    read_int(tb, "tb", InvalidParams)
    read_int(rot, "rot", InvalidParams)
    read_count(a, "a", InvalidParams)
    read_count(b, "b", InvalidParams)
    if (tb + rot) % 2 == 0:
        raise InvalidParams(f"tb + rot must be odd, got tb {tb} and rot {rot}")
    if tb == -1:
        raise MeridionalSlope("tb = -1 makes (+1)-surgery meridional (det M = 0)")
    n = tb + 1
    return RationalData(Fraction(tb, n) - a - b, Fraction(rot, n) + a - b, abs(n), chi)
