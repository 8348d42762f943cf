"""Arithmetic of classical and rational classical invariants.

These operations are diagram-free: they track how (tb, rot) and their
rational counterparts move under stabilization, orientation reversal, and
transverse push-offs.  All rational values are exact ``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParams, Value


def check_chi(chi: int, odd: bool = True) -> None:
    """chi <= 1, and chi = 1 - 2g is odd for a knot's Seifert surface; a rational
    one may have several boundary components, so ``odd=False`` skips parity."""
    if chi > 1:
        raise InvalidParams(f"chi must be <= 1, got {chi}")
    if odd and chi % 2 == 0:
        raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {chi}")


def _check_int(value, what: str) -> None:
    # fields.read_int's rule, repeated so that the certify commands load no fields
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParams(f"{what} must be an integer, got {value!r}")


def _rational(value, what: str) -> Fraction:
    """``value`` as a Fraction if it is one or an integer; else InvalidParams."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value if type(value) is Fraction else Fraction(value)
    raise InvalidParams(f"{what} must be an integer or a Fraction, got {value!r}")


class ClassicalPair(Value):
    """(tb, rot) of an oriented Legendrian knot, with optional genus data."""

    __slots__ = _fields = ("tb", "rot", "chi", "oriented")

    def __init__(self, tb: int, rot: int, chi: int | None = None, oriented: bool = True):
        _check_int(tb, "tb")
        _check_int(rot, "rot")
        if chi is not None:
            _check_int(chi, "chi")
            check_chi(chi)
        if not isinstance(oriented, bool):
            raise InvalidParams(f"oriented must be True or False, got {oriented!r}")
        self._set(tb, rot, chi, oriented)


class RationalData(Value):
    """Rational invariants (tb_Q, rot_Q) of a rationally null-homologous knot.

    ``order_r`` is the order of the knot class in first homology and ``chi``
    the Euler characteristic of a rational Seifert surface.
    """

    __slots__ = _fields = ("tb_q", "rot_q", "order_r", "chi")

    def __init__(self, tb_q: Fraction | int, rot_q: Fraction | int, order_r: int, chi: int):
        tb_q, rot_q = _rational(tb_q, "tb_q"), _rational(rot_q, "rot_q")
        _check_int(order_r, "order_r")
        _check_int(chi, "chi")
        check_chi(chi, odd=False)
        if order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {order_r}")
        self._set(tb_q, rot_q, order_r, chi)


def _require_oriented(p: ClassicalPair) -> None:
    if not p.oriented:
        raise InvalidParams("operation needs an oriented knot")


def stabilize_class(p: ClassicalPair, a: int, b: int) -> ClassicalPair:
    """a positive and b negative stabilizations: tb -= a+b, rot += a-b."""
    _require_oriented(p)
    if a < 0 or b < 0:
        raise InvalidParams("stabilization counts must be nonnegative")
    return p.replace(tb=p.tb - a - b, rot=p.rot + a - b)


def reverse_class(p: ClassicalPair) -> ClassicalPair:
    """Orientation reversal fixes tb and negates rot."""
    _require_oriented(p)
    return p.replace(rot=-p.rot)


def pushoff_sl(p: ClassicalPair, sign: str) -> int:
    """Self-linking of the positive (tb - rot) or negative (tb + rot) push-off."""
    _require_oriented(p)
    if sign == "+":
        return p.tb - p.rot
    if sign == "-":
        return p.tb + p.rot
    raise InvalidParams(f"sign must be '+' or '-', got {sign!r}")


def stabilize_rational(d: RationalData, a: int, b: int) -> RationalData:
    if a < 0 or b < 0:
        raise InvalidParams("stabilization counts must be nonnegative")
    return d.replace(tb_q=d.tb_q - a - b, rot_q=d.rot_q + a - b)


def reverse_rational(d: RationalData) -> RationalData:
    return d.replace(rot_q=-d.rot_q)


def pushoff_sl_rational(d: RationalData) -> Fraction:
    """Self-linking of the positive transverse push-off: tb_Q - rot_Q."""
    return d.tb_q - d.rot_q


def rational_from_classical(p: ClassicalPair) -> RationalData:
    """Lift integral invariants to the rational setting with order 1."""
    if p.chi is None:
        raise InvalidParams("chi required to build rational data")
    return RationalData(Fraction(p.tb), Fraction(p.rot), 1, p.chi)
