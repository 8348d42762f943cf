"""Arithmetic of classical and rational classical invariants.

These operations are diagram-free: they track how (tb, rot) and their
rational counterparts move under stabilization, orientation reversal, and
transverse push-offs.  All rational values are exact ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvalidParams


def check_chi(chi: int, odd: bool = True) -> None:
    """chi <= 1, and chi = 1 - 2g is odd for a knot's Seifert surface; a rational
    one may have several boundary components, so ``odd=False`` skips parity."""
    if chi > 1:
        raise InvalidParams(f"chi must be <= 1, got {chi}")
    if odd and chi % 2 == 0:
        raise InvalidParams(f"chi of a knot's Seifert surface is odd, got {chi}")


@dataclass(frozen=True)
class ClassicalPair:
    """(tb, rot) of an oriented Legendrian knot, with optional genus data."""

    tb: int
    rot: int
    chi: int | None = None
    oriented: bool = True

    def __post_init__(self):
        if self.chi is not None:
            check_chi(self.chi)


@dataclass(frozen=True)
class RationalData:
    """Rational invariants (tb_Q, rot_Q) of a rationally null-homologous knot.

    ``order_r`` is the order of the knot class in first homology and ``chi``
    the Euler characteristic of a rational Seifert surface.
    """

    tb_q: Fraction
    rot_q: Fraction
    order_r: int
    chi: int

    def __post_init__(self):
        object.__setattr__(self, "tb_q", Fraction(self.tb_q))
        object.__setattr__(self, "rot_q", Fraction(self.rot_q))
        check_chi(self.chi, odd=False)
        if self.order_r < 1:
            raise InvalidParams(f"homological order must be >= 1, got {self.order_r}")


def _require_oriented(p: ClassicalPair) -> None:
    if not p.oriented:
        raise InvalidParams("operation needs an oriented knot")


def stabilize_class(p: ClassicalPair, a: int, b: int) -> ClassicalPair:
    """a positive and b negative stabilizations: tb -= a+b, rot += a-b."""
    _require_oriented(p)
    if a < 0 or b < 0:
        raise InvalidParams("stabilization counts must be nonnegative")
    return replace(p, tb=p.tb - a - b, rot=p.rot + a - b)


def reverse_class(p: ClassicalPair) -> ClassicalPair:
    """Orientation reversal fixes tb and negates rot."""
    _require_oriented(p)
    return replace(p, rot=-p.rot)


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
    return replace(d, tb_q=d.tb_q - a - b, rot_q=d.rot_q + a - b)


def reverse_rational(d: RationalData) -> RationalData:
    return replace(d, rot_q=-d.rot_q)


def pushoff_sl_rational(d: RationalData) -> Fraction:
    """Self-linking of the positive transverse push-off: tb_Q - rot_Q."""
    return d.tb_q - d.rot_q


def rational_from_classical(p: ClassicalPair) -> RationalData:
    """Lift integral invariants to the rational setting with order 1."""
    if p.chi is None:
        raise InvalidParams("chi required to build rational data")
    return RationalData(Fraction(p.tb), Fraction(p.rot), 1, p.chi)
