"""Decision procedures emitting tagged certificates about non-looseness.

The sole looseness oracle implemented here is a violated Bennequin-type
inequality; every depth/tension/order statement derived from it is a bound
with an explicit witness.  Hypotheses the library cannot decide (tightness of
a complement, overtwistedness of a surgery, nonvanishing of a Floer class)
enter as evidence flags supplied by the caller, each read as true or false,
and every certificate echoes exactly the flags it consumed.

A theorem checked against its hypotheses is one criterion: named clauses and
a bound window.  If every clause holds it gives its verdict with that window,
else Inconclusive, with ``failed_conditions`` naming the failing clauses in order.

Bound bookkeeping inside certificate details uses the flat keys
``depth_min/depth_max``, ``tension_min/tension_max`` and
``order_bar_min/order_bar_max``; :func:`certificate_bounds` alone reads them
back, and the consistency checker verifies order <= tension <= depth within
each certificate's own windows.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import inf
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from .calculus import ClassicalPair, RationalData, dual_invariants, read_fraction
from .errors import (
    ContradictoryEvidence,
    IncompatibleRelation,
    InvalidParams,
    NotLoosened,
    Value,
    member,
    members,
    nonnegative,
    read_bool,
    read_count,
    read_genus,
    read_int,
    read_mapping,
    read_str,
)


class CheckResult(str, Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"


class Verdict(str, Enum):
    LOOSE_CERTIFIED = "LooseCertified"
    NO_OBSTRUCTION = "NoObstruction"
    DEPTH_ONE = "DepthOne"
    DEPTH_AT_LEAST_TWO = "DepthAtLeastTwo"
    DEPTH_EXACTLY_TWO = "DepthExactlyTwo"
    TENSION_UPPER_BOUND = "TensionUpperBound"
    SIGNED_TENSION_BOUND = "SignedTensionBound"
    TENSION_EXACTLY_ONE = "TensionExactlyOne"
    ORDER_BOUNDS = "OrderBounds"
    ORDER_ZERO = "OrderZero"
    INCONCLUSIVE = "Inconclusive"


# the default of a mapping field; each value stores a copy of its own
_EMPTY: Mapping[str, Any] = MappingProxyType({})


class Reason(Value):
    __slots__ = _fields = ("rule", "note", "inputs")
    _rules = {"rule": read_str, "note": read_str, "inputs": read_mapping}

    def __init__(self, rule: str, note: str, inputs: Mapping[str, Any] = _EMPTY):
        self._set(rule, note, inputs)


class Certificate(Value):
    __slots__ = _fields = ("verdict", "details", "reasons", "assumptions")
    _rules = {
        "reasons": members(Reason), "verdict": member(Verdict), "details": read_mapping, "assumptions": read_mapping
    }
    _labels = {"reasons": "a certificate's reasons"}

    def __init__(
        self, verdict: Verdict, details: Mapping[str, Any] = _EMPTY, reasons: Iterable[Reason] = (),
        assumptions: Mapping[str, bool] = _EMPTY,
    ):
        self._set(verdict, details, reasons, assumptions)
        if not self.reasons:
            raise InvalidParams("a certificate must carry at least one reason")

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "details": _jsonable(dict(self.details)),
            "reasons": [
                {"rule": r.rule, "note": r.note, "inputs": _jsonable(dict(r.inputs))}
                for r in self.reasons
            ],
            "assumptions": dict(self.assumptions),
        }


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def _certificate(verdict, details, rule, note, inputs=None, assumptions=None) -> Certificate:
    """A certificate resting on a single reason."""
    return Certificate(verdict, details, (Reason(rule, note, inputs or _EMPTY),), assumptions or _EMPTY)


def _loose(rule, note, inputs=None, *, context=None, assumptions=None, **extra) -> Certificate:
    """LooseCertified: depth and tension are both zero.  ``context`` details
    precede the zero window and ``extra`` ones follow it."""
    zero = {"depth_min": 0, "depth_max": 0, "tension_min": 0, "tension_max": 0}
    details = {**(context or {}), **zero, **extra}
    return _certificate(Verdict.LOOSE_CERTIFIED, details, rule, note, inputs, assumptions)


def _flags(**flags: bool) -> dict[str, bool]:
    """The caller's evidence flags by name, each read as true or false."""
    for name, flag in flags.items():
        read_bool(flag, name, InvalidParams)
    return flags


_LOOSE_COMPLEMENT = ("loose-complement", "an overtwisted complement is the definition of loose")


def _criterion(
    clauses: Mapping[str, bool], rule, verdict, window, note, unmet, inputs, assumptions=None
) -> Certificate:
    """``verdict``, ``window`` and ``note`` if every named clause holds; else
    Inconclusive, ``unmet`` and the failing names as ``failed_conditions``.
    Details start with ``inputs``, which the one reason echoes."""
    failed = tuple(name for name, ok in clauses.items() if not ok)
    if failed:
        verdict, window, note = Verdict.INCONCLUSIVE, {"failed_conditions": failed}, unmet
    return _certificate(verdict, {**inputs, **window}, rule, note, inputs, assumptions)


def _read_surface_kind(value, what, error):
    if value in ("punctured-torus", "punctured-klein-bottle"):
        return value
    raise error(f"{what} must name a once-punctured torus or Klein bottle, got {value!r}")


class Depth2Witness(Value):
    """Caller-verified geometric witness for the depth-two characterization, on
    a ``surface_kind`` of "punctured-torus" or "punctured-klein-bottle", with
    integer twisting numbers and three flags."""

    __slots__ = _fields = (
        "surface_kind", "tw_boundary", "tw_curve", "essential", "non_separating", "orientation_preserving"
    )
    _rules = {
        "surface_kind": _read_surface_kind, "tw_boundary": read_int, "tw_curve": read_int, "essential": read_bool,
        "non_separating": read_bool, "orientation_preserving": read_bool,
    }


# the rules of the value arguments below, and of a search's budget or a bound
_read_pair = member(ClassicalPair)
_read_rational = member(RationalData)
_read_data = member((ClassicalPair, RationalData))
_read_witness = member(Depth2Witness)
_read_certificate = member(Certificate)
_read_certificates = members(Certificate)
_read_nonnegative = nonnegative()


# ---------------------------------------------------------------------------
# Bennequin-type checks: the looseness oracle.


def _exceeds(tb, rot, rhs) -> bool:
    """-|tb| + |rot| > rhs: the Bennequin-type inequality fails."""
    return -abs(tb) + abs(rot) > rhs


def bennequin_null(p: ClassicalPair) -> CheckResult:
    """-|tb| + |rot| <= -chi, required of every non-loose null-homologous knot."""
    _read_pair(p, "p", InvalidParams)
    if p.chi is None:
        raise InvalidParams("the classical Bennequin check needs chi")
    return CheckResult.VIOLATED if _exceeds(p.tb, p.rot, -p.chi) else CheckResult.HOLDS


def bennequin_rational(d: RationalData) -> CheckResult:
    """-|tb_Q| + |rot_Q| <= -chi/r, the rational analogue; exact comparison."""
    _read_rational(d, "d", InvalidParams)
    rhs = Fraction(-d.chi, d.order_r)
    return CheckResult.VIOLATED if _exceeds(d.tb_q, d.rot_q, rhs) else CheckResult.HOLDS


def transverse_bennequin(sl_q: Fraction | int, chi: int, order_r: int) -> CheckResult:
    """sl_Q <= -chi/r for non-loose transverse knots.

    sl_Q = tb_Q - rot_Q of a Legendrian approximation lies in (1/r) Z, so an
    sl_q whose denominator does not divide r raises ``InvalidParams``."""
    sl_q = read_fraction(sl_q, "sl_q", InvalidParams)
    RationalData(0, 0, order_r, chi)  # chi and r obey the rules of a rational knot's
    if order_r % sl_q.denominator:
        raise InvalidParams(f"sl_q must be a multiple of 1/order_r, got sl_q {sl_q} and order_r {order_r}")
    return CheckResult.VIOLATED if sl_q > Fraction(-chi, order_r) else CheckResult.HOLDS


# ---------------------------------------------------------------------------
# Unknots.


def unknot_verdict(p: ClassicalPair) -> Certificate:
    """Classify a Legendrian unknot in an overtwisted structure.

    tb <= 0 is loose; so is any tb = n > 0 with rot other than +-(n-1).  The
    surviving pairs are exactly the classified non-loose candidates, which,
    when non-loose, have depth = tension = 1 and vanishing order.
    """
    _read_pair(p, "p", InvalidParams)
    details = {"knot_type": "unknot", "tb": p.tb, "rot": p.rot}
    if abs(p.rot) == p.tb - 1:  # only possible for tb >= 1
        return Certificate(
            Verdict.INCONCLUSIVE,
            details={
                **details,
                "possibly_nonloose": True,
                "if_nonloose": {"depth": 1, "tension": 1, "order_bar": 0},
                "order_bar_max": 0,
            },
            reasons=(
                Reason(
                    "unknot-classification",
                    "(tb, rot) = (n, +-(n-1)) matches a classified non-loose unknot",
                    {"tb": p.tb, "rot": p.rot},
                ),
                Reason(
                    "unknot-depth-tension",
                    "every non-loose unknot has depth = tension = 1",
                ),
                Reason(
                    "tb-bound-order-zero",
                    "non-loose unknots have tb >= 1, so the torsion order vanishes",
                ),
            ),
        )
    if p.tb <= 0:
        reason = (
            "unknot-tb-nonpositive",
            "a Legendrian unknot with tb <= 0 in an overtwisted structure is loose",
            {"tb": p.tb},
        )
    else:
        reason = (
            "unknot-classification",
            "no non-loose unknot has these invariants, so the knot is loose",
            {"tb": p.tb, "rot": p.rot},
        )
    return _loose(*reason, context=details, order_bar_max=0)


# ---------------------------------------------------------------------------
# Tension bounds by stabilization search.

_SIDES = ("both", "positive_only", "negative_only")


def tension_upper_bound(
    data: ClassicalPair | RationalData,
    max_n: int = 64,
    side: str = "both",
) -> tuple[int, tuple[int, int]] | None:
    """Least total number s <= max_n of stabilizations whose result violates
    Bennequin, and its split into a positive and b negative stabilizations.

    A violation certifies that the stabilized knot is loose, so the returned
    total bounds the (signed) tension from above; the witness (a, b) is the
    lexicographically least minimal one among the splits ``side`` allows.
    ``None`` means no violation within the budget, never that the tension is
    infinite.

    "both" checks the totals 0..max_n in order, each split with a ascending.
    One side is a closed form, of the same cost at any ``max_n``, and its
    ``None`` is exact up to the budget.  A total s has one split there, a = s
    or b = s, whose excess -|tb - s| + |rot +- s| = |s - c| - |s - tb|, with
    c = -rot on the positive side and c = rot on the negative one, is
    monotone in s: flat up to min(c, tb), of slope +-2 between c and tb and
    flat after.  So s = 0 violates, or no s does when c >= tb or the last
    value tb - c stays within the bound, or the least s is the first integer
    past the point where 2s - c - tb crosses the bound.  ``//`` floors ints
    and ``Fraction``s alike.
    """
    _read_data(data, "data", InvalidParams)
    if side not in _SIDES:
        raise InvalidParams(f"side must be one of {_SIDES}, got {side!r}")
    if isinstance(data, ClassicalPair) and data.chi is None:
        raise InvalidParams("the stabilization search needs chi")
    _read_nonnegative(max_n, "max_n", InvalidParams)
    if isinstance(data, RationalData):
        tb, rot, rhs = data.tb_q, data.rot_q, Fraction(-data.chi, data.order_r)
    else:
        tb, rot, rhs = data.tb, data.rot, -data.chi
    if side != "both":
        c = rot if side == "negative_only" else -rot
        if _exceeds(tb, rot, rhs):
            total = 0
        elif c >= tb or tb - c <= rhs:
            return None
        else:
            total = (rhs + c + tb) // 2 + 1
        if total > max_n:
            return None
        return total, (0, total) if side == "negative_only" else (total, 0)
    for total in range(max_n + 1):
        for a in range(total + 1):
            if _exceeds(tb - total, rot + 2 * a - total, rhs):
                return total, (a, total - a)
    return None


def tension_certificate(
    data: ClassicalPair | RationalData,
    max_n: int = 64,
    side: str = "both",
) -> Certificate:
    """Certificate form of :func:`tension_upper_bound`.

    A found violation yields a TensionUpperBound certificate with the witness
    echoed; an exhausted search yields NoObstruction, reporting only that no
    violation exists within the budget (the method cannot certify an infinite
    tension).
    """
    found = tension_upper_bound(data, max_n=max_n, side=side)
    if found is None:
        return _certificate(
            Verdict.NO_OBSTRUCTION,
            {"max_n": max_n, "side": side},
            "stabilization-violation-search",
            "no stabilization within the budget violates the applicable Bennequin bound",
            {"max_n": max_n, "side": side},
        )
    bound, witness = found
    return _certificate(
        Verdict.TENSION_UPPER_BOUND,
        {"tension_max": bound, "witness": witness, "side": side},
        "stabilization-violation-search",
        "the witness stabilization violates the applicable Bennequin "
        "bound, so the stabilized knot is loose",
        {"witness": witness, "side": side},
    )


# ---------------------------------------------------------------------------
# Surgery-dual classifications.


def depth_one_dual(is_stabilization: bool, complement_tight: bool) -> Certificate:
    """Depth of the dual to an overtwisted (+1)-surgery.

    With tight complement the depth is 1 exactly when the surgered knot is a
    stabilization; an overtwisted complement means the dual is loose.
    """
    assumptions = _flags(is_stabilization=is_stabilization, complement_tight=complement_tight)
    if not complement_tight:
        return _loose(*_LOOSE_COMPLEMENT, assumptions=assumptions)
    if is_stabilization:
        verdict, window = Verdict.DEPTH_ONE, {"depth_min": 1, "depth_max": 1}
        note = "(+1)-surgery on a stabilization caps off an overtwisted disk meeting the dual once"
    else:
        verdict, window = Verdict.DEPTH_AT_LEAST_TWO, {"depth_min": 2}
        note = "depth one of the dual forces the surgered knot to destabilize"
    return _certificate(verdict, window, "dual-depth-characterization", note, assumptions=assumptions)


def tension_one_dual(tb: int, rot: int, chi: int, surgery_overtwisted: bool) -> Certificate:
    """Tension of the dual to (+1)-surgery on a knot in the tight S^3.

    tb < -1, rot < 0 and tb + rot + 2 < chi force a positive stabilization of
    the dual to violate the rational Bennequin bound, so its tension is
    exactly 1 once the surgery is overtwisted.  ``chi`` is that of the knot's
    Seifert surface: odd and at most 1, else ``InvalidParams``.
    """
    ClassicalPair(tb, rot, read_int(chi, "chi", InvalidParams))  # the rules of a knot's tb, rot and chi
    assumptions = _flags(surgery_overtwisted=surgery_overtwisted)
    return _criterion(
        {
            "tb < -1": tb < -1,
            "rot < 0": rot < 0,
            "tb + rot + 2 < chi": tb + rot + 2 < chi,
            "surgery_overtwisted": surgery_overtwisted,
        },
        "dual-tension-criterion",
        Verdict.TENSION_EXACTLY_ONE,
        {"tension_min": 1, "tension_max": 1},
        "a positive stabilization of the dual violates the rational "
        "Bennequin bound, and the dual itself is non-loose",
        "hypotheses of the dual tension-one criterion are not all met",
        {"tb": tb, "rot": rot, "chi": chi},
        assumptions,
    )


def tension_less_than_depth_search(p_max: int) -> list[Certificate]:
    """Certificates with tension 1 but depth at least 2 from negative torus knots.

    One certificate for each coprime (p, q) with -p > q >= 2 and |p| <= p_max,
    a nonnegative budget; ``negative_torus_record`` rejects the other pairs.
    Every hypothesis holds for each such pair, so none is tested (p <= -3, 2 <= q < -p):

      * tb = pq <= -6 and rot = p + q < 0;
      * tb + rot + 2 < chi = q - p + pq reduces to p < -1;
      * the record sets the overtwisted flag of (+1)-surgery;
      * tb is the record's max_tb, so the knot is not a stabilization;
      * the once positively stabilized dual has r = n = -(pq + 1) >= 5,
        tb_Q = 1/n and rot_Q = (p + q)/(pq + 1) + 1 = (n - p - q)/n > 0, so
        its rational Bennequin violation -|tb_Q| + |rot_Q| > -chi/r reads
        n - 1 - p - q > p - q - pq, which reduces to p < -1 as well.
    """
    _read_nonnegative(p_max, "p_max", InvalidParams)
    from .knotdata import negative_torus_record

    depth = depth_one_dual(is_stabilization=False, complement_tight=True)
    assumptions = {"surgery_overtwisted": True, "complement_tight": True}
    out: list[Certificate] = []
    for p in range(-3, -p_max - 1, -1):
        for q in range(2, -p):
            try:
                rec = negative_torus_record(p, q)
            except InvalidParams:
                continue
            tb, chi = rec.max_tb, rec.chi
            rot = p + q
            tension = tension_one_dual(tb, rot, chi, rec.plus_one_surgery_overtwisted)
            dual = dual_invariants(tb, rot, 1, 0, chi)
            details = {
                "knot": rec.family,
                **tension.details,  # tb, rot, chi and the tension window
                **depth.details,  # depth_min 2
                "dual_tb_q": dual.tb_q,
                "dual_rot_q": dual.rot_q,
                "dual_order_r": dual.order_r,
            }
            max_tb = Reason(
                "max-tb-witness",
                "tb equals the classified maximum, ruling out a destabilization",
                {"tb": tb, "max_tb": rec.max_tb},
            )
            violation = Reason(
                "bennequin-rational",
                "the stabilized dual violates the rational Bennequin bound",
                {"tb_q": dual.tb_q, "rot_q": dual.rot_q, "r": dual.order_r, "chi": chi},
            )
            reasons = (*tension.reasons, *depth.reasons, max_tb, violation)
            out.append(Certificate(Verdict.TENSION_EXACTLY_ONE, details, reasons, assumptions))
    return out


def depth2_check(w: Depth2Witness, is_stabilization: bool, complement_tight: bool) -> Certificate:
    """Depth-two characterization, conditioned on a caller-verified surface.

    All clauses together give depth exactly 2; any failure is reported as
    Inconclusive naming the clause (witness absence never refutes depth 2).
    """
    assumptions = _flags(is_stabilization=is_stabilization, complement_tight=complement_tight)
    _read_witness(w, "w", InvalidParams)
    return _criterion(
        {
            "complement_tight": complement_tight,
            "not_a_stabilization": not is_stabilization,
            "tw_boundary == 0": w.tw_boundary == 0,
            "tw_curve == +1": w.tw_curve == 1,
            "essential": w.essential,
            "non_separating": w.non_separating,
            "orientation_preserving": w.orientation_preserving,
        },
        "depth-two-witness",
        Verdict.DEPTH_EXACTLY_TWO,
        {"depth_min": 2, "depth_max": 2},
        "the punctured surface compresses to an overtwisted disk met twice, "
        "and no destabilization lowers the depth to 1",
        "a clause of the depth-two characterization fails",
        {"surface_kind": w.surface_kind},
        assumptions,
    )


def possurg_depth_one(tb: int, g_s: int) -> Certificate:
    """Depth one for the image of K under the two meridional (+1)-surgeries.

    Requires tb = 2 g_s - 1 > 1, which makes (+1)-surgery on K tight.
    """
    read_int(tb, "tb", InvalidParams)
    read_genus(g_s, "g_s", InvalidParams)
    return _criterion(
        {"tb == 2*g_s - 1": tb == 2 * g_s - 1, "tb > 1": tb > 1},
        "positive-surgery-tight",
        Verdict.DEPTH_ONE,
        {"depth_min": 1, "depth_max": 1, "applies_to": "meridian-surgered image"},
        "tb = 2 g_s - 1 > 1 makes (+1)-surgery tight, so the image knot "
        "meets an overtwisted disk exactly once",
        "the sharp slice-Bennequin hypothesis does not hold",
        {"tb": tb, "g_s": g_s},
    )


# ---------------------------------------------------------------------------
# Order bounds from the torsion invariant.


def order_bounds(a: int, b: int, loosened: bool) -> Certificate:
    """From a loosening by a positive and b negative stabilizations:
    o(L) <= a, o(-L) <= b, and their sum bounds the unoriented order."""
    read_count(a, "a", InvalidParams)
    read_count(b, "b", InvalidParams)
    assumptions = _flags(loosened=loosened)
    if not loosened:
        raise NotLoosened("order bounds need a certified loosening")
    note = "positive stabilizations multiply the invariant by U, negative ones fix it"
    if a + b == 0:
        note = "the knot itself is loose, so the invariant and both orders vanish"
    window = {"order_max": a, "order_reversed_max": b, "order_bar_max": a + b}
    return _certificate(Verdict.ORDER_BOUNDS, window, "stabilization-order-bound", note, {"a": a, "b": b}, assumptions)


def order_zero_by_tb_bound(has_tb_lower_bound: bool, order_positive: bool = False) -> Certificate:
    """A tb lower bound on non-loose representatives kills the torsion order."""
    assumptions = _flags(has_tb_lower_bound=has_tb_lower_bound)
    read_bool(order_positive, "order_positive", InvalidParams)
    if has_tb_lower_bound and order_positive:
        raise ContradictoryEvidence(
            "a positive order forces negative stabilizations to stay non-loose, so tb cannot be bounded below"
        )
    if not has_tb_lower_bound:
        note = "no tb lower bound supplied; nothing follows"
        return _certificate(Verdict.INCONCLUSIVE, {}, "tb-bound-order-zero", note, assumptions=assumptions)
    return _certificate(
        Verdict.ORDER_ZERO,
        {"order_bar_min": 0, "order_bar_max": 0, "t_plus_finite": True, "t_minus_finite": True},
        "tb-bound-order-zero",
        "stabilizing past the tb bound loosens the knot with either sign, "
        "so the invariant vanishes and both signed tensions are finite",
        assumptions=assumptions,
    )


# ---------------------------------------------------------------------------
# Signed refinements and transverse transfer.


def tension_refinement(
    is_positive_stab_of_pushoff: bool, contact_invariant_nonzero: bool, complement_tight: bool
) -> Certificate:
    """Signed tensions of the dual to (+1)-surgery on a positive stabilization.

    The negative tension is exactly 1; when the contact class of (+1)-surgery
    on the destabilized knot is nonzero the positive tension exceeds 1.
    """
    assumptions = _flags(
        is_positive_stab_of_pushoff=is_positive_stab_of_pushoff,
        contact_invariant_nonzero=contact_invariant_nonzero,
        complement_tight=complement_tight,
    )
    if not complement_tight:
        return _loose(*_LOOSE_COMPLEMENT, assumptions=assumptions)
    if not is_positive_stab_of_pushoff:
        failed = {"failed_conditions": ("is_positive_stab_of_pushoff",)}
        note = "the construction needs the surgered knot to be a positive stabilization of a push-off"
        return _certificate(Verdict.INCONCLUSIVE, failed, "signed-tension-refinement", note, assumptions=assumptions)
    details: dict[str, Any] = {"t_minus_min": 1, "t_minus_max": 1, "tension_min": 1, "tension_max": 1}
    notes = [
        "one negative stabilization of the dual removes the single intersection with the capped-off overtwisted disk"
    ]
    if contact_invariant_nonzero:
        details["t_plus_min"] = 2
        notes.append(
            "(-1)-surgery on a positive stabilization of the dual keeps a "
            "nonzero contact class, so one positive stabilization stays non-loose"
        )
    reasons = [Reason("signed-tension-refinement", note) for note in notes]
    return Certificate(Verdict.SIGNED_TENSION_BOUND, details, reasons, assumptions)


_RELATIONS = ("pushoff", "approximation")


def transverse_transfer(
    legendrian_cert: Certificate, relation: str, *, is_negative_hopf_stabilization: bool = False
) -> Certificate:
    """Transfer a Legendrian certificate to the related transverse knot.

    ``relation`` states how the transverse knot arises: as the positive
    push-off of the Legendrian knot, or with the Legendrian knot as one of
    its approximations.  Rules:

      * a tension bound transfers only with its witness: one using p
        positive stabilizations bounds the transverse tension by p;
      * finite negative tension makes the push-off loose;
      * a transverse unknot is loose outright;
      * the binding of a negatively Hopf-stabilized open book (evidence
        flag) has depth = tension = 1.

    The source's ``witness`` (a, b) must be a list or tuple of two
    nonnegative integers, and its ``t_minus_max`` a nonnegative integer;
    anything else raises ``InvalidParams``.
    """
    if relation not in _RELATIONS:
        raise IncompatibleRelation(f"relation must be one of {_RELATIONS}, got {relation!r}")
    assumptions = _flags(is_negative_hopf_stabilization=is_negative_hopf_stabilization)
    _read_certificate(legendrian_cert, "legendrian_cert", InvalidParams)
    if is_negative_hopf_stabilization:
        window = {"depth_min": 1, "depth_max": 1, "tension_min": 1, "tension_max": 1}
        note = "plumbing a positive Hopf band exposes an overtwisted disk met once by the binding"
        return _certificate(Verdict.DEPTH_ONE, window, "hopf-binding-depth", note, assumptions=assumptions)
    details = dict(legendrian_cert.details)
    if details.get("knot_type") == "unknot":
        return _loose(
            "transverse-unknot-loose",
            "every transverse unknot in an overtwisted structure is loose",
            context={"knot_type": "unknot"},
            assumptions=assumptions,
        )
    if legendrian_cert.verdict is Verdict.SIGNED_TENSION_BOUND:
        if relation != "pushoff":
            raise IncompatibleRelation(
                "finite negative tension speaks about the positive push-off"
            )
        t_minus_max = details.get("t_minus_max")
        if t_minus_max is not None:
            return _loose(
                "pushoff-loose",
                "negative stabilizations do not move the push-off, so a "
                "finite negative tension looses it",
                {"t_minus_max": _read_nonnegative(t_minus_max, "t_minus_max", InvalidParams)},
                assumptions=assumptions,
            )
    if legendrian_cert.verdict is Verdict.LOOSE_CERTIFIED and relation == "pushoff":
        return _loose(
            "pushoff-loose",
            "the push-off of a loose knot is loose (zero negative tension)",
            assumptions=assumptions,
        )
    witness = details.get("witness")
    if legendrian_cert.verdict is Verdict.TENSION_UPPER_BOUND and witness is not None:
        pair = isinstance(witness, (list, tuple)) and len(witness) == 2  # (a, b), as tension_upper_bound gives it
        if not pair or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in witness):
            raise InvalidParams(f"witness must be a list or tuple of two nonnegative integers, got {witness!r}")
        positive_used = witness[0]
        if positive_used == 0:
            # loosened by negative stabilizations alone, which do not move
            # the transverse knot at all
            return _loose(
                "pushoff-loose",
                "a purely negative loosening leaves the transverse knot "
                "unchanged, so it is loose",
                assumptions=assumptions,
            )
        return _certificate(
            Verdict.TENSION_UPPER_BOUND,
            {"tension_max": positive_used, "positive_stabs_used": positive_used},
            "approximation-tension",
            "only the positive stabilizations of an approximation survive "
            "as stabilizations of the transverse knot",
            {"positive_stabs_used": positive_used},
            assumptions,
        )
    return _certificate(
        Verdict.INCONCLUSIVE,
        {"source_verdict": legendrian_cert.verdict.value},
        "transverse-transfer",
        "no transfer rule applies to the supplied certificate",
        assumptions=assumptions,
    )


# ---------------------------------------------------------------------------
# Consistency of each certificate's bound windows.

_MEASURES = ("order_bar", "tension", "depth")  # the order of order <= tension <= depth


def _bound(name: str, value: Any) -> int | Fraction | float:
    """``value`` if it is a bound: an int that is not a bool, a Fraction or inf."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value == inf:
        return value
    raise InvalidParams(f"{name} must be an integer, a Fraction or inf, got {value!r}")


def certificate_bounds(cert: Certificate) -> dict[str, tuple[float, float]]:
    """Extract [min, max] windows for order, tension and depth, in that order.

    Unstated minimum is 0, unstated maximum is unbounded.  For conditional
    unknot certificates the ``if_nonloose`` values fill the unstated keys,
    since the certificate's statement is conditioned on non-looseness.
    Raises :class:`InvalidParams` when ``if_nonloose`` is not a mapping
    holding all three of ``depth``, ``tension`` and ``order_bar``, or when a
    bound is not an int (bools excluded), a Fraction or inf.
    """
    d = _read_certificate(cert, "cert", InvalidParams).details
    c = d.get("if_nonloose")
    if c is not None:
        c = read_mapping(c, "if_nonloose", InvalidParams)
        missing = [k for k in ("depth", "tension", "order_bar") if k not in c]
        if missing:
            raise InvalidParams(f"if_nonloose lacks {', '.join(missing)}")
        depth, tension, order_bar = (_bound(f"if_nonloose {k}", c[k]) for k in ("depth", "tension", "order_bar"))
        d = {
            "depth_min": depth,
            "depth_max": depth,
            "tension_min": tension,
            "tension_max": tension,
            "order_bar_max": order_bar,
            **d,
        }
    return {
        m: (_bound(f"{m}_min", d.get(f"{m}_min", 0)), _bound(f"{m}_max", d.get(f"{m}_max", inf)))
        for m in _MEASURES
    }


def bundle_is_consistent(cert: Certificate) -> bool:
    """Feasibility of order <= tension <= depth within the stated windows.

    Each measure is at least the running lower bound of those below it, so
    the chain is feasible exactly when no upper bound falls below it.
    """
    floor = 0
    for lo, hi in certificate_bounds(cert).values():
        floor = max(floor, lo)
        if hi < floor:
            return False
    return True


def check_consistency(certs: Iterable[Certificate]) -> list[Certificate]:
    """Return the certificates whose own bound windows admit no order <=
    tension <= depth.  Each certificate is checked on its own: certificates
    do not name their subject, so two about the same knot are not compared."""
    return [c for c in _read_certificates(certs, "certs", InvalidParams) if not bundle_is_consistent(c)]
