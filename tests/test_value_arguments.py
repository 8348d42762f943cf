"""A function that takes a value reads it with a rule: an argument of the
wrong type is a ``DomainError`` naming the parameter and the class it must
be, never an ``AttributeError`` or ``TypeError`` from deep inside, and never
a value read as another (``"false"`` as true, ``0`` as standard input)."""

from math import inf

import pytest
from examples import README_DIAGRAM, STABILIZED

from nonloose.calculus import ClassicalPair
from nonloose.certify import (
    Certificate,
    Reason,
    Verdict,
    bennequin_null,
    bennequin_rational,
    certificate_bounds,
    check_consistency,
    depth2_check,
    tension_certificate,
    tension_upper_bound,
    transverse_transfer,
    unknot_verdict,
)
from nonloose.diagram import (
    destabilize_front,
    detect_syntactic_destabilization,
    parse_front,
    resolve_orientation,
    reverse_orientation,
    rot,
    serialize_front,
    stabilize_front,
    tb,
)
from nonloose.errors import DomainError, InvalidParams
from nonloose.knotdata import load_records, named_example, negative_torus_record, positive_torus_record
from nonloose.surgery import diagram_from_json, linking_matrix, rational_invariants


def transfer(verdict, details, relation):
    """``transverse_transfer`` of a certificate built directly, as a caller may."""
    return transverse_transfer(Certificate(verdict, details, (Reason("rule", "note"),)), relation)


def transfer_witness(witness):
    return transfer(Verdict.TENSION_UPPER_BOUND, {"tension_max": 1, "witness": witness}, "approximation")


def transfer_t_minus_max(t_minus_max):
    return transfer(Verdict.SIGNED_TENSION_BOUND, {"t_minus_max": t_minus_max}, "pushoff")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tension_upper_bound(5), InvalidParams, "data must be a ClassicalPair or a RationalData, got 5"),
        (lambda: tension_certificate(5), InvalidParams, "data must be a ClassicalPair or a RationalData, got 5"),
        (lambda: bennequin_null(5), InvalidParams, "p must be a ClassicalPair, got 5"),
        (
            lambda: bennequin_rational(ClassicalPair(3, 0, -1)),
            InvalidParams,
            "d must be a RationalData, got ClassicalPair(tb=3, rot=0, chi=-1)",
        ),
        (lambda: unknot_verdict(5), InvalidParams, "p must be a ClassicalPair, got 5"),
        (lambda: depth2_check(5, False, True), InvalidParams, "w must be a Depth2Witness, got 5"),
        (
            lambda: transverse_transfer(5, "pushoff", is_negative_hopf_stabilization=True),
            InvalidParams,
            "legendrian_cert must be a Certificate, got 5",
        ),
        (lambda: certificate_bounds(5), InvalidParams, "cert must be a Certificate, got 5"),
        (lambda: check_consistency(5), InvalidParams, "certs must be Certificate values, got 5"),
        (lambda: check_consistency([5]), InvalidParams, "certs must be Certificate values, got 5"),
        (lambda: resolve_orientation(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: tb(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: rot(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: reverse_orientation(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: stabilize_front(5, "+"), InvalidParams, "front must be an OrientedFront, got 5"),
        (
            lambda: stabilize_front(parse_front(STABILIZED), "+"),
            InvalidParams,
            "front must be an OrientedFront, got FrontWord(",
        ),
        (lambda: serialize_front(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: detect_syntactic_destabilization(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: destabilize_front(5, (1, 2)), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: destabilize_front(parse_front(STABILIZED), 5), InvalidParams, "events 5 do not form"),
        (lambda: destabilize_front(parse_front(STABILIZED), (True, 2)), InvalidParams, "events (True, 2) do not"),
        (lambda: destabilize_front(parse_front(STABILIZED), (1, 2, 3)), InvalidParams, "events (1, 2, 3) do not"),
        (lambda: linking_matrix(5), InvalidParams, "diag must be a SurgeryDiagram, got 5"),
        (lambda: rational_invariants(5, -1), InvalidParams, "diag must be a SurgeryDiagram, got 5"),
        (
            lambda: rational_invariants(diagram_from_json(README_DIAGRAM), -7, reverse_distinguished="false"),
            InvalidParams,
            "reverse_distinguished must be true or false, got 'false'",
        ),
        (
            lambda: rational_invariants(diagram_from_json(README_DIAGRAM), -7, reverse_distinguished=1.0),
            InvalidParams,
            "reverse_distinguished must be true or false, got 1.0",
        ),
        *[
            (
                lambda w=w: transfer_witness(w),
                InvalidParams,
                f"witness must be a list or tuple of two nonnegative integers, got {w!r}",
            )
            for w in (5, (), ("a", 1), (-3, 1), (True, 1))
        ],
        (lambda: transfer_t_minus_max(inf), InvalidParams, "t_minus_max must be an integer, got inf"),
        (lambda: transfer_t_minus_max("x"), InvalidParams, "t_minus_max must be an integer, got 'x'"),
        (lambda: parse_front(5), InvalidParams, "text must be a string, got 5"),
        (lambda: parse_front(b"l 1 r 1"), InvalidParams, "text must be a string, got b'l 1 r 1'"),
        (lambda: named_example(5), InvalidParams, "tag must be a string, got 5"),
        (lambda: negative_torus_record("a", 3), InvalidParams, "p must be an integer, got 'a'"),
        (lambda: negative_torus_record(-5.0, 3), InvalidParams, "p must be an integer, got -5.0"),
        (lambda: positive_torus_record(2.0, 3), InvalidParams, "p must be an integer, got 2.0"),
        (lambda: load_records(None), InvalidParams, "path must be a str or an os.PathLike, got None"),
        (lambda: load_records(0), InvalidParams, "path must be a str or an os.PathLike, got 0"),
    ],
)
def test_a_value_argument_of_the_wrong_type_is_a_domain_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, DomainError)
    assert str(exc.value).startswith(message)


def test_a_well_formed_transfer_still_reads_its_bound():
    assert transfer_witness((2, 1)).details["tension_max"] == 2
    assert transfer_witness([0, 3]).verdict is Verdict.LOOSE_CERTIFIED
    assert transfer_t_minus_max(1).verdict is Verdict.LOOSE_CERTIFIED
