"""A function that takes a value reads it with a rule: an argument of the
wrong type is a ``DomainError`` naming the parameter and the class it must
be, never an ``AttributeError`` from deep inside."""

import pytest

from nonloose.calculus import ClassicalPair
from nonloose.certify import (
    bennequin_null,
    bennequin_rational,
    certificate_bounds,
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
from nonloose.errors import DomainError, FrontEditError, InvalidParams
from nonloose.surgery import linking_matrix, rational_invariants

STABILIZED = "l 1 ; l 1 ; r 2 ; r 1"  # a zigzag at events (1, 2)


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
        (lambda: resolve_orientation(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: tb(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: rot(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: reverse_orientation(5), InvalidParams, "front must be an OrientedFront, got 5"),
        (lambda: stabilize_front(5, "+"), FrontEditError, "front must be an OrientedFront, got 5"),
        (
            lambda: stabilize_front(parse_front(STABILIZED), "+"),
            FrontEditError,
            "front must be an OrientedFront, got FrontWord(",
        ),
        (lambda: serialize_front(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: detect_syntactic_destabilization(5), InvalidParams, "word must be a FrontWord, got 5"),
        (lambda: destabilize_front(5, (1, 2)), FrontEditError, "word must be a FrontWord, got 5"),
        (lambda: destabilize_front(parse_front(STABILIZED), 5), FrontEditError, "events 5 do not form"),
        (lambda: destabilize_front(parse_front(STABILIZED), (True, 2)), FrontEditError, "events (True, 2) do not"),
        (lambda: destabilize_front(parse_front(STABILIZED), (1, 2, 3)), FrontEditError, "events (1, 2, 3) do not"),
        (lambda: linking_matrix(5), InvalidParams, "diag must be a SurgeryDiagram, got 5"),
        (lambda: rational_invariants(5, -1), InvalidParams, "diag must be a SurgeryDiagram, got 5"),
    ],
)
def test_a_value_argument_of_the_wrong_type_is_a_domain_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert isinstance(exc.value, DomainError)
    assert str(exc.value).startswith(message)
