"""A function that takes a value reads it with a rule: an argument of the
wrong type is a ``DomainError`` whose message starts with the parameter's
label, never an ``AttributeError`` or ``TypeError`` from deep inside, and
never a value read as another (``"false"`` as true, ``0`` as standard input).

One table, ``ARGUMENTS``, holds a valid keyword call of every function the
package exports, and of ``linalg.solve_exact``, and names for each parameter
the candidate kinds that are well typed for it; each other kind is a case."""

import copy
import inspect
from fractions import Fraction
from math import inf

import pytest
from examples import README_DIAGRAM, STABILIZED, UNKNOT
from test_value_classes import CANDIDATES, VALUES, whole

import nonloose
from nonloose import linalg
from nonloose.calculus import ClassicalPair, RationalData
from nonloose.certify import Certificate, Depth2Witness, Reason, Verdict, transverse_transfer
from nonloose.diagram import Direction, FrontWord, OrientedFront, parse_front
from nonloose.errors import DiagramError, IncompatibleRelation, InvalidParams
from nonloose.surgery import SurgeryDiagram

# the candidates of the kinds a field has, and of those only an argument
# needs: a plain int, a negative one (ill typed where a count or a budget
# belongs), bytes, tuples of the wrong length or holding a bool, and a value
# of each class (but those of the classes a parameter takes)
KINDS = {
    **CANDIDATES,
    "int": (5, 0, 1),
    "negative int": (-1, -3, -5, -7),
    "bytes": (b"l 1 r 1",),
    "tuple": ((1,), (1, 2, 3), (True, 2)),
    "value": tuple(value for value, _ in VALUES),
}
INT, COUNT, BOOL, STR, NONE = {"int", "negative int"}, {"int"}, {"bool"}, {"str"}, set()
OF = {type(value): value for value, _ in VALUES}


def one_of(*classes):
    """A parameter that takes a value of one of ``classes``: the first one's
    value from ``VALUES``, and the classes, whose values are well typed."""
    return OF[classes[0]], set(classes)


DATA = one_of(ClassicalPair, RationalData)
# the oracle: for each function, each parameter in order with a valid value
# and the candidate kinds (and classes) that are well typed for it
ARGUMENTS = {
    "bennequin_null": {"p": one_of(ClassicalPair)},
    "bennequin_rational": {"d": one_of(RationalData)},
    "bundle_is_consistent": {"cert": one_of(Certificate)},
    "certificate_bounds": {"cert": one_of(Certificate)},
    "check_consistency": {"certs": ((OF[Certificate],), NONE)},
    "depth2_check": {"w": one_of(Depth2Witness), "is_stabilization": (False, BOOL), "complement_tight": (True, BOOL)},
    "depth_one_dual": {"is_stabilization": (True, BOOL), "complement_tight": (True, BOOL)},
    "order_bounds": {"a": (1, COUNT), "b": (0, COUNT), "loosened": (True, BOOL)},
    "order_zero_by_tb_bound": {"has_tb_lower_bound": (True, BOOL), "order_positive": (False, BOOL)},
    "possurg_depth_one": {"tb": (3, INT), "g_s": (2, COUNT)},
    "tension_certificate": {"data": DATA, "max_n": (8, COUNT), "side": ("both", NONE)},
    "tension_less_than_depth_search": {"p_max": (5, COUNT)},
    "tension_one_dual": {"tb": (-15, INT), "rot": (-2, INT), "chi": (-7, INT), "surgery_overtwisted": (True, BOOL)},
    "tension_refinement": {
        "is_positive_stab_of_pushoff": (True, BOOL), "contact_invariant_nonzero": (True, BOOL),
        "complement_tight": (True, BOOL),
    },
    "tension_upper_bound": {"data": DATA, "max_n": (8, COUNT), "side": ("both", NONE)},
    "transverse_bennequin": {"sl_q": (Fraction(1, 14), INT | {"Fraction"}), "chi": (-7, INT), "order_r": (14, INT)},
    "transverse_transfer": {
        "legendrian_cert": one_of(Certificate), "relation": ("pushoff", NONE),
        "is_negative_hopf_stabilization": (True, BOOL),
    },
    "unknot_verdict": {"p": one_of(ClassicalPair)},
    "destabilize_front": {"word": (parse_front(STABILIZED), {FrontWord}), "pair": ((1, 2), NONE)},
    "detect_syntactic_destabilization": {"word": one_of(FrontWord)},
    "parse_front": {"text": (UNKNOT, STR)},
    "resolve_orientation": {"word": one_of(FrontWord), "base_direction": (Direction.LEFTWARD, NONE)},
    "reverse_orientation": {"front": one_of(OrientedFront)},
    "rot": {"front": one_of(OrientedFront)},
    "serialize_front": {"word": one_of(FrontWord)},
    "stabilize_front": {"front": one_of(OrientedFront), "sign": ("+", NONE)},
    "tb": {"front": one_of(OrientedFront)},
    "load_records": {"path": ("my_records.json", STR)},  # a file of the work directory
    "named_example": {"tag": ("L2q(3)", STR)},
    "negative_torus_record": {"p": (-5, INT), "q": (3, INT)},
    "positive_torus_record": {"p": (2, INT), "q": (3, INT)},
    "unknot_record": {},
    "det_exact": {"m": (((1, 2), (3, 4)), {"int matrix"})},
    "solve_exact": {"m": (((1, 2), (3, 4)), {"int matrix"}), "v": ((1, 0), NONE)},
    "diagram_from_json": {"doc": (README_DIAGRAM, {"dict"})},
    "dual_invariants": {"tb": (-15, INT), "rot": (-2, INT), "a": (1, COUNT), "b": (0, COUNT), "chi": (-7, INT)},
    "linking_matrix": {"diag": one_of(SurgeryDiagram)},
    "rational_invariants": {"diag": one_of(SurgeryDiagram), "chi": (-7, INT), "reverse_distinguished": (False, BOOL)},
}
# the oracle: how a message starts where it is not with the parameter's name,
# formatted with the candidate as ``value`` (or a start by kind)
COUNTS, GENUS = "stabilization counts must be nonnegative", "smooth 4-ball genus must be nonnegative"
LABELS = {
    ("check_consistency", "certs"): whole("certs must be Certificate values"),
    ("order_bounds", "a"): {"negative int": COUNTS, "other": "a"},
    ("order_bounds", "b"): {"negative int": COUNTS, "other": "b"},
    ("possurg_depth_one", "g_s"): {"negative int": GENUS, "other": "g_s"},
    ("destabilize_front", "pair"): "events {value!r} do not form a removable zigzag",
    ("stabilize_front", "sign"): "sign must be '+' or '-', got {value!r}",
    ("det_exact", "m"): "matrix",
    ("solve_exact", "m"): "matrix",
    ("solve_exact", "v"): "vector",
    ("diagram_from_json", "doc"): "surgery diagram must be a JSON object",
    ("dual_invariants", "a"): {"negative int": COUNTS, "other": "a"},
    ("dual_invariants", "b"): {"negative int": COUNTS, "other": "b"},
}
ERRORS = {("transverse_transfer", "relation"): IncompatibleRelation, ("diagram_from_json", "doc"): DiagramError}

FUNCTIONS = {name: getattr(nonloose, name) for name in nonloose.__all__}
FUNCTIONS = {name: f for name, f in FUNCTIONS.items() if inspect.isfunction(f)} | {"solve_exact": linalg.solve_exact}


def test_the_table_names_every_parameter():
    """Every function and each of its parameters, in order, has a row, and
    no row or override names one that is gone."""
    assert {name: list(row) for name, row in ARGUMENTS.items()} == {
        name: list(inspect.signature(function).parameters) for name, function in FUNCTIONS.items()
    }
    assert {*LABELS, *ERRORS} <= {(name, param) for name, row in ARGUMENTS.items() for param in row}


def valid_call(name):
    return {param: value for param, (value, _) in ARGUMENTS[name].items()}


@pytest.mark.parametrize("name", ARGUMENTS)
def test_the_valid_call_runs(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    FUNCTIONS[name](**valid_call(name))


# every (function, parameter, kind) with the kind not well typed for the
# parameter: one case each, so a failure names the parameter and the kind
ILL_TYPED = [
    (name, param, kind)
    for name, row in ARGUMENTS.items()
    for param, (_, well_typed) in row.items()
    for kind in sorted(set(KINDS) - well_typed)
]


@pytest.mark.parametrize("name, param, kind", ILL_TYPED, ids=["-".join(case) for case in ILL_TYPED])
def test_an_ill_typed_argument_raises_a_domain_error(name, param, kind):
    """Every candidate of the kind, but a value of a class the parameter
    takes, in place of the parameter's value in the valid call."""
    classes = tuple(k for k in ARGUMENTS[name][param][1] if isinstance(k, type))
    start = LABELS.get((name, param), param)
    if isinstance(start, dict):
        start = start.get(kind, start["other"])
    for candidate in KINDS[kind]:
        if isinstance(candidate, classes):
            continue
        with pytest.raises(ERRORS.get((name, param), InvalidParams)) as exc:
            FUNCTIONS[name](**dict(valid_call(name), **{param: copy.deepcopy(candidate)}))
        assert str(exc.value).startswith(start.format(value=candidate)), candidate


# ---------------------------------------------------------------------------
# A certificate's details are read as a transfer needs them: its witness and
# its t_minus_max come from the certificate, not from a parameter.


def transfer(verdict, details, relation):
    """``transverse_transfer`` of a certificate built directly, as a caller may."""
    return transverse_transfer(Certificate(verdict, details, (Reason("rule", "note"),)), relation)


def transfer_witness(witness):
    return transfer(Verdict.TENSION_UPPER_BOUND, {"tension_max": 1, "witness": witness}, "approximation")


def transfer_t_minus_max(t_minus_max):
    return transfer(Verdict.SIGNED_TENSION_BOUND, {"t_minus_max": t_minus_max}, "pushoff")


@pytest.mark.parametrize(
    "call, message",
    [
        *[
            (lambda w=w: transfer_witness(w), f"witness must be a list or tuple of two nonnegative integers, got {w!r}")
            for w in (5, (), ("a", 1), (-3, 1), (True, 1))
        ],
        (lambda: transfer_t_minus_max(inf), "t_minus_max must be an integer, got inf"),
        (lambda: transfer_t_minus_max("x"), "t_minus_max must be an integer, got 'x'"),
    ],
)
def test_an_ill_typed_certificate_detail_is_a_domain_error(call, message):
    with pytest.raises(InvalidParams) as exc:
        call()
    assert str(exc.value).startswith(message)


def test_a_well_formed_transfer_still_reads_its_bound():
    assert transfer_witness((2, 1)).details["tension_max"] == 2
    assert transfer_witness([0, 3]).verdict is Verdict.LOOSE_CERTIFIED
    assert transfer_t_minus_max(1).verdict is Verdict.LOOSE_CERTIFIED
