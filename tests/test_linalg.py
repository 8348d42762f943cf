import ast
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from typing import get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_oracles
from linalg_oracles import (
    INFINITE,
    homological_order,
    identity,
    invert_exact,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from nonloose.errors import DomainError, InvalidParams, SingularMatrix, Value
from nonloose.linalg import det_exact


class TestDet:
    def test_examples(self):
        assert det_exact(((-14,),)) == -14
        assert det_exact(((0, -15), (-15, -14))) == -225
        assert det_exact(((0, 0), (0, 0))) == 0
        assert det_exact(()) == 1

    def test_fraction_entries(self):
        m = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 5)))
        assert det_exact(m) == Fraction(1, 10) - Fraction(1, 12)


class TestInvert:
    def test_single(self):
        assert invert_exact(((-14,),)) == ((Fraction(-1, 14),),)

    def test_singular(self):
        with pytest.raises(SingularMatrix):
            invert_exact(((0, 0), (0, 0)))


def check_snf(m):
    snf = smith_normal_form(m)
    assert mat_mul(mat_mul(snf.u, m), snf.v) == snf.d
    assert det_exact(snf.u) in (1, -1)
    assert det_exact(snf.v) in (1, -1)
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 if a == 0 else b % a == 0
    if len(m) == (len(m[0]) if m else 0):
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det_exact(m)) == prod
    return snf


class TestSmith:
    def test_identity(self):
        snf = smith_normal_form(identity(2))
        assert snf.d == identity(2)

    def test_sign_normalization(self):
        snf = smith_normal_form(((-14,),))
        assert snf.d == ((14,),)
        assert snf.u == ((-1,),) or snf.v == ((-1,),)

    def test_extended_matrix_example(self):
        snf = check_snf(((0, -15), (-15, -14)))
        assert snf.diagonal() == (1, 225)

    def test_rectangular(self):
        check_snf(((2, 4, 4),))
        check_snf(((2,), (4,), (4,)))

    def test_rejects_fractions(self):
        with pytest.raises(InvalidParams):
            smith_normal_form(((Fraction(1, 2),),))


class TestHomologicalOrder:
    def test_examples(self):
        assert homological_order(((-14,),), (-15,)) == 14
        assert homological_order(identity(3), (7, -2, 5)) == 1
        assert homological_order(((0,),), (1,)) is INFINITE
        assert homological_order(((0,),), (0,)) == 1
        assert homological_order((), ()) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(-30, 30).filter(lambda m: m != 0),
        st.integers(-30, 30),
    )
    def test_one_by_one_closed_form(self, m, l):
        from math import gcd

        assert homological_order(((m,),), (l,)) == abs(m) // gcd(abs(m), abs(l))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mat_mul(((1, 2),), ((1, 2),)),
        lambda: mat_vec(((1, 2),), (1,)),
        lambda: smith_normal_form(((1, 2), (3,))),
        lambda: smith_normal_form(((Fraction(1, 2),),)),
        lambda: homological_order(identity(2), (1,)),
    ],
    ids=["mat_mul", "mat_vec", "snf ragged", "snf fraction", "order length"],
)
def test_bad_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()


def is_data(obj) -> bool:
    """A type alias (``Matrix``, ``Entry``), a value class or an error class: nothing that computes."""
    return get_origin(obj) is not None or (isinstance(obj, type) and issubclass(obj, (Value, DomainError)))


def test_matrix_oracles_import_no_library_code():
    """The matrix oracles take only data types from ``nonloose``, so none of
    them runs the code it checks."""
    tree = ast.parse(Path(linalg_oracles.__file__).read_text(encoding="utf-8"))
    code = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            code += [alias.name for alias in node.names if alias.name.split(".")[0] == "nonloose"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nonloose":
            module = import_module(node.module)
            code += [
                f"{node.module}.{alias.name}" for alias in node.names if not is_data(getattr(module, alias.name, None))
            ]
    assert code == []
