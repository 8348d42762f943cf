"""Contact (+1)/(-1)-surgery diagrams and rational invariants of a passive knot.

A diagram holds Legendrian components with integer (tb, rot), contact
coefficients +1 or -1 on the surgered components, pairwise linking numbers,
and one distinguished passive component.  Its rational invariants in the
surgered manifold are read off the solution x of M x = lkvec, one
``linalg.solve_exact`` with no inverse, determinant or Smith form formed; M
is the linking matrix of the surgered components (diagonal tb_i + coeff_i)
and lkvec their linking numbers with the distinguished one.  With r the lcm
of the denominators of x, y = r x is an integer vector, and

    tb_Q  = (r tb_0 - <lkvec, y>) / r    (= tb_0 + det M0 / det M, M0 = M bordered by 0 and lkvec)
    rot_Q = (r rot_0 - <rotvec, y>) / r
    r     = the order of [lkvec] in Z^n / M Z^n

so the inner products are taken over the integers and each of tb_Q and
rot_Q is one ``Fraction``.

The stabilized dual of (+1)-surgery on one knot has a 1x1 M, and its
invariants have a closed form with no matrix in it: ``dual_invariants``,
which lives in ``nonloose.calculus``.  This module re-imports it, so
``nonloose.surgery.dual_invariants`` still resolves.  Only contact
coefficients +-1 are supported; the surgered contact manifold is unique for
those slopes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

# dual_invariants is not used here: bench/workloads.py and bench/tracing.py reach it as surgery.dual_invariants
from .calculus import RationalData, dual_invariants
from .errors import DiagramError, InvalidParams, SingularMatrix, Value, member, members, read_bool, read_int, read_str
from .linalg import Matrix, solve_exact

COEFF_PLUS = "+1"
COEFF_MINUS = "-1"
COEFF_PASSIVE = "passive"
_COEFFS = (COEFF_PLUS, COEFF_MINUS, COEFF_PASSIVE)


class SurgeryComponent(Value):
    __slots__ = _fields = ("id", "tb", "rot", "coeff")
    _rules = {"id": read_str, "coeff": read_str, "tb": read_int, "rot": read_int}
    _error = DiagramError
    _labels = {name: f"component {name}" for name in _fields}

    def __init__(self, id: str, tb: int, rot: int, coeff: str):
        self._set(id, tb, rot, coeff)
        if coeff not in _COEFFS:
            raise DiagramError(f"component {id!r}: coeff must be one of {_COEFFS}, got {coeff!r}")
        # tb + rot of a Legendrian knot in (S^3, xi_std) is odd
        if (tb + rot) % 2 == 0:
            raise DiagramError(f"component {id!r}: tb + rot must be odd, got tb {tb} and rot {rot}")


_SHAPE = "linking matrix shape must match the component count"


def _read_matrix(value, what, error) -> Matrix:
    """The rule of a matrix of integers, a tuple or a list of rows that are
    each a tuple or a list, stored as a tuple of rows."""
    if not isinstance(value, (tuple, list)):
        raise error(f"{what} must be a tuple or a list of rows, got {value!r}")
    rows = []
    for row in value:
        if not isinstance(row, (tuple, list)):
            raise error(f"{what} row must be a tuple or a list, got {row!r}")
        # a plain int, as nearly every entry is, needs no call to the rule
        rows.append(tuple([x if type(x) is int else read_int(x, f"{what} value", error) for x in row]))
    return tuple(rows)


class SurgeryDiagram(Value):
    """Ordered components, symmetric linking matrix, one passive component."""

    __slots__ = _fields = ("components", "lk", "distinguished")
    _rules = {"distinguished": read_str, "components": members(SurgeryComponent), "lk": _read_matrix}
    _error = DiagramError
    _labels = {"components": "a diagram's components"}

    def __init__(self, components: Sequence[SurgeryComponent], lk: Matrix, distinguished: str):
        self._set(components, lk, distinguished)
        components, lk = self.components, self.lk
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise DiagramError("component ids must be unique")
        if distinguished not in ids:
            raise DiagramError(f"distinguished id {distinguished!r} not present")
        passive = [c.id for c in components if c.coeff == COEFF_PASSIVE]
        if passive != [distinguished]:
            raise DiagramError("exactly the distinguished component must carry the passive coefficient")
        n = len(components)
        if len(lk) != n or any(len(row) != n for row in lk):
            raise DiagramError(_SHAPE)
        for i, row in enumerate(lk):
            if row[i]:
                raise DiagramError(f"self-linking entry for {ids[i]!r} is not allowed")
            if any(row[j] != lk[j][i] for j in range(i)):
                raise DiagramError("linking matrix must be symmetric")

    @classmethod
    def build(
        cls, components: Sequence[SurgeryComponent], lk_pairs: Sequence[tuple[str, str, int]], distinguished: str
    ) -> "SurgeryDiagram":
        """Assemble the symmetric linking matrix from a list of [idA, idB, int] pairs (missing = 0)."""
        components = cls._rules["components"](components, cls._labels["components"], DiagramError)
        if not isinstance(lk_pairs, (list, tuple)):
            raise DiagramError(f"'lk' must be a list, got {lk_pairs!r}")
        index = {c.id: i for i, c in enumerate(components)}
        n = len(components)
        lk = [[0] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for entry in lk_pairs:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise DiagramError(f"bad lk entry {entry!r}; expected [idA, idB, int]")
            ida, idb, value = entry
            try:
                i, j = index[ida], index[idb]
            except (KeyError, TypeError):  # TypeError: an id that cannot be a key
                raise DiagramError(f"linking pair names unknown component: {ida!r}, {idb!r}") from None
            if i == j:
                raise DiagramError(f"self-linking entry for {ida!r} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DiagramError(f"duplicate linking entry for ({ida!r}, {idb!r})")
            seen.add(key)
            lk[i][j] = lk[j][i] = value
        return cls(components, lk, distinguished)


_read_diagram = member(SurgeryDiagram)


def _linking_system(
    diag: SurgeryDiagram,
) -> tuple[SurgeryComponent, tuple[SurgeryComponent, ...], Matrix, tuple[int, ...]]:
    """The passive component, the surgered ones in diagram order, their linking
    matrix M and their linking numbers with the passive one, from one split."""
    comps, lk = diag.components, diag.lk
    p = next(i for i, c in enumerate(comps) if c.coeff == COEFF_PASSIVE)
    surgered = comps[:p] + comps[p + 1 :]
    m = []
    for k, (c, row) in enumerate(zip(surgered, lk[:p] + lk[p + 1 :])):
        row = list(row[:p] + row[p + 1 :])
        row[k] = c.tb + (1 if c.coeff == COEFF_PLUS else -1)
        m.append(tuple(row))
    return comps[p], surgered, tuple(m), lk[p][:p] + lk[p][p + 1 :]


def linking_matrix(diag: SurgeryDiagram) -> Matrix:
    """Topological linking matrix over the surgered components only."""
    return _linking_system(_read_diagram(diag, "diag", InvalidParams))[2]


def rational_invariants(
    diag: SurgeryDiagram, chi: int, reverse_distinguished: bool = False
) -> RationalData:
    """Exact (tb_Q, rot_Q, r) of the distinguished component after surgery.

    All three come from x with M x = lkvec, solved with no inverse formed: r is
    the lcm of the denominators of x, y = r x is an integer vector, and
    tb_Q = (r tb_0 - <lkvec, y>)/r, rot_Q = (r rot_0 - <rotvec, y>)/r.
    ``reverse_distinguished``, ``True`` or ``False``, evaluates the other
    orientation of the passive component (rot_Q negates, tb_Q and r are
    unchanged); any other value raises ``InvalidParams``.
    """
    diag = _read_diagram(diag, "diag", InvalidParams)
    read_bool(reverse_distinguished, "reverse_distinguished", InvalidParams)
    passive, surgered, m, lkvec = _linking_system(diag)
    try:
        x = solve_exact(m, lkvec)
    except SingularMatrix:
        raise SingularMatrix("surgery linking matrix is singular") from None
    order = lcm(*(xi.denominator for xi in x))
    y = [xi.numerator * (order // xi.denominator) for xi in x]
    tb_q = order * passive.tb - sum(lk * yi for lk, yi in zip(lkvec, y))
    rot_q = order * passive.rot - sum(c.rot * yi for c, yi in zip(surgered, y))
    return RationalData(
        Fraction(tb_q, order), Fraction(-rot_q if reverse_distinguished else rot_q, order), order, chi
    )


_DIAGRAM_KEYS = frozenset({"components", "lk", "distinguished"})
_COMPONENT_KEYS = frozenset({"id", "tb", "rot", "coeff"})


def diagram_from_json(doc: dict) -> SurgeryDiagram:
    """Load the documented JSON shape; missing lk pairs default to 0.  A
    document that is not an object, or a key the shape does not name, in the
    document or in a component, raises ``DiagramError``."""
    if not isinstance(doc, dict):
        raise DiagramError(f"surgery diagram must be a JSON object, got {type(doc).__name__}")
    try:
        raw_components = doc["components"]
        distinguished = doc["distinguished"]
    except KeyError as exc:
        raise DiagramError(f"missing required key: {exc}") from exc
    unknown = doc.keys() - _DIAGRAM_KEYS
    if unknown:
        raise DiagramError(f"unknown diagram keys: {sorted(unknown)}")
    if not isinstance(raw_components, list) or not raw_components:
        raise DiagramError("'components' must be a non-empty list")
    comps = []
    for entry in raw_components:
        try:
            cid, tb, rot, coeff = entry["id"], entry["tb"], entry["rot"], entry["coeff"]
        except (TypeError, KeyError) as exc:
            raise DiagramError(f"bad component entry {entry!r}") from exc
        unknown = entry.keys() - _COMPONENT_KEYS
        if unknown:
            raise DiagramError(f"component {cid!r}: unknown keys: {sorted(unknown)}")
        comps.append(SurgeryComponent(cid, tb, rot, coeff))
    return SurgeryDiagram.build(comps, doc.get("lk", []), distinguished)
