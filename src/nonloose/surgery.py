"""Contact (+1)/(-1)-surgery diagrams and rational invariants of a passive knot.

A diagram holds Legendrian components with integer (tb, rot), contact
coefficients +1 or -1 on the surgered components, pairwise linking numbers,
and one distinguished passive component.  Its rational invariants in the
surgered manifold are read off the solution x of M x = lkvec, one
``linalg.solve_exact`` with no inverse, determinant or Smith form formed; M
is the linking matrix of the surgered components (diagonal tb_i + coeff_i)
and lkvec their linking numbers with the distinguished one:

    tb_Q  = tb_0 - <lkvec, x>    (= tb_0 + det M0 / det M, M0 = M bordered by 0 and lkvec)
    rot_Q = rot_0 - <rotvec, x>
    r     = lcm of the denominators of x, the order of [lkvec] in Z^n / M Z^n

The stabilized dual of (+1)-surgery on one knot has a 1x1 M, and
``dual_invariants`` gives its invariants in closed form.  Only contact
coefficients +-1 are supported; the surgered contact manifold is unique for
those slopes.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .calculus import RationalData
from .errors import DiagramError, InvalidParams, MeridionalSlope, SingularMatrix, Value
from .fields import read_int, read_str
from .linalg import Matrix, solve_exact

COEFF_PLUS = "+1"
COEFF_MINUS = "-1"
COEFF_PASSIVE = "passive"
_COEFFS = (COEFF_PLUS, COEFF_MINUS, COEFF_PASSIVE)


class SurgeryComponent(Value):
    __slots__ = _fields = ("id", "tb", "rot", "coeff")

    def __init__(self, id: str, tb: int, rot: int, coeff: str):
        if coeff not in _COEFFS:
            raise DiagramError(f"component {id!r}: coeff must be one of {_COEFFS}, got {coeff!r}")
        tb, rot = read_int(tb, "component tb", DiagramError), read_int(rot, "component rot", DiagramError)
        self._set(id, tb, rot, coeff)


class SurgeryDiagram(Value):
    """Ordered components, symmetric linking matrix, one passive component."""

    __slots__ = _fields = ("components", "lk", "distinguished")

    def __init__(self, components: Sequence[SurgeryComponent], lk: Matrix, distinguished: str):
        components = tuple(components)
        lk = tuple(tuple(row) for row in lk)
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
            raise DiagramError("linking matrix shape must match the component count")
        for i, row in enumerate(lk):
            if read_int(row[i], "lk value", DiagramError):
                raise DiagramError(f"self-linking entry for {ids[i]!r} is not allowed")
            for j in range(i):
                if read_int(row[j], "lk value", DiagramError) != read_int(lk[j][i], "lk value", DiagramError):
                    raise DiagramError("linking matrix must be symmetric")
        self._set(components, lk, distinguished)

    @classmethod
    def build(
        cls,
        components: Sequence[SurgeryComponent],
        lk_pairs: Iterable[tuple[str, str, int]],
        distinguished: str,
    ) -> "SurgeryDiagram":
        """Assemble the symmetric linking matrix from sparse pairs (missing = 0)."""
        index = {c.id: i for i, c in enumerate(components)}
        n = len(components)
        lk = [[0] * n for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for ida, idb, value in lk_pairs:
            if ida not in index or idb not in index:
                raise DiagramError(f"linking pair names unknown component: {ida!r}, {idb!r}")
            i, j = index[ida], index[idb]
            if i == j:
                raise DiagramError(f"self-linking entry for {ida!r} is not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DiagramError(f"duplicate linking entry for ({ida!r}, {idb!r})")
            seen.add(key)
            lk[i][j] = lk[j][i] = value
        return cls(tuple(components), tuple(tuple(row) for row in lk), distinguished)


def _split(diag: SurgeryDiagram) -> tuple[int, tuple[int, ...]]:
    """The index of the passive component and those of the surgered ones, in diagram order."""
    passive = next(i for i, c in enumerate(diag.components) if c.coeff == COEFF_PASSIVE)
    return passive, tuple(i for i in range(len(diag.components)) if i != passive)


def linking_matrix(diag: SurgeryDiagram) -> Matrix:
    """Topological linking matrix over the surgered components only."""
    _, surgered = _split(diag)
    comps, lk = diag.components, diag.lk
    return tuple(
        tuple(
            comps[i].tb + (1 if comps[i].coeff == COEFF_PLUS else -1) if i == j else lk[i][j]
            for j in surgered
        )
        for i in surgered
    )


def _distinguished_lk(diag: SurgeryDiagram) -> tuple[int, ...]:
    passive, surgered = _split(diag)
    return tuple(diag.lk[passive][i] for i in surgered)


def rational_invariants(
    diag: SurgeryDiagram, chi: int, reverse_distinguished: bool = False
) -> RationalData:
    """Exact (tb_Q, rot_Q, r) of the distinguished component after surgery.

    All three come from x with M x = lkvec, solved with no inverse formed:
    tb_Q = tb_0 - <lkvec, x>, rot_Q = rot_0 - <rotvec, x>, r = lcm of the denominators of x.
    ``reverse_distinguished`` evaluates the other orientation of the passive
    component (rot_Q negates, tb_Q and r are unchanged).
    """
    lkvec = _distinguished_lk(diag)
    try:
        x = solve_exact(linking_matrix(diag), lkvec)
    except SingularMatrix:
        raise SingularMatrix("surgery linking matrix is singular") from None
    passive, surgered = _split(diag)
    comps = diag.components
    tb_q = comps[passive].tb - sum(lk * xi for lk, xi in zip(lkvec, x))
    rot_q = comps[passive].rot - sum(comps[i].rot * xi for i, xi in zip(surgered, x))
    order = lcm(*(xi.denominator for xi in x))
    return RationalData(Fraction(tb_q), Fraction(-rot_q if reverse_distinguished else rot_q), order, chi)


def dual_invariants(tb: int, rot: int, a: int, b: int, chi: int) -> RationalData:
    """Invariants of an (a, b)-stabilized push-off of the dual to (+1)-surgery.

    The diagram has two components: the surgered knot, with classical
    invariants (tb, rot) and coefficient +1, and its push-off, stabilized a
    times positively and b times negatively, as the passive component; their
    linking number is tb.  So M = [tb + 1] and lk = tb, and the formulas of
    ``rational_invariants`` close up:

        tb_Q  = (tb - a - b) - tb^2/(tb + 1)  = tb/(tb + 1) - a - b
        rot_Q = (rot + a - b) - rot tb/(tb + 1) = rot/(tb + 1) + a - b
        r     = |tb + 1|

    r is the order of tb in Z/(tb + 1), which is all of |tb + 1| because
    gcd(tb, tb + 1) = 1.
    """
    if tb == -1:
        raise MeridionalSlope("tb = -1 makes (+1)-surgery meridional (det M = 0)")
    if a < 0 or b < 0:
        raise InvalidParams("stabilization counts must be nonnegative")
    n = tb + 1
    return RationalData(Fraction(tb, n) - a - b, Fraction(rot, n) + a - b, abs(n), chi)


def diagram_from_json(doc: dict) -> SurgeryDiagram:
    """Load the documented JSON shape; missing lk pairs default to 0."""
    try:
        raw_components = doc["components"]
        distinguished = doc["distinguished"]
    except (TypeError, KeyError) as exc:
        raise DiagramError(f"missing required key: {exc}") from exc
    if not isinstance(raw_components, list) or not raw_components:
        raise DiagramError("'components' must be a non-empty list")
    comps = []
    for entry in raw_components:
        try:
            cid, tb, rot, coeff = entry["id"], entry["tb"], entry["rot"], entry["coeff"]
        except (TypeError, KeyError) as exc:
            raise DiagramError(f"bad component entry {entry!r}") from exc
        comps.append(
            SurgeryComponent(
                read_str(cid, "component id", DiagramError), tb, rot, read_str(coeff, "component coeff", DiagramError)
            )
        )
    raw_pairs = doc.get("lk", [])
    if not isinstance(raw_pairs, list):
        raise DiagramError("'lk' must be a list")
    pairs = []
    for entry in raw_pairs:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DiagramError(f"bad lk entry {entry!r}; expected [idA, idB, int]")
        ida, idb = read_str(entry[0], "lk id", DiagramError), read_str(entry[1], "lk id", DiagramError)
        pairs.append((ida, idb, entry[2]))
    return SurgeryDiagram.build(
        tuple(comps), pairs, read_str(distinguished, "distinguished", DiagramError)
    )


def diagram_to_json(diag: SurgeryDiagram) -> dict:
    pairs = []
    for i in range(len(diag.components)):
        for j in range(i + 1, len(diag.components)):
            if diag.lk[i][j]:
                pairs.append([diag.components[i].id, diag.components[j].id, diag.lk[i][j]])
    return {
        "components": [
            {"id": c.id, "tb": c.tb, "rot": c.rot, "coeff": c.coeff}
            for c in diag.components
        ],
        "lk": pairs,
        "distinguished": diag.distinguished,
    }
