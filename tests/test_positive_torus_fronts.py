"""The positive torus records against fronts: the closed p-braid front of
T(p, q), built from cusps and crossings alone, has tb = max_tb and the one
rotation number of ``positive_torus_record(p, q)``."""

from math import gcd

import pytest

from nonloose.diagram import parse_front, resolve_orientation, rot, tb
from nonloose.knotdata import positive_torus_record

PAIRS = [(p, q) for p in range(2, 9) for q in range(2, 14) if gcd(p, q) == 1]


def closed_braid_front(p, q):
    """``l 1 … l p``, then q rounds of ``x p+1 … x 2p-1``, then ``r p … r 1``."""
    cusps = [f"l {i}" for i in range(1, p + 1)]
    crossings = [f"x {j}" for _ in range(q) for j in range(p + 1, 2 * p)]
    closing = [f"r {i}" for i in range(p, 0, -1)]
    return parse_front(" ".join(cusps + crossings + closing))


def test_grid_size():
    assert len(PAIRS) == 51


@pytest.mark.parametrize("p, q", PAIRS)
def test_front_matches_record(p, q):
    front = resolve_orientation(closed_braid_front(p, q))
    record = positive_torus_record(p, q)
    assert [tb(front)] == [record.max_tb] and [rot(front)] == sorted(record.rot_at_max_tb)
