import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonloose.diagram import (
    Direction,
    EventKind,
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
from nonloose.errors import (
    EmptyWord,
    InvalidParams,
    MultipleComponents,
    NonzeroFinalStrands,
    PositionOutOfRange,
    UnknownToken,
)
from examples import TREFOIL, UNKNOT
from wordgen import random_front_word

words = st.randoms(use_true_random=False).map(random_front_word)


def oriented(text, base=Direction.RIGHTWARD):
    return resolve_orientation(parse_front(text), base)


class TestParse:
    def test_minimal_unknot(self):
        word = parse_front(UNKNOT)
        assert len(word) == 2
        assert word.events[0].kind is EventKind.LEFT_CUSP

    def test_out_of_range_right_cusp(self):
        with pytest.raises(PositionOutOfRange) as exc:
            parse_front("l 1 ; r 2")
        assert exc.value.event_index == 1

    def test_trefoil_word_is_valid(self):
        assert len(parse_front(TREFOIL)) == 7

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            parse_front("l 1 ; z 1")
        with pytest.raises(UnknownToken):
            parse_front("l")
        with pytest.raises(UnknownToken):
            parse_front("l one")

    def test_empty(self):
        with pytest.raises(EmptyWord):
            parse_front("   # just a comment\n")

    def test_nonzero_final_strands(self):
        with pytest.raises(NonzeroFinalStrands):
            parse_front("l 1")

    def test_multiple_components(self):
        with pytest.raises(MultipleComponents):
            parse_front("l 1 ; r 1 ; l 1 ; r 1")
        # nested cusps whose inner pair only crosses itself trace two circles
        with pytest.raises(MultipleComponents):
            parse_front("l 1 ; l 2 ; x 2 ; x 2 ; x 2 ; r 2 ; r 1")

    def test_position_zero(self):
        with pytest.raises(PositionOutOfRange):
            parse_front("l 0 ; r 1")

    def test_comments_and_separators(self):
        word = parse_front("# a front\nl 1  # open\n; r 1\n")
        assert word == parse_front(UNKNOT)

    def test_serialize_round_trip(self):
        word = parse_front(TREFOIL)
        text = serialize_front(word)
        assert parse_front(text) == word
        assert serialize_front(parse_front(text)) == text


class TestOrientation:
    def test_unknot_counts(self):
        f = oriented(UNKNOT)
        assert f.writhe == 0
        assert f.up_cusps + f.down_cusps == 2

    def test_trefoil_counts(self):
        f = oriented(TREFOIL)
        assert f.writhe == 3
        assert (f.up_cusps, f.down_cusps) == (2, 2)

    def test_reversal_swaps_cusps(self):
        f = oriented(TREFOIL)
        g = oriented(TREFOIL, Direction.LEFTWARD)
        assert f.writhe == g.writhe
        assert (f.up_cusps, f.down_cusps) == (g.down_cusps, g.up_cusps)

    def test_reversal_is_involution(self):
        f = oriented(TREFOIL)
        assert reverse_orientation(reverse_orientation(f)) == f


class TestInvariants:
    def test_unknot(self):
        f = oriented(UNKNOT)
        assert (tb(f), rot(f)) == (-1, 0)

    def test_trefoil(self):
        f = oriented(TREFOIL)
        assert (tb(f), rot(f)) == (1, 0)

    def test_stabilized_unknot(self):
        f = oriented(UNKNOT)
        plus = stabilize_front(f, "+")
        minus = stabilize_front(f, "-")
        assert (tb(plus), rot(plus)) == (-2, 1)
        assert (tb(minus), rot(minus)) == (-2, -1)

    def test_stabilization_order_irrelevant(self):
        f = oriented(UNKNOT)
        a = stabilize_front(stabilize_front(f, "-"), "+")
        b = stabilize_front(stabilize_front(f, "+"), "-")
        assert (tb(a), rot(a)) == (-3, 0) == (tb(b), rot(b))

    def test_trefoil_negative_stab(self):
        f = stabilize_front(oriented(TREFOIL), "-")
        assert (tb(f), rot(f)) == (0, -1)

    def test_reverse_swaps_stabilization_signs(self):
        f = oriented(UNKNOT)
        a = stabilize_front(reverse_orientation(f), "+")
        b = reverse_orientation(stabilize_front(f, "-"))
        assert (tb(a), rot(a)) == (tb(b), rot(b)) == (-2, 1)

    def test_bad_sign(self):
        with pytest.raises(InvalidParams):
            stabilize_front(oriented(UNKNOT), "?")

class TestDestabilization:
    def test_found_on_stabilized_unknot(self):
        f = stabilize_front(oriented(UNKNOT), "+")
        pair = detect_syntactic_destabilization(f.word)
        assert pair is not None
        assert destabilize_front(f.word, pair) == parse_front(UNKNOT)

    def test_absent_on_unknot(self):
        assert detect_syntactic_destabilization(parse_front(UNKNOT)) is None

    def test_absent_on_trefoil(self):
        assert detect_syntactic_destabilization(parse_front(TREFOIL)) is None

    def test_bad_pair_rejected(self):
        with pytest.raises(InvalidParams):
            destabilize_front(parse_front(TREFOIL), (0, 1))

@settings(max_examples=150, deadline=None)
@given(words)
def test_cusp_parity_property(word):
    f = resolve_orientation(word)
    total = f.up_cusps + f.down_cusps
    assert total >= 2 and total % 2 == 0
