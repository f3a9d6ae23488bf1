import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridform.geometry import (
    LINEAR_CLASSES,
    Isometry,
    bounding_rect,
    similar,
)

points_strategy = st.frozensets(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=6
)
isometry_strategy = st.builds(
    lambda lin, tx, ty: lin._replace(tx=tx, ty=ty),
    st.sampled_from(LINEAR_CLASSES),
    st.integers(-5, 5),
    st.integers(-5, 5),
)


class TestBoundingRect:
    def test_single_point(self):
        assert bounding_rect({(0, 0)}) == (0, 0, 0, 0)

    def test_ref11_is_8_by_6(self, ref11):
        x0, y0, x1, y1 = bounding_rect(ref11)
        assert (x1 - x0 + 1, y1 - y0 + 1) == (8, 6)

    def test_collinear_pair(self):
        # (x0, y0) = (2, 3), (x1, y1) = (5, 3): 4 points wide, 1 high
        assert bounding_rect({(2, 3), (5, 3)}) == (2, 3, 5, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty configuration"):
            bounding_rect(frozenset())


class TestIsometry:
    def test_identity(self):
        c = frozenset({(1, 2), (-3, 0)})
        assert LINEAR_CLASSES[0].apply_set(c) == c

    def test_quarter_turn(self):
        g = Isometry(0, -1, 1, 0)
        assert g.apply_set({(1, 0)}) == {(0, 1)}

    def test_linear_classes_order_is_pinned(self):
        """Adversaries draw robot frames from LINEAR_CLASSES by index, so
        its order is part of every seeded run: rotations by 0-3 quarter
        turns, then the same after the reflection x -> -x."""
        images = [(g.apply((1, 0)), g.apply((0, 1))) for g in LINEAR_CLASSES]
        assert images == [
            ((1, 0), (0, 1)), ((0, 1), (-1, 0)),
            ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
            ((-1, 0), (0, 1)), ((0, -1), (-1, 0)),
            ((1, 0), (0, -1)), ((0, 1), (1, 0)),
        ]

    def test_reflect_then_translate(self):
        g = Isometry(-1, 0, 0, 1, tx=3)
        assert g.apply_set({(0, 0), (1, 0)}) == {(2, 0), (3, 0)}

    @given(g=isometry_strategy, c=points_strategy)
    def test_inverse_round_trips(self, g, c):
        assert g.inverse().apply_set(g.apply_set(c)) == c

    @given(g=isometry_strategy, c=points_strategy)
    def test_bounding_rect_covariant(self, g, c):
        img = g.apply_set(c)
        x0, y0, x1, y1 = bounding_rect(c)
        corners = {(x0, y0), (x1, y1), (x0, y1), (x1, y0)}
        expected = bounding_rect(g.apply_set(corners))
        assert bounding_rect(img) == expected


class TestSimilar:
    def test_identity_witness(self, ref11):
        g = similar(ref11, ref11)
        assert g is not None
        assert g.apply_set(ref11) == ref11

    def test_rotated_tromino(self):
        a = frozenset({(0, 0), (0, 1), (1, 0)})
        b = Isometry(0, -1, 1, 0).apply_set(a)
        g = similar(a, b)
        assert g is not None
        assert g.apply_set(a) == b

    def test_distinct_shapes(self):
        a = frozenset({(0, 0), (1, 0), (2, 0)})
        b = frozenset({(0, 0), (1, 0), (1, 1)})
        assert similar(a, b) is None

    def test_size_mismatch(self):
        assert similar({(0, 0)}, {(0, 0), (1, 0)}) is None

    def test_empty_sets_are_similar_by_the_identity(self):
        assert similar(set(), frozenset()) is LINEAR_CLASSES[0]

    @given(c=points_strategy)
    def test_reflexive(self, c):
        assert similar(c, c) is not None

    @given(c=points_strategy, g=isometry_strategy)
    def test_symmetric_with_witness_inverse(self, c, g):
        b = g.apply_set(c)
        w = similar(c, b)
        assert w is not None
        assert w.inverse().apply_set(b) == c

    @given(a=points_strategy, g1=isometry_strategy, g2=isometry_strategy)
    def test_transitive_via_composition(self, a, g1, g2):
        b = g1.apply_set(a)
        c = g2.apply_set(b)
        w1, w2 = similar(a, b), similar(b, c)
        assert w2.apply_set(w1.apply_set(a)) == c

    @settings(max_examples=50)
    @given(a=points_strategy, b=points_strategy)
    def test_matches_exhaustive_search(self, a, b):
        """Self-oracle: the 8-class check agrees with trying every class
        with an explicitly searched translation."""
        found = None
        span = range(-10, 11)
        for lin in LINEAR_CLASSES:
            img = lin.apply_set(a)
            if len(img) != len(b):
                continue
            # Any translation matching one point of b is a candidate.
            anchor = next(iter(img))
            for q in b:
                g = lin._replace(tx=q[0] - anchor[0], ty=q[1] - anchor[1])
                if g.apply_set(a) == b:
                    found = g
                    break
            if found:
                break
        assert (similar(a, b) is not None) == (found is not None)
