import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridform.canonical import (
    Frame,
    _frame_key,
    brute_force_symmetries,
    canonical_frames,
    corner_strings,
    frame_string,
    head_tail,
    is_asymmetric,
    to_frame_coords,
)
from gridform.geometry import Isometry, apply_isometry, bounding_rect

from conftest import REF11, REF11_HEAD, REF11_STRING, REF11_TAIL

points_strategy = st.frozensets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8
)
isometry_strategy = st.builds(
    Isometry,
    rot=st.integers(0, 3),
    reflect=st.booleans(),
    tx=st.integers(-3, 3),
    ty=st.integers(-3, 3),
)

coord = st.integers(0, 40)


@st.composite
def wide_sparse_points(draw):
    """1-8 points in a box up to 41x41, with lines and squares forced."""
    shape = draw(st.sampled_from(["any", "row", "column", "square"]))
    if shape == "any":
        return draw(st.frozensets(st.tuples(coord, coord),
                                  min_size=1, max_size=8))
    if shape in ("row", "column"):
        fixed = draw(coord)
        along = draw(st.frozensets(coord, min_size=1, max_size=8))
        return frozenset((a, fixed) if shape == "row" else (fixed, a)
                         for a in along)
    side = draw(st.integers(1, 40))
    edge = st.integers(0, side)
    # one point on each side pins the bounding rectangle to side x side
    forced = {(0, draw(edge)), (side, draw(edge)),
              (draw(edge), 0), (draw(edge), side)}
    extra = draw(st.frozensets(st.tuples(edge, edge), max_size=8 - len(forced)))
    return frozenset(forced) | extra


def dense_reference_scans(c):
    """(frame_string, frame) for every frame that places ``c`` in the first
    quadrant with its longer side along x: the corner scans, enumerated
    from the dense strings alone."""
    c = frozenset(c)
    if len(c) == 1:
        f = Frame(next(iter(c)), (1, 0), None)
        return [(frame_string(c, f), f)]
    r = bounding_rect(c)
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    collinear = r.width_pts == 1 or r.height_pts == 1
    corners = {(x, y) for x in (r.min[0], r.max[0])
               for y in (r.min[1], r.max[1])}
    scans = []
    for origin in corners:
        for x_dir in units:
            for y_dir in [None] if collinear else units:
                if y_dir is not None and (x_dir[0] * y_dir[0]
                                          + x_dir[1] * y_dir[1]) != 0:
                    continue
                f = Frame(origin, x_dir, y_dir)
                try:
                    rf = bounding_rect(to_frame_coords(c, f))
                except ValueError:  # undetermined Y off the line
                    continue
                if rf.min == (0, 0) and rf.width_pts >= rf.height_pts:
                    scans.append((frame_string(c, f), f))
    return scans


TROMINO_2x2 = frozenset({(0, 0), (0, 1), (1, 1)})
LINE_1101 = frozenset({(0, 0), (1, 0), (3, 0)})


class TestCornerStrings:
    def test_ref11_maximum(self):
        strings = corner_strings(REF11)
        assert len(strings) == 4
        values = [cs.bits for cs in strings]
        assert max(values) == REF11_STRING
        assert values.count(REF11_STRING) == 1
        best = next(cs for cs in strings if cs.bits == REF11_STRING)
        assert best.corner == (0, 0)
        assert best.short_dir == (0, 1)
        assert best.long_dir == (1, 0)

    def test_line_has_two_strings(self):
        strings = corner_strings(LINE_1101)
        assert sorted(cs.bits for cs in strings) == ["1011", "1101"]

    def test_square_has_eight_strings(self):
        strings = corner_strings(TROMINO_2x2)
        assert len(strings) == 8
        values = [cs.bits for cs in strings]
        assert values.count("1110") == 2
        # both maximal scans start at the same corner
        assert {cs.corner for cs in strings if cs.bits == "1110"} == {(0, 1)}

    def test_single_point(self):
        strings = corner_strings({(3, -2)})
        assert len(strings) == 1
        assert strings[0].bits == "1"

    def test_bit_count_is_population(self):
        for cs in corner_strings(REF11):
            assert cs.bits.count("1") == len(REF11)
            assert len(cs.bits) == 48

    @given(c=points_strategy)
    def test_round_trip_decodes_the_configuration(self, c):
        for cs in corner_strings(c):
            decoded = set()
            for idx, bit in enumerate(cs.bits):
                if bit != "1":
                    continue
                if cs.short_dir is None:
                    i, j = idx, 0
                    sd = (0, 0)
                else:
                    r = bounding_rect(c)
                    short_len = (r.height_pts
                                 if cs.short_dir[0] == 0 else r.width_pts)
                    i, j = divmod(idx, short_len)
                    sd = cs.short_dir
                decoded.add((
                    cs.corner[0] + i * cs.long_dir[0] + j * sd[0],
                    cs.corner[1] + i * cs.long_dir[1] + j * sd[1],
                ))
            assert decoded == set(c)

    @settings(max_examples=60)
    @given(c=points_strategy, g=isometry_strategy)
    def test_string_multiset_is_isometry_invariant(self, c, g):
        ours = sorted(cs.bits for cs in corner_strings(c))
        theirs = sorted(cs.bits for cs in corner_strings(apply_isometry(g, c)))
        assert ours == theirs


class TestAsymmetry:
    def test_ref11(self):
        assert is_asymmetric(REF11)

    def test_two_points_always_symmetric(self):
        assert not is_asymmetric({(0, 0), (1, 0)})

    def test_l_tromino_diagonal_reflection(self):
        assert not is_asymmetric(TROMINO_2x2)

    def test_single_point_is_asymmetric(self):
        assert is_asymmetric({(5, 5)})

    @settings(max_examples=150)
    @given(c=points_strategy)
    def test_agrees_with_brute_force(self, c):
        assert is_asymmetric(c) == (not brute_force_symmetries(c))


class TestBruteForceSymmetries:
    def test_pair_lists_reflection_and_rotation(self):
        syms = brute_force_symmetries({(0, 0), (1, 0)})
        assert len(syms) == 2

    def test_ref11_empty(self):
        assert brute_force_symmetries(REF11) == []

    def test_single_point_empty(self):
        assert brute_force_symmetries({(0, 0)}) == []

    def test_line_reflection_along_itself_is_trivial(self):
        # 1101 is asymmetric as a configuration; the reflection about its
        # own line fixes every robot and must not be reported.
        assert brute_force_symmetries(LINE_1101) == []

    def test_diagonal_configuration_has_a_point_fixing_symmetry(self):
        # all points on y = x: the diagonal reflection fixes each of them
        # but swaps the corner scans, so it counts as a symmetry.
        syms = brute_force_symmetries({(0, 0), (1, 1), (3, 3)})
        assert len(syms) == 1
        assert all(syms[0].apply(p) == p for p in [(0, 0), (1, 1), (3, 3)])

    @given(c=points_strategy)
    def test_reported_symmetries_preserve_occupancy(self, c):
        r = bounding_rect(c)
        degenerate = r.width_pts == 1 or r.height_pts == 1
        for g in brute_force_symmetries(c):
            assert apply_isometry(g, c) == frozenset(c)
            if degenerate:
                assert any(g.apply(p) != p for p in c)


class TestCanonicalFrames:
    def test_ref11_unique_frame(self):
        frames = canonical_frames(REF11)
        assert frames == [Frame((0, 0), (1, 0), (0, 1))]

    def test_line_frame_undetermined_y(self):
        frames = canonical_frames(LINE_1101)
        assert frames == [Frame((0, 0), (1, 0), None)]

    def test_symmetric_square_two_frames(self):
        frames = canonical_frames(TROMINO_2x2)
        assert len(frames) == 2
        assert {f.origin for f in frames} == {(0, 1)}

    @settings(max_examples=100)
    @given(c=points_strategy)
    def test_frame_count_is_max_multiplicity(self, c):
        values = [cs.bits for cs in corner_strings(c)]
        assert len(canonical_frames(c)) == values.count(max(values))

    @given(c=points_strategy)
    def test_frame_string_is_the_maximum(self, c):
        best = max(cs.bits for cs in corner_strings(c))
        for f in canonical_frames(c):
            assert frame_string(c, f) == best


class TestWideSparseRectangles:
    """The sparse keys against the dense strings, on rectangles far wider
    than ``points_strategy`` reaches."""

    @settings(max_examples=300)
    @given(c=wide_sparse_points())
    def test_frames_are_the_dense_maxima(self, c):
        scans = dense_reference_scans(c)
        best = max(bits for bits, _ in scans)
        expected = sorted((f for bits, f in scans if bits == best),
                          key=_frame_key)
        assert canonical_frames(c) == expected
        assert (sorted(cs.bits for cs in corner_strings(c))
                == sorted(bits for bits, _ in scans))

    @settings(max_examples=300)
    @given(c=wide_sparse_points())
    def test_asymmetry_agrees_with_brute_force(self, c):
        assert is_asymmetric(c) == (not brute_force_symmetries(c))


class TestFrameCoords:
    def test_identity_position(self):
        c = frozenset({(0, 0), (0, 1), (1, 0)})
        f = Frame((0, 0), (1, 0), (0, 1))
        assert to_frame_coords(c, f) == c

    def test_translation(self):
        c = frozenset({(5, 5), (5, 6), (6, 5)})
        f = Frame((5, 5), (1, 0), (0, 1))
        assert to_frame_coords(c, f) == {(0, 0), (0, 1), (1, 0)}

    def test_reflected_line(self):
        f = Frame((3, 0), (-1, 0), None)
        assert to_frame_coords(LINE_1101, f) == {(0, 0), (2, 0), (3, 0)}

    def test_undetermined_y_requires_collinear(self):
        f = Frame((0, 0), (1, 0), None)
        with pytest.raises(ValueError, match="collinear"):
            to_frame_coords({(0, 0), (1, 1)}, f)

    @given(c=points_strategy)
    def test_canonical_coords_fill_first_quadrant_corner(self, c):
        f = canonical_frames(c)[0]
        cf = to_frame_coords(c, f)
        r = bounding_rect(cf)
        assert r.min == (0, 0)
        assert r.width_pts >= r.height_pts


class TestHeadTail:
    def test_ref11(self):
        f = canonical_frames(REF11)[0]
        assert head_tail(REF11, f) == (REF11_HEAD, REF11_TAIL)

    def test_line(self):
        f = canonical_frames(LINE_1101)[0]
        assert head_tail(LINE_1101, f) == ((0, 0), (3, 0))

    def test_requires_two_points(self):
        f = canonical_frames({(0, 0)})[0]
        with pytest.raises(ValueError):
            head_tail({(0, 0)}, f)

    @settings(max_examples=80)
    @given(c=points_strategy, g=isometry_strategy)
    def test_head_is_frame_covariant(self, c, g):
        if len(c) < 2 or not is_asymmetric(c):
            return
        img = apply_isometry(g, c)
        h1, _ = head_tail(c, canonical_frames(c)[0])
        h2, _ = head_tail(img, canonical_frames(img)[0])
        assert g.apply(h1) == h2
