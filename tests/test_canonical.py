import ast
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridform import canonical
from gridform.canonical import (
    _box_scans,
    _scan_frame,
    _scan_key,
    _scans,
    canonical_frames,
    collinear,
    corner_strings,
    decode,
    from_frame_coords,
    is_asymmetric,
    to_frame_coords,
)
from gridform.cli import format_config, main
from gridform.geometry import LINEAR_CLASSES, Isometry, bounding_rect

from conftest import REF11, REF11_HEAD, REF11_STRING, REF11_TAIL
from oracles import brute_force_symmetries, frame_string

points_strategy = st.frozensets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8
)
isometry_strategy = st.builds(
    lambda lin, tx, ty: lin._replace(tx=tx, ty=ty),
    st.sampled_from(LINEAR_CLASSES),
    st.integers(-3, 3),
    st.integers(-3, 3),
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


@st.composite
def symmetric_points(draw):
    """The orbit of a small set under a linear class: symmetric, so it
    usually has several canonical frames."""
    g = draw(st.sampled_from(LINEAR_CLASSES))
    c = draw(st.frozensets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=1, max_size=4))
    orbit, img = set(c), g.apply_set(c)
    while not img <= orbit:
        orbit |= img
        img = g.apply_set(img)
    return frozenset(orbit)


@st.composite
def corner_points(draw):
    """A set whose bounding box is a known w x h box with exactly the drawn
    0-4 corners occupied: each side without a drawn corner is pinned by a
    point off its corners. Squares are included; a line's two ends are
    always occupied."""
    shape = draw(st.sampled_from(["rect", "square", "row", "column"]))
    if shape in ("row", "column"):
        n = draw(st.integers(1, 12))
        ends = {(0, 0), (n - 1, 0)}
        inner = draw(st.frozensets(st.integers(0, n - 1), max_size=5))
        line = ends | {(i, 0) for i in inner}
        return frozenset(line if shape == "row" else {(y, x) for x, y in line})
    w = draw(st.integers(3, 12))
    h = w if shape == "square" else draw(st.integers(3, 12))
    corners = [(0, 0), (w - 1, 0), (0, h - 1), (w - 1, h - 1)]
    chosen = draw(st.frozensets(st.sampled_from(corners)))
    points = set(chosen)
    for (x, y), (p, q) in [(corners[0], corners[1]), (corners[2], corners[3]),
                           (corners[0], corners[2]), (corners[1], corners[3])]:
        if (x, y) not in chosen and (p, q) not in chosen:
            t = draw(st.integers(1, max(p - x, q - y) - 1))  # off the corners
            points.add((x + t, y) if y == q else (x, y + t))
    cell = st.tuples(st.integers(0, w - 1), st.integers(0, h - 1))
    points |= draw(st.frozensets(cell.filter(lambda c: c not in corners),
                                 max_size=5))
    assert {c for c in corners if c in points} == chosen
    return frozenset(points)


def reference_frames(c):
    """The selection without the corner filter: every scan keyed, the
    minimal keys win, sorted by origin and then by x row."""
    c = frozenset(c)
    scans = [(spec, _scan_key(c, spec)) for spec in _scans(c)[0]]
    best = min(key for _, key in scans)
    frames = []
    for (ox, oy), (xa, xb), (ya, yb), _ in sorted(
            (spec for spec, key in scans if key == best),
            key=lambda spec: (spec[0], spec[1])):
        frames.append(Isometry(xa, xb, ya, yb, -(xa * ox + xb * oy),
                               -(ya * ox + yb * oy)))
    return frames


def origin(f):
    """The point a frame maps to (0, 0)."""
    return f.inverse().apply((0, 0))


def dense_reference_scans(c):
    """(frame_string, frame) for every frame that places ``c`` in the first
    quadrant with its longer side along x: the 8 rotation/reflection
    classes at each corner, kept by the dense strings alone. A line takes
    the y row +y when it lies along x, else +x; a single point has the one
    frame with x row +x."""
    c = frozenset(c)
    x0, y0, x1, y1 = bounding_rect(c)
    if len(c) == 1:
        f = Isometry(1, 0, 0, 1, -x0, -y0)
        return [(frame_string(c, f), f)]
    collinear = x0 == x1 or y0 == y1
    corners = {(x, y) for x in (x0, x1) for y in (y0, y1)}
    frames = set()
    for ox, oy in corners:
        for lin in LINEAR_CLASSES:
            xa, xb = lin.a, lin.b
            if collinear:
                ya, yb = (0, 1) if xb == 0 else (1, 0)
            else:
                ya, yb = lin.c, lin.d
            frames.add(Isometry(xa, xb, ya, yb, -(xa * ox + xb * oy),
                                -(ya * ox + yb * oy)))
    scans = []
    for f in frames:
        fx0, fy0, fx1, fy1 = bounding_rect(f.apply_set(c))
        if (fx0, fy0) == (0, 0) and fx1 - fx0 >= fy1 - fy0:
            scans.append((frame_string(c, f), f))
    return scans


TROMINO_2x2 = frozenset({(0, 0), (0, 1), (1, 1)})
LINE_1101 = frozenset({(0, 0), (1, 0), (3, 0)})


class TestCornerStrings:
    def test_ref11_maximum(self):
        strings = corner_strings(REF11)
        assert len(strings) == 4
        values = [bits for _, bits in strings]
        assert max(values) == REF11_STRING
        assert values.count(REF11_STRING) == 1
        (corner, x_row, y_row, short_len), _ = next(
            s for s in strings if s[1] == REF11_STRING)
        assert corner == (0, 0)
        assert short_len > 1 and y_row == (0, 1)  # the scanned side
        assert x_row == (1, 0)

    def test_line_has_two_strings(self):
        strings = corner_strings(LINE_1101)
        assert sorted(bits for _, bits in strings) == ["1011", "1101"]

    def test_square_has_eight_strings(self):
        strings = corner_strings(TROMINO_2x2)
        assert len(strings) == 8
        values = [bits for _, bits in strings]
        assert values.count("1110") == 2
        # both maximal scans start at the same corner
        assert {spec[0] for spec, bits in strings
                if bits == "1110"} == {(0, 1)}

    def test_single_point(self):
        strings = corner_strings({(3, -2)})
        assert len(strings) == 1
        assert strings[0][1] == "1"

    def test_bit_count_is_population(self):
        for _, bits in corner_strings(REF11):
            assert bits.count("1") == len(REF11)
            assert len(bits) == 48

    @given(c=points_strategy)
    def test_round_trip_decodes_the_configuration(self, c):
        for spec, bits in corner_strings(c):
            corner, long_dir, short_dir, short_len = spec
            decoded = set()
            for idx, bit in enumerate(bits):
                if bit != "1":
                    continue
                if short_len == 1:  # a line: no scanned side
                    i, j = idx, 0
                    sd = (0, 0)
                else:
                    x0, y0, x1, y1 = bounding_rect(c)
                    side = y1 - y0 + 1 if short_dir[0] == 0 else x1 - x0 + 1
                    assert side == short_len
                    i, j = divmod(idx, side)
                    sd = short_dir
                decoded.add((
                    corner[0] + i * long_dir[0] + j * sd[0],
                    corner[1] + i * long_dir[1] + j * sd[1],
                ))
            assert decoded == set(c)

    @settings(max_examples=60)
    @given(c=points_strategy, g=isometry_strategy)
    def test_string_multiset_is_isometry_invariant(self, c, g):
        ours = sorted(bits for _, bits in corner_strings(c))
        theirs = sorted(bits for _, bits in corner_strings(g.apply_set(c)))
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


class TestCollinear:
    @settings(max_examples=300)
    @given(c=st.one_of(points_strategy, wide_sparse_points(), corner_points(),
                       symmetric_points()))
    @example(c=LINE_1101)
    @example(c=frozenset({(2, 0), (2, 1), (2, 3)}))
    @example(c=frozenset({(3, -2)}))
    @example(c=frozenset({(0, 0), (1, 1)}))
    def test_is_a_one_wide_or_one_high_rectangle(self, c):
        x0, y0, x1, y1 = bounding_rect(c)
        assert collinear(c) == (x0 == x1 or y0 == y1)


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
        x0, y0, x1, y1 = bounding_rect(c)
        degenerate = x0 == x1 or y0 == y1
        for g in brute_force_symmetries(c):
            assert g.apply_set(c) == frozenset(c)
            if degenerate:
                assert any(g.apply(p) != p for p in c)


class TestCanonicalFrames:
    def test_ref11_unique_frame(self):
        frames = canonical_frames(REF11)
        assert frames == [Isometry(1, 0, 0, 1)]

    def test_line_frame_undetermined_y(self):
        # no Y-axis agreement on a line: the frame's y row is the local +y
        frames = canonical_frames(LINE_1101)
        assert frames == [Isometry(1, 0, 0, 1)]

    def test_symmetric_square_two_frames(self):
        frames = canonical_frames(TROMINO_2x2)
        assert len(frames) == 2
        assert {origin(f) for f in frames} == {(0, 1)}

    @settings(max_examples=100)
    @given(c=points_strategy)
    def test_frame_count_is_max_multiplicity(self, c):
        values = [bits for _, bits in corner_strings(c)]
        assert len(canonical_frames(c)) == values.count(max(values))

    @given(c=points_strategy)
    def test_frame_string_is_the_maximum(self, c):
        best = max(bits for _, bits in corner_strings(c))
        for f in canonical_frames(c):
            assert frame_string(c, f) == best

    @settings(max_examples=400)
    @given(c=st.one_of(corner_points(), points_strategy, wide_sparse_points(),
                       symmetric_points()))
    def test_only_occupied_corners_are_keyed(self, c):
        # a string that starts with a 1 beats every string that starts
        # with a 0, so dropping empty corners changes no selection
        assert canonical_frames(c) == reference_frames(c)

    @settings(max_examples=300)
    @given(c=st.one_of(points_strategy, wide_sparse_points(),
                       symmetric_points(), corner_points()))
    def test_every_frame_gives_the_same_image(self, c):
        # plan_moves computes the conditions and the rule on one image
        images = {f.apply_set(c) for f in canonical_frames(c)}
        assert len(images) == 1


class TestScanMates:
    """``canonical_frames`` takes the key of ``specs[-1 - i]``, the mate of
    ``specs[i]``, as the reversed complement of the key of ``specs[i]``."""

    @settings(max_examples=300)
    @given(c=st.one_of(corner_points(), points_strategy, wide_sparse_points()))
    @example(c=frozenset({(3, -2)}))
    @example(c=LINE_1101)
    @example(c=frozenset({(2, 0), (2, 1), (2, 3)}))
    @example(c=TROMINO_2x2)
    def test_mate_key_is_the_reversed_complement(self, c):
        x0, y0, x1, y1 = bounding_rect(c)
        top = (x1 - x0 + 1) * (y1 - y0 + 1) - 1
        specs = _scans(c)[0]
        for i, spec in enumerate(specs):
            mate = specs[-1 - i]
            key = _scan_key(c, spec)
            assert _scan_key(c, mate) == tuple(top - v for v in reversed(key))
            if len(specs) > 1:  # else the single point is its own mate
                (cx, cy), (lx, ly), _, _ = spec
                assert mate[0] == (x0 + x1 - cx, y0 + y1 - cy)
                assert mate[1] == (-lx, -ly)

    @pytest.mark.parametrize("c", [
        TROMINO_2x2,
        frozenset({(0, 0), (4, 0), (0, 4), (4, 4), (2, 1)}),
        frozenset({(1, 0), (4, 1), (0, 3), (3, 4)}),
    ])
    def test_each_square_scan_has_exactly_one_mate(self, c, monkeypatch):
        specs = _scans(c)[0]
        assert len(set(specs)) == 8
        x0, y0, x1, y1 = bounding_rect(c)
        for i, ((cx, cy), (lx, ly), _, _) in enumerate(specs):
            opposite = (x0 + x1 - cx, y0 + y1 - cy)
            mates = [j for j, s in enumerate(specs)
                     if s[0] == opposite and s[1] == (-lx, -ly)]
            assert mates == [7 - i]
        # keyed: one scan of each pair whose corners are both occupied
        keyed = []
        key = canonical._scan_key

        def counted_key(occupied, spec):
            keyed.append(spec)
            return key(occupied, spec)

        monkeypatch.setattr(canonical, "_scan_key", counted_key)
        frames = canonical_frames(c)
        lead = [i for i, s in enumerate(specs) if s[0] in c] or range(8)
        assert sorted(specs.index(s) for s in keyed) == \
            [i for i in lead if 7 - i not in lead or i < 7 - i]
        assert frames == reference_frames(c)


def reference_lead(c):
    """The parent's selection loop: of each pair whose corners are both
    occupied, one key is sorted and the mate's reversed complement is
    always built in full."""
    occupied = frozenset(c)
    specs = _scans(occupied)[0]
    n = len(specs)
    lead = [i for i in range(n) if specs[i][0] in occupied] or range(n)
    if len(lead) > 1:
        (x0, y0), (x1, y1) = specs[0][0], specs[-1][0]
        top = (x1 - x0 + 1) * (y1 - y0 + 1) - 1
        keys = {}
        for i in lead:
            mate = keys.get(n - 1 - i)
            keys[i] = (_scan_key(occupied, specs[i]) if mate is None
                       else tuple([top - v for v in reversed(mate)]))
        best = min(keys.values())
        lead = [i for i, key in keys.items() if key == best]
        if len(lead) > 1:
            lead.sort(key=specs.__getitem__)
    return [_scan_frame(specs[i]) for i in lead]


class TestLazyMate:
    """``canonical_frames`` compares a key with its mate's index by index
    and builds the mate's key only when the mate wins. It must choose the
    frames ``reference_lead`` chooses."""

    @pytest.mark.parametrize("c, frames, pairs", [
        ({(0, 0), (4, 2), (1, 1), (3, 2)}, 1, 1),
        ({(0, 0), (4, 2), (2, 1)}, 2, 1),
        ({(0, 0), (4, 0), (0, 2), (4, 2), (1, 0)}, 1, 2),
        ({(0, 0), (4, 0), (0, 2), (4, 2)}, 4, 2),
        ({(0, 0), (4, 0), (0, 4), (4, 4), (1, 0)}, 1, 4),
        ({(0, 0), (2, 0), (0, 2), (2, 2)}, 8, 4),
        (TROMINO_2x2, 2, 2),
        (LINE_1101, 1, 1),
        ({(0, 0), (1, 0), (3, 0), (4, 0)}, 2, 1),
        ({(2, 0), (2, 1), (2, 3)}, 1, 1),
        ({(3, -2)}, 1, 0),
        ({(1, 0), (4, 1), (0, 3), (3, 4)}, 4, 0),
    ], ids=["one-pair", "one-pair-tied", "two-pairs", "two-pairs-tied",
            "four-pairs", "four-pairs-tied", "tromino", "line", "line-tied",
            "column", "point", "no-corner"])
    def test_cases_match_the_reference(self, c, frames, pairs):
        """Each case and its half turn, which swaps every scan with its
        mate, so a pair is won once by the keyed scan and once by its
        mate."""
        c = frozenset(c)
        specs = _scans(c)[0]
        n = len(specs)
        lead = [i for i in range(n) if specs[i][0] in c]
        assert len([i for i in lead
                    if i < n - 1 - i and n - 1 - i in lead]) == pairs
        for case in (c, Isometry(-1, 0, 0, -1).apply_set(c)):
            got = canonical_frames(case)
            assert len(got) == frames
            assert got == reference_lead(case)

    @settings(max_examples=400)
    @given(c=st.one_of(corner_points(), points_strategy, wide_sparse_points(),
                       symmetric_points()))
    def test_frames_match_the_reference(self, c):
        assert canonical_frames(c) == reference_lead(c)


class TestWideSparseRectangles:
    """The sparse keys against the dense strings, on rectangles far wider
    than ``points_strategy`` reaches."""

    @settings(max_examples=300)
    @given(c=wide_sparse_points())
    def test_frames_are_the_dense_maxima(self, c):
        scans = dense_reference_scans(c)
        best = max(bits for bits, _ in scans)
        expected = sorted((f for bits, f in scans if bits == best),
                          key=lambda f: (origin(f), (f.a, f.b)))
        assert canonical_frames(c) == expected
        assert (sorted(bits for _, bits in corner_strings(c))
                == sorted(bits for bits, _ in scans))

    @settings(max_examples=300)
    @given(c=wide_sparse_points())
    def test_asymmetry_agrees_with_brute_force(self, c):
        assert is_asymmetric(c) == (not brute_force_symmetries(c))


class TestFrameCoords:
    def test_identity_position(self):
        c = frozenset({(0, 0), (0, 1), (1, 0)})
        f = Isometry(1, 0, 0, 1)
        assert f.apply_set(c) == c

    def test_translation(self):
        c = frozenset({(5, 5), (5, 6), (6, 5)})
        f = Isometry(1, 0, 0, 1, -5, -5)
        assert f.apply_set(c) == {(0, 0), (0, 1), (1, 0)}

    def test_reflected_line(self):
        f = Isometry(-1, 0, 0, 1, 3, 0)
        assert f.apply_set(LINE_1101) == {(0, 0), (2, 0), (3, 0)}

    def test_line_frame_carries_the_fallback_y_row(self):
        cases = [
            (LINE_1101, Isometry(1, 0, 0, 1)),  # horizontal: y row +y
            ({(2, 0), (2, 1), (2, 3)}, Isometry(0, 1, 1, 0, 0, -2)),  # +x
            ({(3, -2)}, Isometry(1, 0, 0, 1, -3, 2)),  # single point: +y
        ]
        for line, frame in cases:
            assert canonical_frames(line) == [frame]
            cf = frame.apply_set(line)
            assert {y for _, y in cf} == {0}
            assert {from_frame_coords(q, frame) for q in cf} == set(line)

    @pytest.mark.parametrize("lin", LINEAR_CLASSES)
    def test_from_frame_coords_inverts_every_frame(self, lin, rng):
        for _ in range(100):
            f = lin._replace(tx=rng.randint(-50, 50), ty=rng.randint(-50, 50))
            p = (rng.randint(-50, 50), rng.randint(-50, 50))
            assert from_frame_coords(f.apply(p), f) == p

    @given(c=points_strategy)
    def test_canonical_coords_fill_first_quadrant_corner(self, c):
        f = canonical_frames(c)[0]
        cf = f.apply_set(c)
        x0, y0, x1, y1 = bounding_rect(cf)
        assert (x0, y0) == (0, 0)
        assert x1 - x0 >= y1 - y0


def assert_decode_is_the_sorted_image(c):
    frames = canonical_frames(c)
    key = to_frame_coords(c, frames)
    assert list(key) == sorted(key)
    order = decode(key, frames.spec[3])
    for f in frames:
        assert order == sorted(f.apply_set(c)), (sorted(c), f)
    return frames


class TestDecode:
    """``to_frame_coords`` hands on the winning scan's key, and ``decode``
    turns it into the image under every canonical frame, in scan order,
    with no set mapped or sorted."""

    @pytest.mark.parametrize("c, n_frames", [
        ({(0, 0)}, 1),
        ({(-7, 10**9)}, 1),
        (LINE_1101, 1),  # horizontal
        ({(2, 0), (2, 1), (2, 3)}, 1),  # vertical
        ({(0, 0), (1, 0)}, 2),  # a symmetric line
        (TROMINO_2x2, 2),  # a square with a diagonal mirror
        ({(0, 0), (0, 2), (2, 0), (2, 2)}, 8),  # a fully symmetric square
        ({(1, 0), (4, 1), (0, 3), (3, 4)}, 4),  # a square, quarter turns
        (REF11, 1),  # wide
        ({(y, x) for x, y in REF11}, 1),  # tall
        ({(0, 0), (5, 0), (0, 2), (5, 2)}, 4),  # a symmetric rectangle
        ({(-3, -4), (-1, -4), (-3, -5), (2, -3)}, 1),  # negative
        ({(10**12, -10**12), (10**12 + 3, -10**12), (10**12, 2 - 10**12)},
         1),  # far off
    ])
    def test_cases(self, c, n_frames):
        assert len(assert_decode_is_the_sorted_image(c)) == n_frames

    @settings(max_examples=400)
    @given(c=st.one_of(points_strategy, wide_sparse_points(), corner_points(),
                       symmetric_points()),
           g=isometry_strategy, far=st.sampled_from([0, -10**6, 10**15]))
    def test_decode_is_the_sorted_image(self, c, g, far):
        g = g._replace(tx=g.tx + far, ty=g.ty - far)
        assert_decode_is_the_sorted_image(g.apply_set(c))

    def test_a_lone_occupied_corner_builds_no_key(self, monkeypatch):
        """``is_asymmetric`` reads only the frame count, so a lone winning
        scan is keyed by the decode alone."""
        c = frozenset({(0, 0), (1, 2), (4, 1)})  # only (0, 0) is a corner
        keyed = []
        key = canonical._scan_key

        def counted_key(occupied, spec):
            keyed.append(spec)
            return key(occupied, spec)

        monkeypatch.setattr(canonical, "_scan_key", counted_key)
        assert is_asymmetric(c) and keyed == []
        frames = canonical_frames(c)
        assert frames.key is None and keyed == []
        key = to_frame_coords(c, frames)
        assert keyed == [frames.spec]
        assert key == (0, 5, 13) and frames.spec[3] == 3
        assert decode(key, 3) == [(0, 0), (1, 2), (4, 1)]


def param_sets(test):
    """The point sets of a test parametrized with (points, ...) cases."""
    (mark,) = test.pytestmark
    return [frozenset(case[0]) for case in mark.args[1]]


class TestBoxCache:
    """The scans of a bounding box come from a bounded cache keyed by the
    box's position. The sets of ``TestLazyMate`` and ``TestDecode`` and
    their half turns, same shapes at other positions, choose the
    reference frames with the cache cold and warm, in either order."""

    def test_cold_and_warm_cache_choose_the_reference_frames(self):
        sets = (param_sets(TestLazyMate.test_cases_match_the_reference)
                + param_sets(TestDecode.test_cases))
        sets += [Isometry(-1, 0, 0, -1).apply_set(c) for c in sets]
        for cases in (sets, sets[::-1]):
            _box_scans.cache_clear()
            for _ in ("cold", "warm"):
                for c in cases:
                    frames = assert_decode_is_the_sorted_image(c)
                    assert frames == reference_lead(c)
                    scans = dense_reference_scans(c)
                    best = max(bits for bits, _ in scans)
                    assert frames == sorted(
                        (f for bits, f in scans if bits == best),
                        key=lambda f: (origin(f), (f.a, f.b)))
            info = _box_scans.cache_info()
            assert info.hits >= len(cases) and info.currsize <= 64

    def test_cached_specs_are_shared_tuples(self):
        c = frozenset({(0, 0), (4, 2), (2, 1)})
        specs = _scans(c)[0]
        assert _scans(set(c))[0] is specs  # a hit shares the entry
        assert isinstance(specs, tuple)
        assert all(isinstance(spec, tuple) for spec in specs)
        with pytest.raises(TypeError):
            specs[0] = specs[-1]



def assert_strings_are_the_dense_reference(c):
    strings = corner_strings(c)
    assert [spec for spec, _ in strings] == list(_scans(c)[0])
    for spec, bits in strings:
        assert bits == frame_string(c, _scan_frame(spec)), (sorted(c), spec)


class TestKeyBuiltStrings:
    """``corner_strings`` sets each string's 1s at its scan's key; the
    reference ``frame_string`` reads every cell of the box in the scan's
    frame. They agree on every scan, far off the origin too."""

    @pytest.mark.parametrize(
        "c", param_sets(TestDecode.test_cases)
        + [{(5, -1), (5, 0), (5, 4)}, {(10**12, 7)}, {(-10**12, 3)}])
    def test_cases(self, c):
        assert_strings_are_the_dense_reference(c)

    @settings(max_examples=300)
    @given(c=st.one_of(points_strategy, wide_sparse_points(), corner_points(),
                       symmetric_points()),
           g=isometry_strategy, far=st.sampled_from([0, -10**12, 10**12]))
    def test_every_scan_matches_the_dense_reference(self, c, g, far):
        g = g._replace(tx=g.tx + far, ty=g.ty - far)
        assert_strings_are_the_dense_reference(g.apply_set(c))

def analyzed_ends(c):
    """The head and the tail that ``gridform analyze`` prints for ``c``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_text(format_config(c))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["analyze", "--config", str(path)]) == 0
    ends = dict(line.split(": ", 1) for line in out.getvalue().splitlines()
                if line.startswith(("head: ", "tail: ")))
    return ast.literal_eval(ends["head"]), ast.literal_eval(ends["tail"])


class TestHeadTail:
    """``analyze`` reads the head and the tail off the ends of the winning
    key, decoded and mapped back through the first canonical frame."""

    def test_ref11(self):
        assert analyzed_ends(REF11) == (REF11_HEAD, REF11_TAIL)

    def test_line(self):
        assert analyzed_ends(LINE_1101) == ((0, 0), (3, 0))

    @settings(max_examples=80)
    @given(c=points_strategy, g=isometry_strategy)
    def test_head_is_frame_covariant(self, c, g):
        if len(c) < 2 or not is_asymmetric(c):
            return
        (h1, t1), (h2, t2) = analyzed_ends(c), analyzed_ends(g.apply_set(c))
        assert (g.apply(h1), g.apply(t1)) == (h2, t2)


class TestEmptyInput:
    @pytest.mark.parametrize("fn", [is_asymmetric, canonical_frames, collinear,
                                    corner_strings])
    def test_empty_configuration_is_rejected(self, fn):
        with pytest.raises(ValueError, match="empty configuration"):
            fn([])
