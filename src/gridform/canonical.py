"""Corner occupancy strings, asymmetry detection, and canonical frames.

Every corner of the bounding rectangle contributes an occupancy bit string,
scanned along the shorter side with scan lines advancing along the longer
side. The lexicographically largest string picks out the leading corner and
fixes a coordinate system shared by all robots. A brute-force enumeration of
rectangle-preserving isometries serves as an independent symmetry oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .geometry import Isometry, Point, Rect, _from_matrix, bounding_rect


@dataclass(frozen=True)
class CornerString:
    """Occupancy string scanned from ``corner``.

    ``short_dir`` runs along the scanned side (None for a degenerate 1-wide
    side), ``long_dir`` is the direction in which scan lines advance. Bit
    ``i * short_len + j`` covers the point ``corner + i*long_dir + j*short_dir``.
    """

    corner: Point
    short_dir: Optional[Point]
    long_dir: Point
    bits: str


@dataclass(frozen=True)
class Frame:
    """Candidate canonical coordinate system.

    ``y_dir`` is None exactly when the configuration is collinear along
    ``x_dir`` and no Y-axis agreement exists.
    """

    origin: Point
    x_dir: Point
    y_dir: Optional[Point]


def _scan_specs(r: Rect):
    """All (corner, short_dir, long_dir, short_len, long_len) scans of r."""
    (x0, y0), (x1, y1) = r.min, r.max
    w, h = r.width_pts, r.height_pts
    if w == 1 and h == 1:
        return [((x0, y0), None, (1, 0), 1, 1)]
    if h == 1:  # horizontal line: one string per end
        return [
            ((x0, y0), None, (1, 0), 1, w),
            ((x1, y0), None, (-1, 0), 1, w),
        ]
    if w == 1:  # vertical line
        return [
            ((x0, y0), None, (0, 1), 1, h),
            ((x0, y1), None, (0, -1), 1, h),
        ]
    corners = [
        ((x0, y0), (0, 1), (1, 0)),
        ((x1, y0), (0, 1), (-1, 0)),
        ((x0, y1), (0, -1), (1, 0)),
        ((x1, y1), (0, -1), (-1, 0)),
    ]
    specs = []
    for corner, vdir, hdir in corners:
        if h <= w:  # vertical side is the short one
            specs.append((corner, vdir, hdir, h, w))
        if w <= h:  # square rectangles get both scans per corner
            specs.append((corner, hdir, vdir, w, h))
    return specs


def _scan_keys(occupied: frozenset):
    """(scan spec, key) for every scan of the bounding rectangle.

    A key is the sorted tuple of the indices ``i*short_len + j`` of the 1s.
    All scans of a rectangle have the same length and k ones, so the smaller
    key is the larger string. The index is linear in the point, so a key
    costs O(k log k) whatever the area.
    """
    out = []
    for spec in _scan_specs(bounding_rect(occupied)):
        (ox, oy), short_dir, (lx, ly), short_len, _ = spec
        sx, sy = short_dir or (0, 0)
        a, b = lx * short_len + sx, ly * short_len + sy
        c = -(a * ox + b * oy)
        out.append((spec, tuple(sorted([a * x + b * y + c
                                        for x, y in occupied]))))
    return out


def corner_strings(c: Iterable[Point]) -> list[CornerString]:
    """The dense occupancy string of every scan, derived from its key.
    O(area), so only ``analyze`` and the tests use it."""
    strings = []
    for (corner, sd, ld, sl, ll), key in _scan_keys(frozenset(c)):
        bits = ["0"] * (sl * ll)
        for i in key:
            bits[i] = "1"
        strings.append(CornerString(corner, sd, ld, "".join(bits)))
    return strings


def is_asymmetric(c: Iterable[Point]) -> bool:
    """True iff no two corner strings coincide (1x1 counts as asymmetric)."""
    keys = [key for _, key in _scan_keys(frozenset(c))]
    return len(keys) == len(set(keys))


def _frame_key(f: Frame):
    return (f.origin, f.x_dir, f.y_dir if f.y_dir is not None else (9, 9))


def canonical_frames(c: Iterable[Point]) -> list[Frame]:
    """One frame per corner string achieving the lexicographic maximum."""
    scans = _scan_keys(frozenset(c))
    best = min(key for _, key in scans)
    frames = [
        Frame(corner, long_dir, short_dir)
        for (corner, short_dir, long_dir, _, _), key in scans
        if key == best
    ]
    frames.sort(key=_frame_key)
    return frames


def effective_y_dir(f: Frame) -> Point:
    """Y direction used for moves off a collinear configuration.

    For an undetermined Y-axis the robot falls back to its own +y when the
    line is horizontal in its view (else +x); the two global outcomes are
    mirror images and similarity of the final pattern is unaffected.
    """
    if f.y_dir is not None:
        return f.y_dir
    return (0, 1) if f.x_dir[1] == 0 else (1, 0)


def to_frame_coords(c: Iterable[Point], f: Frame) -> frozenset:
    """Express ``c`` in the coordinate system of ``f`` (first quadrant)."""
    ox, oy = f.origin
    xx, xy = f.x_dir
    out = set()
    if f.y_dir is None:
        for px, py in c:
            dx, dy = px - ox, py - oy
            u = dx * xx + dy * xy
            if (dx, dy) != (u * xx, u * xy):
                raise ValueError("undetermined Y-axis with non-collinear points")
            out.add((u, 0))
        return frozenset(out)
    yx, yy = f.y_dir
    for px, py in c:
        dx, dy = px - ox, py - oy
        out.add((dx * xx + dy * xy, dx * yx + dy * yy))
    return frozenset(out)


def from_frame_coords(q: Point, f: Frame) -> Point:
    """Map frame coordinates back to the coordinates ``f`` was built in."""
    yx, yy = effective_y_dir(f)
    u, v = q
    return (f.origin[0] + u * f.x_dir[0] + v * yx,
            f.origin[1] + u * f.x_dir[1] + v * yy)


def frame_string(c: Iterable[Point], f: Frame) -> str:
    """The occupancy string of ``c`` scanned in frame ``f``."""
    cf = to_frame_coords(c, f)
    rf = bounding_rect(cf)
    n, m = rf.width_pts, rf.height_pts
    return "".join(
        "1" if (i, j) in cf else "0" for i in range(n) for j in range(m)
    )


def head_tail(c: Iterable[Point], f: Frame) -> tuple[Point, Point]:
    """Points of the first and last 1 of the frame's string, in the
    coordinates ``c`` was given in."""
    occupied = frozenset(c)
    if len(occupied) < 2:
        raise ValueError("head/tail require at least 2 points")
    cf = to_frame_coords(occupied, f)
    # x-major, then y ascending: exactly the string's scan order.
    order = sorted(cf)
    return from_frame_coords(order[0], f), from_frame_coords(order[-1], f)


def _rect_symmetry_maps(r: Rect):
    """Candidate non-identity isometries mapping the rectangle to itself,
    as (matrix-free) point maps together with their linear matrices."""
    (x0, y0), (x1, y1) = r.min, r.max
    sx, sy = x0 + x1, y0 + y1
    maps = [
        (lambda p: (sx - p[0], p[1]), (-1, 0, 0, 1)),       # vertical axis
        (lambda p: (p[0], sy - p[1]), (1, 0, 0, -1)),       # horizontal axis
        (lambda p: (sx - p[0], sy - p[1]), (-1, 0, 0, -1)),  # 180 deg
    ]
    if r.width_pts == r.height_pts:
        maps += [
            # main diagonal, anti-diagonal, 90 deg CW, 90 deg CCW
            (lambda p: (x0 + p[1] - y0, y0 + p[0] - x0), (0, 1, 1, 0)),
            (lambda p: (x0 + y1 - p[1], y0 + x1 - p[0]), (0, -1, -1, 0)),
            (lambda p: (x0 + p[1] - y0, y0 + x1 - p[0]), (0, 1, -1, 0)),
            (lambda p: (x0 + y1 - p[1], y0 + p[0] - x0), (0, -1, 1, 0)),
        ]
    return maps


def brute_force_symmetries(c: Iterable[Point]) -> list[Isometry]:
    """All non-trivial symmetries of ``c``, by exhausting the isometries
    that map its bounding rectangle to itself.

    For an axis-aligned collinear configuration (degenerate rectangle) the
    reflection across its own line fixes every scan and is trivial; any
    other point-fixing symmetry (a diagonal reflection of a diagonal
    configuration) still swaps the corner scans and counts.
    """
    occupied = frozenset(c)
    r = bounding_rect(occupied)
    degenerate = r.width_pts == 1 or r.height_pts == 1
    out = []
    for fmap, matrix in _rect_symmetry_maps(r):
        if all(fmap(p) in occupied for p in occupied):
            if degenerate and all(fmap(p) == p for p in occupied):
                continue
            tx, ty = fmap((0, 0))
            out.append(_from_matrix(matrix, tx, ty))
    return out
