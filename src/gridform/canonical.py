"""Corner occupancy strings, asymmetry detection, and canonical frames.

Every corner of the bounding rectangle contributes an occupancy bit string,
scanned along the shorter side with scan lines advancing along the longer
side. The lexicographically largest string picks out the leading corner and
fixes a coordinate system shared by all robots. A brute-force enumeration of
rectangle-preserving isometries serves as an independent symmetry oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional

from .geometry import Isometry, Point, bounding_rect


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


def _scan_specs(occupied: frozenset):
    """All (corner, x_row, y_row, short_len) scans of the bounding rectangle
    of ``occupied``. The scan's frame maps ``corner`` to the origin, its
    ``x_row`` (the direction scan lines advance in) to +x and its ``y_row``
    (the scanned side) to +y. A line has no scanned side: its y row is the
    local +y when the line is horizontal, else +x.

    The list is in mate order: ``specs[-1 - i]`` is the mate of
    ``specs[i]``, the scan from the opposite corner (the other end of a
    line) with the x row reversed, which reads the cells in reverse order.
    ``specs[0]`` and ``specs[-1]`` sit at the (min, min) and (max, max)
    corners."""
    try:
        xs, ys = zip(*occupied)
    except ValueError:
        raise ValueError("empty configuration") from None
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w == 1 or h == 1:  # a line: one string per end (a point has one)
        (dx, dy), y_row = ((1, 0), (0, 1)) if h == 1 else ((0, 1), (1, 0))
        ends = [((x0, y0), (dx, dy)), ((x1, y1), (-dx, -dy))]
        return [(end, d, y_row, 1) for end, d in ends[:min(w * h, 2)]]
    if h < w:  # the vertical side is the short one: scan it
        return [((x0, y0), (1, 0), (0, 1), h), ((x1, y0), (-1, 0), (0, 1), h),
                ((x0, y1), (1, 0), (0, -1), h),
                ((x1, y1), (-1, 0), (0, -1), h)]
    if w < h:
        return [((x0, y0), (0, 1), (1, 0), w), ((x1, y0), (0, 1), (-1, 0), w),
                ((x0, y1), (0, -1), (1, 0), w),
                ((x1, y1), (0, -1), (-1, 0), w)]
    # a square: both scans per corner
    return [((x0, y0), (1, 0), (0, 1), w), ((x0, y0), (0, 1), (1, 0), w),
            ((x1, y0), (-1, 0), (0, 1), w), ((x1, y0), (0, 1), (-1, 0), w),
            ((x0, y1), (0, -1), (1, 0), w), ((x0, y1), (1, 0), (0, -1), w),
            ((x1, y1), (0, -1), (-1, 0), w), ((x1, y1), (-1, 0), (0, -1), w)]


def _scan_key(occupied: frozenset, spec) -> tuple:
    """The sorted tuple of the indices ``i*short_len + j`` of the 1s.

    All scans of a rectangle have the same length and k ones, so the smaller
    key is the larger string. The index is linear in the point, so a key
    costs O(k log k) whatever the area. On a line every point has j = 0.
    """
    (ox, oy), (lx, ly), (sx, sy), short_len = spec
    a, b = lx * short_len + sx, ly * short_len + sy
    c = -(a * ox + b * oy)
    return tuple(sorted([a * x + b * y + c for x, y in occupied]))


def _scan_frame(spec) -> Isometry:
    """The frame of a scan: its corner to the origin, its rows to +x, +y."""
    (ox, oy), (xa, xb), (ya, yb), _ = spec
    return Isometry(xa, xb, ya, yb, -(xa * ox + xb * oy),
                    -(ya * ox + yb * oy))


def collinear(points: Iterable[Point]) -> bool:
    """True iff the set ``points`` lies on one grid row or one grid column
    (a single point does): such a set has no Y-axis agreement."""
    it = iter(points)
    try:
        x0, y0 = next(it)
    except StopIteration:
        raise ValueError("empty configuration") from None
    row = column = True
    for x, y in it:
        row = row and y == y0
        column = column and x == x0
        if not (row or column):
            return False
    return True


def corner_strings(c: Iterable[Point]) -> list[CornerString]:
    """The dense occupancy string of every scan. O(area), so only
    ``analyze`` and the tests use it."""
    occupied = frozenset(c)
    strings = []
    for spec in _scan_specs(occupied):
        corner, x_row, y_row, short_len = spec
        bits = frame_string(occupied, _scan_frame(spec))
        strings.append(CornerString(corner, y_row if short_len > 1 else None,
                                    x_row, bits))
    return strings


def is_asymmetric(c: Iterable[Point]) -> bool:
    """True iff ``c`` has a single canonical frame (1x1 counts as
    asymmetric). A non-trivial symmetry maps each scan to a different scan
    with the same key, so it doubles the maximal one; conversely two scans
    with equal keys differ by the symmetry that maps one frame onto the
    other."""
    return len(canonical_frames(c)) == 1


class Frames(list):
    """What ``canonical_frames`` returns: the list of frames, plus the
    winning scan's sorted ``key`` and its ``spec``. ``key`` is None when a
    lone occupied corner won without one; ``to_frame_coords`` builds it."""

    __slots__ = ("key", "spec")


def canonical_frames(c: Iterable[Point]) -> Frames:
    """One frame per corner string achieving the lexicographic maximum,
    ordered by origin, then by x direction. A string starting with a 1 beats
    every string starting with a 0, so only scans from occupied corners are
    keyed when there are any, and a lone one needs no key. A scan and its
    mate read the same cells in opposite orders, so of each pair whose
    corners are both occupied only one key is sorted: the other is its
    reversed complement, compared index by index up to the first
    difference and built only when it is the smaller.

    A frame maps ``c`` into its canonical coordinates: the scan's corner to
    the origin, its x row to +x and its y row to +y. A collinear ``c`` (or a
    single point) has no scanned side and no Y-axis agreement; its y row is
    the robot's own +y when the line is horizontal in its view (else +x),
    as ``_scan_specs`` sets it. The two global outcomes are mirror images
    and similarity of the final pattern is unaffected.
    """
    occupied = frozenset(c)
    specs = _scan_specs(occupied)
    n = len(specs)
    lead = [i for i in range(n) if specs[i][0] in occupied] or range(n)
    best = None
    if len(lead) > 1:
        (x0, y0), (x1, y1) = specs[0][0], specs[-1][0]
        top = (x1 - x0 + 1) * (y1 - y0 + 1) - 1  # the last index of a scan
        won = []
        for i in lead:
            j = n - 1 - i
            paired = j in lead
            if paired and j < i:
                continue  # already compared with its mate
            key, win = _scan_key(occupied, specs[i]), [i]
            if paired:  # the mate's key[u] is top - key[-1 - u]
                for u, v in enumerate(key):
                    w = top - key[-1 - u]
                    if w != v:
                        if w < v:  # the mate wins: build its key
                            key = tuple([top - e for e in reversed(key)])
                            win = [j]
                        break
                else:
                    win.append(j)
            if best is None or key < best:
                best, won = key, win
            elif key == best:
                won += win
        lead = won
        if len(lead) > 1:  # by corner, then by x row: unique per scan
            lead.sort(key=specs.__getitem__)
    frames = Frames([_scan_frame(specs[i]) for i in lead])
    frames.key, frames.spec = best, specs[lead[0]]
    return frames


def to_frame_coords(c: Iterable[Point], frames: Frames) -> list[Point]:
    """The image of ``c`` under ``frames[0]`` in scan order (x-major, then y
    ascending): the winning key decoded, each index ``x * short_len + y``."""
    spec = frames.spec
    return list(map(divmod, frames.key or _scan_key(c, spec),
                    repeat(spec[3])))


def from_frame_coords(q: Point, f: Isometry) -> Point:
    """Map frame coordinates back to the coordinates ``f`` was built in."""
    return f.inverse().apply(q)


def frame_string(c: Iterable[Point], f: Isometry) -> str:
    """The occupancy string of ``c`` scanned in frame ``f``."""
    cf = f.apply_set(c)
    rf = bounding_rect(cf)
    n, m = rf.width_pts, rf.height_pts
    return "".join(
        "1" if (i, j) in cf else "0" for i in range(n) for j in range(m)
    )


def head_tail(c: Iterable[Point], f: Isometry) -> tuple[Point, Point]:
    """Points of the first and last 1 of the frame's string, in the
    coordinates ``c`` was given in."""
    occupied = frozenset(c)
    if len(occupied) < 2:
        raise ValueError("head/tail require at least 2 points")
    cf = f.apply_set(occupied)
    # x-major, then y ascending: exactly the string's scan order.
    return from_frame_coords(min(cf), f), from_frame_coords(max(cf), f)


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
    (x0, y0), (x1, y1) = r.min, r.max
    candidates = [
        Isometry(-1, 0, 0, 1, x0 + x1, 0),         # vertical axis
        Isometry(1, 0, 0, -1, 0, y0 + y1),         # horizontal axis
        Isometry(-1, 0, 0, -1, x0 + x1, y0 + y1),  # 180 deg
    ]
    if r.width_pts == r.height_pts:
        candidates += [  # main diagonal, anti-diagonal, 90 deg CW, CCW
            Isometry(0, 1, 1, 0, x0 - y0, y0 - x0),
            Isometry(0, -1, -1, 0, x0 + y1, y0 + x1),
            Isometry(0, 1, -1, 0, x0 - y0, y0 + x1),
            Isometry(0, -1, 1, 0, x0 + y1, y0 - x0),
        ]
    degenerate = r.width_pts == 1 or r.height_pts == 1
    return [g for g in candidates if g.apply_set(occupied) == occupied
            and not (degenerate and all(g.apply(p) == p for p in occupied))]
