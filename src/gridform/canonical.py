"""Corner occupancy strings, asymmetry detection, and canonical frames.

Every corner of the bounding rectangle contributes an occupancy bit string,
scanned along the shorter side with scan lines advancing along the longer
side. The lexicographically largest string picks out the leading corner and
fixes a coordinate system shared by all robots. The winning string's sorted
scan indices (its key) are the canonical image that the planner reads.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional

from .geometry import Isometry, Point, bounding_rect


@lru_cache(maxsize=64)
def _box_scans(x0: int, y0: int, x1: int, y1: int) -> tuple:
    """``(specs, built)`` for the box [x0, x1] x [y0, y1]: its scan specs
    and a dict of scan index -> frame, filled in the first time the scan
    wins. A run moves one robot at a time, so its boxes repeat: 64 entries
    hold the boxes of a run's recent plans.

    ``specs`` holds all (corner, x_row, y_row, short_len) scans of the box.
    The scan's frame maps ``corner`` to the origin, its ``x_row`` (the
    direction scan lines advance in) to +x and its ``y_row`` (the scanned
    side) to +y. A line has no scanned side: its y row is the local +y when
    the line is horizontal, else +x. The tuple is in mate order:
    ``specs[-1 - i]`` is the mate of ``specs[i]``, the scan from the
    opposite corner (the other end of a line) with the x row reversed,
    which reads the cells in reverse order. ``specs[0]`` and ``specs[-1]``
    sit at the (min, min) and (max, max) corners."""
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w == 1 or h == 1:  # a line: one string per end (a point has one)
        (dx, dy), y_row = ((1, 0), (0, 1)) if h == 1 else ((0, 1), (1, 0))
        ends = [((x0, y0), (dx, dy)), ((x1, y1), (-dx, -dy))]
        specs = tuple([(end, d, y_row, 1) for end, d in ends[:min(w * h, 2)]])
    elif h < w:  # the vertical side is the short one: scan it
        specs = (((x0, y0), (1, 0), (0, 1), h), ((x1, y0), (-1, 0), (0, 1), h),
                 ((x0, y1), (1, 0), (0, -1), h),
                 ((x1, y1), (-1, 0), (0, -1), h))
    elif w < h:
        specs = (((x0, y0), (0, 1), (1, 0), w), ((x1, y0), (0, 1), (-1, 0), w),
                 ((x0, y1), (0, -1), (1, 0), w),
                 ((x1, y1), (0, -1), (-1, 0), w))
    else:  # a square: both scans per corner
        specs = (((x0, y0), (1, 0), (0, 1), w), ((x0, y0), (0, 1), (1, 0), w),
                 ((x1, y0), (-1, 0), (0, 1), w), ((x1, y0), (0, 1), (-1, 0), w),
                 ((x0, y1), (0, -1), (1, 0), w), ((x0, y1), (1, 0), (0, -1), w),
                 ((x1, y1), (0, -1), (-1, 0), w),
                 ((x1, y1), (-1, 0), (0, -1), w))
    return specs, {}


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


def corner_strings(c: Iterable[Point]) -> list[tuple]:
    """``(spec, bits)`` for every scan: the dense occupancy string, its 1s
    at the scan's key. O(area), so only ``analyze`` and the tests use it."""
    occupied = frozenset(c)
    x0, y0, x1, y1 = box = bounding_rect(occupied)
    strings = []
    for spec in _box_scans(*box)[0]:
        bits = ["0"] * ((x1 - x0 + 1) * (y1 - y0 + 1))
        for i in _scan_key(occupied, spec):
            bits[i] = "1"
        strings.append((spec, "".join(bits)))
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
    as ``_box_scans`` sets it. The two global outcomes are mirror images
    and similarity of the final pattern is unaffected.
    """
    occupied = frozenset(c)
    specs, built = _box_scans(*bounding_rect(occupied))
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
    frames = Frames([built.get(i) or built.setdefault(i, _scan_frame(specs[i]))
                     for i in lead])
    frames.key, frames.spec = best, specs[lead[0]]
    return frames


def to_frame_coords(c: Iterable[Point], frames: Frames) -> tuple:
    """The image of ``c`` under ``frames[0]`` as the winning scan key: the
    sorted indices ``x * short_len + y`` of its points, x-major then y, with
    ``short_len`` in ``frames.spec[3]``. Builds the key when a lone
    occupied corner won without one."""
    return frames.key or _scan_key(c, frames.spec)


def decode(key, short_len: int) -> list[Point]:
    """The points of a scan key (or of a slice of one), in key order."""
    return list(map(divmod, key, repeat(short_len)))


def holds(key, short_len: int, p: Point, lo: int = 0,
          hi: Optional[int] = None) -> bool:
    """True iff ``key[lo:hi]`` holds the point ``p``, found by bisection. A
    row outside [0, short_len) holds nothing: there ``x * short_len + y``
    would be a cell of the next or the previous column."""
    x, y = p
    if not 0 <= y < short_len:
        return False
    v, hi = x * short_len + y, len(key) if hi is None else hi
    i = bisect_left(key, v, lo, hi)
    return i < hi and key[i] == v


def from_frame_coords(q: Point, f: Isometry) -> Point:
    """Map frame coordinates back to the coordinates ``f`` was built in."""
    return f.inverse().apply(q)
