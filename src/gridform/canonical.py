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
    """All (corner, short_dir, long_dir, short_len, long_len) scans of the
    bounding rectangle of ``occupied``."""
    xs, ys = zip(*occupied)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    w, h = x1 - x0 + 1, y1 - y0 + 1
    if w == 1 or h == 1:  # a line: one string per end (a point has one)
        dx, dy = (1, 0) if h == 1 else (0, 1)
        ends = [((x0, y0), (dx, dy)), ((x1, y1), (-dx, -dy))]
        return [(end, None, d, 1, w * h) for end, d in ends[:min(w * h, 2)]]
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


def _scan_key(occupied: frozenset, spec) -> tuple:
    """The sorted tuple of the indices ``i*short_len + j`` of the 1s.

    All scans of a rectangle have the same length and k ones, so the smaller
    key is the larger string. The index is linear in the point, so a key
    costs O(k log k) whatever the area.
    """
    (ox, oy), short_dir, (lx, ly), short_len, _ = spec
    sx, sy = short_dir or (0, 0)
    a, b = lx * short_len + sx, ly * short_len + sy
    c = -(a * ox + b * oy)
    return tuple(sorted([a * x + b * y + c for x, y in occupied]))


def _scan_keys(occupied: frozenset):
    """(scan spec, key) for every scan of the bounding rectangle."""
    return [(spec, _scan_key(occupied, spec))
            for spec in _scan_specs(occupied)]


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


def canonical_frames(c: Iterable[Point]) -> list[Isometry]:
    """One frame per corner string achieving the lexicographic maximum,
    ordered by origin, then by x direction. A string starting with a 1 beats
    every string starting with a 0, so only scans from occupied corners are
    keyed when there are any, and a lone one needs no key.

    A frame maps ``c`` into its canonical coordinates: the scan's corner to
    the origin, its ``long_dir`` to +x and its ``short_dir`` to +y. A
    collinear ``c`` (or a single point) has no ``short_dir`` and no Y-axis
    agreement; the robot then falls back to its own +y when the line is
    horizontal in its view (else +x). The two global outcomes are mirror
    images and similarity of the final pattern is unaffected.
    """
    occupied = frozenset(c)
    specs = _scan_specs(occupied)
    lead = [spec for spec in specs if spec[0] in occupied] or specs
    if len(lead) > 1:
        keys = [_scan_key(occupied, spec) for spec in lead]
        best = min(keys)
        lead = [spec for spec, key in zip(lead, keys) if key == best]
        if len(lead) > 1:
            lead.sort(key=lambda spec: (spec[0], spec[2]))
    frames = []
    for (ox, oy), short_dir, (xa, xb), _, _ in lead:
        ya, yb = short_dir or ((0, 1) if xb == 0 else (1, 0))
        frames.append(Isometry(xa, xb, ya, yb, -(xa * ox + xb * oy),
                               -(ya * ox + yb * oy)))
    return frames


def to_frame_coords(c: Iterable[Point], f: Isometry) -> frozenset:
    """Express ``c`` in the coordinate system of ``f`` (first quadrant)."""
    return f.apply_set(c)


def from_frame_coords(q: Point, f: Isometry) -> Point:
    """Map frame coordinates back to the coordinates ``f`` was built in."""
    u, v = q[0] - f.tx, q[1] - f.ty
    return (f.a * u + f.c * v, f.b * u + f.d * v)


def frame_string(c: Iterable[Point], f: Isometry) -> str:
    """The occupancy string of ``c`` scanned in frame ``f``."""
    cf = to_frame_coords(c, f)
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
    cf = to_frame_coords(occupied, f)
    # x-major, then y ascending: exactly the string's scan order.
    order = sorted(cf)
    return from_frame_coords(order[0], f), from_frame_coords(order[-1], f)


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
