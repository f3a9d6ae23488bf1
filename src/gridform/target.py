"""Canonical form of the input pattern and its derived quantities."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .canonical import canonical_frames, decode, to_frame_coords
from .geometry import Point


class TargetPattern(NamedTuple):
    """The input pattern in canonical coordinates.

    The bounding rectangle is [0, N-1] x [0, M-1] with N >= M, and the
    occupancy string scanned from the origin (+y within a column, columns
    advancing +x) is lexicographically maximal among all corner strings.
    C'' (no head, no tail) is derived on each read. A named tuple, as
    ``Isometry`` is, so the plan caches that key on it hash it in C.
    """

    points: frozenset
    M: int
    N: int
    h_target: Point
    t_target: Point

    @property
    def c_double_prime(self) -> frozenset:
        return self.points - {self.h_target, self.t_target}


def canonicalize_target(raw: Iterable[Point]) -> TargetPattern:
    """Transform an arbitrary pattern into the canonical coordinate system.

    A symmetric pattern has several maximal corner strings, all equal, so
    every one of them decodes to the same point set.
    """
    raw = frozenset(raw)
    frames = canonical_frames(raw)
    M = frames.spec[3]  # the short side, scanned along y
    order = decode(to_frame_coords(raw, frames), M)
    points = frozenset(order)
    # the frame puts the rectangle at [0, N-1] x [0, M-1], the tail last
    h, t = order[0], order[-1]
    return TargetPattern(points, M=M, N=t[0] + 1, h_target=h, t_target=t)
