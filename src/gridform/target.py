"""Canonical form of the input pattern and its derived quantities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .canonical import canonical_frames, to_frame_coords
from .geometry import Point


@dataclass(frozen=True)
class TargetPattern:
    """The input pattern in canonical coordinates.

    The bounding rectangle is [0, N-1] x [0, M-1] with N >= M, and the
    occupancy string scanned from the origin (+y within a column, columns
    advancing +x) is lexicographically maximal among all corner strings.
    C'' (no head, no tail) is derived on each read.
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

    Symmetric patterns have several maximal corner strings; every one of
    them must yield the same canonical point set, which is asserted here.
    """
    raw = frozenset(raw)
    frames = canonical_frames(raw)
    order = to_frame_coords(raw, frames)
    points = frozenset(order)
    for f in frames[1:]:
        if f.apply_set(raw) != points:
            raise AssertionError(
                "maximal corner strings disagree on the canonical point set"
            )
    # the frame puts the rectangle at [0, N-1] x [0, M-1], the tail last
    h, t = order[0], order[-1]
    return TargetPattern(points, M=max(y for _, y in order) + 1, N=t[0] + 1,
                         h_target=h, t_target=t)
