"""Integer-lattice primitives: points, bounding rectangles, grid isometries.

A configuration is a finite set of distinct lattice points, represented as a
``frozenset`` of ``(x, y)`` integer tuples. All operations here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional

Point = tuple[int, int]


@dataclass(frozen=True)
class Isometry:
    """A lattice isometry ``(x, y) -> (a*x + b*y + tx, c*x + d*y + ty)``.

    The linear part ``(a, b, c, d)``, row-major, is a signed permutation
    matrix: a quarter-turn rotation, possibly after a reflection.
    """

    a: int
    b: int
    c: int
    d: int
    tx: int = 0
    ty: int = 0

    def apply(self, p: Point) -> Point:
        x, y = p
        return (self.a * x + self.b * y + self.tx,
                self.c * x + self.d * y + self.ty)

    def apply_set(self, points: Iterable[Point]) -> frozenset:
        a, b, c, d, tx, ty = self.a, self.b, self.c, self.d, self.tx, self.ty
        return frozenset([(a * x + b * y + tx, c * x + d * y + ty)
                          for x, y in points])

    def inverse(self) -> "Isometry":
        a, b, c, d = self.a, self.b, self.c, self.d
        # Orthogonal integer matrix: inverse is the transpose.
        return Isometry(a, c, b, d, -(a * self.tx + c * self.ty),
                        -(b * self.tx + d * self.ty))


#: The 8 rotation/reflection classes (no translation): 0-3 counterclockwise
#: quarter turns, then the same after the reflection x -> -x. Adversaries
#: draw robot frames from this tuple by index, so its order is part of
#: every seeded run.
LINEAR_CLASSES = (
    Isometry(1, 0, 0, 1), Isometry(0, -1, 1, 0),
    Isometry(-1, 0, 0, -1), Isometry(0, 1, -1, 0),
    Isometry(-1, 0, 0, 1), Isometry(0, -1, -1, 0),
    Isometry(1, 0, 0, -1), Isometry(0, 1, 1, 0),
)

IDENTITY = LINEAR_CLASSES[0]


@dataclass(frozen=True)
class Rect:
    """Tightest axis-aligned rectangle; side sizes count grid points."""

    min: Point
    max: Point

    @property
    def width_pts(self) -> int:
        return self.max[0] - self.min[0] + 1

    @property
    def height_pts(self) -> int:
        return self.max[1] - self.min[1] + 1


def bounding_rect(c: Iterable[Point]) -> Rect:
    """Smallest grid-aligned rectangle containing all points of ``c``."""
    xs = [p[0] for p in c]
    if not xs:
        raise ValueError("empty configuration")
    ys = [p[1] for p in c]
    return Rect((min(xs), min(ys)), (max(xs), max(ys)))


def similar(a: Iterable[Point], b: Iterable[Point]) -> Optional[Isometry]:
    """Witness isometry g with g(a) = b, or None.

    Both sets are anchored by their bounding-rectangle corners, so only the
    8 rotation/reflection classes need to be tried.
    """
    a, b = frozenset(a), frozenset(b)
    if len(a) != len(b):
        return None
    if not a:
        return IDENTITY
    bmin = bounding_rect(b).min
    for lin in LINEAR_CLASSES:
        img = lin.apply_set(a)
        imin = bounding_rect(img).min
        g = replace(lin, tx=bmin[0] - imin[0], ty=bmin[1] - imin[1])
        if g.apply_set(a) == b:
            return g
    return None
