"""Integer-lattice primitives: points, bounding boxes, grid isometries.

A configuration is a finite set of distinct lattice points, represented as a
``frozenset`` of ``(x, y)`` integer tuples. All operations here are pure.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

Point = tuple[int, int]


class Isometry(NamedTuple):
    """A lattice isometry ``(x, y) -> (a*x + b*y + tx, c*x + d*y + ty)``.

    The linear part ``(a, b, c, d)``, row-major, is a signed permutation
    matrix: a quarter-turn rotation, possibly after a reflection. A named
    tuple of six ints, so a frame is cheap to build and to unpack.
    """

    a: int
    b: int
    c: int
    d: int
    tx: int = 0
    ty: int = 0

    def apply(self, p: Point) -> Point:
        a, b, c, d, tx, ty = self
        x, y = p
        return (a * x + b * y + tx, c * x + d * y + ty)

    def apply_set(self, points: Iterable[Point]) -> frozenset:
        a, b, c, d, tx, ty = self
        return frozenset([(a * x + b * y + tx, c * x + d * y + ty)
                          for x, y in points])

    def inverse(self) -> "Isometry":
        a, b, c, d, tx, ty = self
        # Orthogonal integer matrix: inverse is the transpose.
        return Isometry(a, c, b, d, -(a * tx + c * ty), -(b * tx + d * ty))


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


def bounding_rect(c: Iterable[Point]) -> tuple:
    """The smallest grid-aligned box holding all points of ``c``, as its
    corners ``(x0, y0, x1, y1)``: (x0, y0) the min, (x1, y1) the max."""
    try:
        xs, ys = zip(*c)
    except ValueError:
        raise ValueError("empty configuration") from None
    return min(xs), min(ys), max(xs), max(ys)


def similar(a: Iterable[Point], b: Iterable[Point]) -> Optional[Isometry]:
    """Witness isometry g with g(a) = b, or None.

    Both sets are anchored by their bounding-box corners, so only the 8
    rotation/reflection classes need to be tried. A linear class maps
    ``a``'s corners (x0, y0) and (x1, y1) to opposite corners of the
    image's box, which fixes the translation before ``a`` is mapped once.
    """
    a, b = frozenset(a), frozenset(b)
    if len(a) != len(b):
        return None
    if not a:
        return LINEAR_CLASSES[0]
    x0, y0, x1, y1 = bounding_rect(a)
    bx, by, _, _ = bounding_rect(b)
    for lin in LINEAR_CLASSES:
        (px, py), (qx, qy) = lin.apply((x0, y0)), lin.apply((x1, y1))
        g = Isometry(lin.a, lin.b, lin.c, lin.d,
                     bx - min(px, qx), by - min(py, qy))
        if g.apply_set(a) == b:
            return g
    return None
