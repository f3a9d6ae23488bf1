"""Boolean conditions over a configuration-in-frame and the phase classifier."""

from __future__ import annotations

from typing import NamedTuple

from .geometry import Point
from .target import TargetPattern


class ConditionVector(NamedTuple):
    """C0..C7 and the sizes the rules read. C8, the horizontal reflection
    of C', is read by phases 3 and 5 only, so they evaluate it themselves
    (``has_horizontal_reflection``)."""

    c0: bool
    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    c6: bool
    c7: bool
    m: int
    n: int
    H: int
    V: int
    head: Point
    tail: Point


def has_horizontal_reflection(points: frozenset) -> bool:
    """Non-trivial reflectional symmetry about a horizontal line.

    The axis of any set-preserving horizontal reflection is the midline of
    the set's bounding box (integer or half-integer y). The reflection is
    trivial if every point lies on the axis.
    """
    ys = [p[1] for p in points]
    axis2 = min(ys) + max(ys)  # doubled to stay in integers
    if all(2 * y == axis2 for y in ys):
        return False
    return all((x, axis2 - y) in points for x, y in points)


def evaluate_conditions(cf: frozenset, t: TargetPattern) -> ConditionVector:
    """Evaluate C0..C7 for a configuration expressed in canonical coordinates."""
    if len(cf) != len(t.points):
        raise ValueError(
            f"configuration has {len(cf)} robots but the target has {len(t.points)}"
        )
    order = sorted(cf)  # scan order of the canonical string
    head, tail = order[0], order[-1]
    # sorted by x, so the ends give the widths; C' is the order without the
    # tail, so its y extent plus the tail's y gives both heights
    ys = [p[1] for p in order[:-1]]
    lo, hi = min(ys), max(ys)
    n, H = tail[0] - head[0] + 1, order[-2][0] - head[0] + 1
    m, V = max(hi, tail[1]) - min(lo, tail[1]) + 1, hi - lo + 1
    # c1 and c7: equal sizes (k-1, k-2), so a subset test is set equality
    c_prime = cf - {tail}
    dp = c_prime - {head}
    return ConditionVector(  # positional, in field order: c0..c7, sizes, ends
        cf == t.points,
        c_prime <= t.points and t.t_target not in c_prime,
        tail[1] == t.t_target[1],
        n >= max(t.M, m) + 2,
        n >= 2 * max(t.N, H),
        head == (0, 0),
        m >= max(t.M, V) + 1,
        dp <= t.points and t.h_target not in dp and t.t_target not in dp,
        m, n, H, V, head, tail,
    )


def classify_phase(cv: ConditionVector) -> str:
    """Walk the phase decision tree; exactly one phase fits any vector."""
    if cv.c0:
        return "DONE"
    if cv.c1 and cv.c2:
        return "P7"
    if not (cv.c3 and cv.c4):
        return "P1"
    if not cv.c7:
        if not cv.c5:
            return "P2"
        return "P4" if cv.c6 else "P3"
    if not cv.c2:
        return "P5" if cv.c5 else "P2"
    return "P6"
