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


def evaluate_conditions(cf: frozenset, order: list,
                        t: TargetPattern) -> ConditionVector:
    """Evaluate C0..C7 for a configuration expressed in canonical coordinates.

    ``order`` is ``cf`` in the scan order of the canonical string, x-major
    then y ascending, as ``to_frame_coords`` decodes it. Needs at least 2
    robots: C' of a single robot is empty, and a single robot in canonical
    coordinates is always formed (C0)."""
    k = len(cf)
    if k != len(t.points):
        raise ValueError(
            f"configuration has {k} robots but the target has {len(t.points)}"
        )
    if k < 2:
        raise ValueError("conditions need at least 2 robots")
    head, tail = order[0], order[-1]
    # sorted by x, so the ends give the widths; C' is the order without the
    # tail, so its y extent plus the tail's y gives both heights
    ys = [p[1] for p in order[:-1]]
    lo, hi = min(ys), max(ys)
    n, H = tail[0] - head[0] + 1, order[-2][0] - head[0] + 1
    m, V = max(hi, tail[1]) - min(lo, tail[1]) + 1, hi - lo + 1
    # C0, C1 and C7 ask which robots are off the target: none, at most the
    # tail, at most the head and the tail; and C1 and C7 that no other
    # robot holds a target end they name
    off = cf - t.points
    ends, h_target, t_target = (head, tail), t.h_target, t.t_target
    return ConditionVector(  # positional, in field order: c0..c7, sizes, ends
        not off,
        off <= {tail} and (t_target == tail or t_target not in cf),
        tail[1] == t_target[1],
        n >= max(t.M, m) + 2,
        n >= 2 * max(t.N, H),
        head == (0, 0),
        m >= max(t.M, V) + 1,
        off <= {head, tail} and (t_target in ends or t_target not in cf)
        and (h_target in ends or h_target not in cf),
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
