"""Boolean conditions over a configuration's canonical scan key, and the
phase classifier."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .canonical import holds
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


def has_horizontal_reflection(points: Iterable[Point]) -> bool:
    """Non-trivial reflectional symmetry about a horizontal line.

    The axis of any set-preserving horizontal reflection is the midline of
    the set's bounding box (integer or half-integer y). The reflection is
    trivial if every point lies on the axis.
    """
    points = frozenset(points)
    ys = [p[1] for p in points]
    axis2 = min(ys) + max(ys)  # doubled to stay in integers
    if all(2 * y == axis2 for y in ys):
        return False
    return all((x, axis2 - y) in points for x, y in points)


@lru_cache(maxsize=64)
def target_key(t: TargetPattern, short_len: int) -> tuple:
    """The target's scan indices ``x * short_len + y`` as ``(codes, key)``:
    the set of those of its points on rows [0, short_len), and their sorted
    tuple when every point is on one of those rows (else None). A point on
    a higher row has no index: it would alias a cell of the next column. A
    run asks for a few short sides of one target."""
    codes = [x * short_len + y for x, y in t.points if 0 <= y < short_len]
    key = tuple(sorted(codes)) if len(codes) == len(t.points) else None
    return frozenset(codes), key


def evaluate_conditions(key: tuple, short_len: int,
                        t: TargetPattern) -> ConditionVector:
    """Evaluate C0..C7 for a configuration in canonical coordinates, given
    as its scan key (``to_frame_coords``): the sorted indices ``x * S + y``
    of its points, where S = ``short_len`` is the short side of its
    bounding box, whose rows are [0, S). Needs at least 2 robots: C' of a
    single robot is empty, and a single robot in canonical coordinates is
    always formed (C0)."""
    k, S = len(key), short_len
    if k != len(t.points):
        raise ValueError(
            f"configuration has {k} robots but the target has {len(t.points)}"
        )
    if k < 2:
        raise ValueError("conditions need at least 2 robots")
    head, tail = divmod(key[0], S), divmod(key[-1], S)
    # the key is x-major, so its ends give the widths. C spans all S rows;
    # C', C without the tail, spans fewer only if the tail alone may hold
    # row 0 or row S - 1, and C' then holds the other one
    if tail[1] == S - 1 and S > 1:  # C' holds row 0
        V = max(map(S.__rmod__, key[:-1])) + 1
    elif tail[1] == 0 and S > 1:  # C' holds row S - 1
        V = S - min(map(S.__rmod__, key[:-1]))
    else:
        V = S
    n, H = tail[0] - head[0] + 1, key[-2] // S - head[0] + 1
    # C0, C1 and C7 ask which robots are off the target: none, at most the
    # tail, at most the head and the tail; and C1 and C7 that no robot of
    # C' or C'' holds a target end they name
    codes = target_key(t, S)[0]
    c0 = c1 = c7 = False
    if codes.issuperset(key[1:-1]):  # C'' lies on the target
        t_target = t.t_target
        t_inner = holds(key, S, t_target, 1, k - 1)
        head_on = key[0] in codes
        c0 = head_on and key[-1] in codes
        c1 = head_on and not t_inner and t_target != head
        c7 = not t_inner and not holds(key, S, t.h_target, 1, k - 1)
    # positional, in field order (c0..c7, sizes, ends), past its Python __new__
    return tuple.__new__(ConditionVector, (
        c0, c1,
        tail[1] == t.t_target[1],
        n >= t.M + 2 and n >= S + 2,
        n >= 2 * t.N and n >= 2 * H,
        key[0] == 0,
        S > t.M and S > V,
        c7,
        S, n, H, V, head, tail,
    ))


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
