"""The oblivious per-robot decision function and the seven phase rules.

Every robot runs the same computation on its snapshot: recover the canonical
frame(s) from the corner strings, classify the phase from the condition
vector, and apply the phase rule. The decision is a function of the snapshot
alone, so the whole pipeline lives in pure functions of point sets. The
rules read the canonical image as its scan key (``to_frame_coords``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, repeat
from typing import Iterable, NamedTuple, Optional

from .canonical import (canonical_frames, decode, from_frame_coords, holds,
                        to_frame_coords)
from .conditions import (ConditionVector, classify_phase, evaluate_conditions,
                         has_horizontal_reflection, target_key)
from .geometry import Isometry, Point
from .target import TargetPattern


class RuleViolation(RuntimeError):
    """A phase rule met a configuration the analysis excludes."""


class StepPlan(NamedTuple):
    """Global view of one decision round: which robots move where.

    ``moves`` maps a mover's position to its destination cell, in the same
    coordinates the configuration was given in.
    """

    formed: bool
    phase: Optional[str]
    moves: dict
    stuck_symmetric: bool = False


def snake_index(p: Point, m: int, n: int) -> Optional[int]:
    """Position of ``p`` along the snake path over [0, n-1] x [0, m-1]
    (up column 0 first), or None off the path."""
    x, y = p
    if not (0 <= x < n and 0 <= y < m):
        return None
    return x * m + (y if x % 2 == 0 else m - 1 - y)


def snake_cell(i: int, m: int) -> Point:
    """The ``i``-th cell of a snake path over columns of height ``m``."""
    x, r = divmod(i, m)
    return (x, r if x % 2 == 0 else m - 1 - r)


def pf_on_path_moves(robot_idx, target_idx) -> dict:
    """Phase 4's path protocol on path indices: ``{index: next index}``.

    Both index lists are sorted. The i-th robot (by path order) heads for
    the i-th target and only steps onto a free index, which keeps the
    protocol collision- and swap-free.
    """
    occupied = set(robot_idx)
    moves = {}
    for i, goal in zip(robot_idx, target_idx):
        if i != goal:
            nxt = i + 1 if goal > i else i - 1
            if nxt not in occupied:
                moves[i] = nxt
    return moves


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def _phase1(key, cv, t):
    return {cv.tail: (cv.tail[0] + 1, cv.tail[1])}


def _phase2(key, cv, t):
    head = cv.head
    if head[1] == 0:
        raise RuleViolation("phase 2 with the head already at the origin")
    dest = (head[0], head[1] - 1)
    if holds(key, cv.m, dest):
        raise RuleViolation("cell below the head is occupied")
    return {head: dest}


def _phase3(key, cv, t):
    tail = cv.tail
    if not has_horizontal_reflection(decode(key[:-1], cv.m)):
        dy = 1
    elif cv.m > cv.V:
        dy = 1  # SER(C') sits strictly below the top edge: keep growing up
    else:
        # Symmetric C' spans the full height: tail must be strictly below
        # the reflection axis, and it moves down (flipping the frame once
        # it leaves the rectangle).
        if 2 * tail[1] >= cv.V - 1:
            raise RuleViolation("phase 3 tail on or above the reflection axis")
        dy = -1
    return {tail: (tail[0], tail[1] + dy)}


class _Memo(dict):
    """A dict that computes a missing value with ``fn`` and keeps it, so a
    repeated key is one C-level lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


@lru_cache(maxsize=8)
def _back(frame: Isometry) -> _Memo:
    """A memo of ``frame``'s inverse ``apply`` to map moves back, keyed by
    the frame, not its box: a run's new boxes are mostly won by a frame it
    has met, so their memos start warm."""
    return _Memo(frame.inverse().apply)


_PREFILL = 1024  # over the 306 cells of the largest benchmark P4 path


@lru_cache(maxsize=1)
def _path_table(t: TargetPattern, m: int, n: int) -> tuple:
    """Phase 4's (m, n) snake path as ``(index, cell, target_idx)``: memos
    scan index -> path index and path index -> cell, and the sorted path
    indices of C''. A scan index is ``x * (m + 1) + y``, as in the key of a
    configuration whose short side is m + 1, the path's rows plus the
    tail's. The memos start with the path's first ``_PREFILL`` cells, built
    without a Python call per cell, and compute any other cell when asked,
    so a far tail (a path of huge area) costs only what is used. Target
    points go through ``snake_index`` itself, as a target row past m has no
    scan index. Phase 4 keeps the head and the tail, so every P4 plan of a
    run asks for the same (t, m, n) and runs are simulated one at a time:
    one entry serves. A point off the path raises; an exception is never
    cached."""
    def index_of(p):
        i = snake_index(p, m, n)
        if i is None:
            raise RuleViolation(f"point off the phase 4 path: {p}")
        return i
    short_len = m + 1
    index = _Memo(lambda v: index_of(divmod(v, short_len)))
    cell = _Memo(lambda i: snake_cell(i, m))
    up, down = range(m), range(m - 1, -1, -1)
    cell.update(enumerate(islice(chain.from_iterable(
        zip(repeat(x, m), down if x % 2 else up) for x in range(n)),
        _PREFILL)))
    index.update(zip([x * short_len + y for x, y in cell.values()], cell))
    target_idx = tuple(sorted(map(index_of, t.c_double_prime)))
    return index, cell, target_idx


def _phase4(key, cv, t):
    index, cell, target_idx = _path_table(t, cv.m - 1, cv.n // 2)
    robot_idx = sorted(map(index.__getitem__, key[1:-1]))
    if target_idx and target_idx[0] == 0:
        raise RuleViolation("interior target at the origin")
    # the head holds index 0, which no interior target uses, and the tail is
    # off the path, so a free index is a free cell
    return {cell[i]: cell[j]
            for i, j in pf_on_path_moves(robot_idx, target_idx).items()}


def _phase5(key, cv, t):
    tail = cv.tail
    goal_y = t.t_target[1]  # the row of t~_target on the tail's column
    if not has_horizontal_reflection(decode(key[:-1], cv.m)):
        dy = _sign(goal_y - tail[1])
    else:
        top = cv.V - 1  # y of C'' on the tail's column (head at origin)
        axis2 = top  # doubled midline y of [B, C'']
        ty2, gy2 = 2 * tail[1], 2 * goal_y
        if axis2 < gy2 <= 2 * top:
            raise RuleViolation("t~_target strictly between the axis and C''")
        if axis2 <= ty2 <= 2 * top:
            raise RuleViolation("phase 5 tail inside [C''', C'']")
        tail_low = ty2 < axis2
        goal_low = gy2 <= axis2
        if tail_low == goal_low:
            dy = _sign(goal_y - tail[1])  # cases 1A / 1B
        else:
            dy = -1  # cases 1C / 1D: go down until the frame flips
    if dy == 0:
        raise RuleViolation("phase 5 with the tail already on the target row")
    return {tail: (tail[0], tail[1] + dy)}


def _phase6(key, cv, t):
    head = cv.head
    dy = _sign(t.h_target[1] - head[1])
    if dy == 0:
        raise RuleViolation("phase 6 with the head already at h_target")
    dest = (head[0], head[1] + dy)
    if holds(key, cv.m, dest):
        raise RuleViolation(f"phase 6 head blocked: {dest} is occupied")
    return {head: dest}


def _phase7(key, cv, t):
    tail = cv.tail
    dx = _sign(t.t_target[0] - tail[0])
    if dx == 0:
        raise RuleViolation("phase 7 with the tail already at t_target")
    dest = (tail[0] + dx, tail[1])
    if holds(key, cv.m, dest):
        raise RuleViolation(f"phase 7 tail blocked: {dest} is occupied")
    return {tail: dest}


_RULES = {
    "P1": _phase1,
    "P2": _phase2,
    "P3": _phase3,
    "P4": _phase4,
    "P5": _phase5,
    "P6": _phase6,
    "P7": _phase7,
}


def phase_moves(key: tuple, cv: ConditionVector, phase: str,
                t: TargetPattern) -> dict:
    """Moves prescribed by ``phase`` for the canonical image given as its
    scan key (short side ``cv.m``), in frame coordinates."""
    return _RULES[phase](key, cv, t)


def plan_moves(points: Iterable[Point], t: TargetPattern) -> StepPlan:
    """The decision of the whole swarm for one configuration.

    Works in whatever coordinates ``points`` is given in; the result is
    expressed in the same coordinates. All canonical frames map ``points``
    onto the same image, so the conditions, the phase and the rule are
    evaluated once. Under several frames (a transient symmetric
    configuration) a robot moves only if every frame maps the rule's move
    back to the same mover and the same physical destination.
    """
    points = frozenset(points)
    frames = canonical_frames(points)
    key = to_frame_coords(points, frames)
    short_len = frames.spec[3]
    if key == target_key(t, short_len)[1]:
        return tuple.__new__(StepPlan, (True, "DONE", {}, False))
    try:
        cv = evaluate_conditions(key, short_len, t)
        phase = classify_phase(cv)
        fm = phase_moves(key, cv, phase, t)
    except RuleViolation:
        if len(frames) == 1:
            raise
        return tuple.__new__(StepPlan, (False, None, {}, True))
    back = _back(frames[0])
    moves = {back[src]: back[dst] for src, dst in fm.items()}
    for g in frames[1:]:
        other = {from_frame_coords(src, g): from_frame_coords(dst, g)
                 for src, dst in fm.items()}
        moves = {src: dst for src, dst in moves.items()
                 if other.get(src) == dst}
    return tuple.__new__(StepPlan,
                         (False, phase, moves, len(frames) > 1 and not moves))
