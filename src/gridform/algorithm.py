"""The oblivious per-robot decision function and the seven phase rules.

Every robot runs the same computation on its snapshot: recover the canonical
frame(s) from the corner strings, classify the phase from the condition
vector, and apply the phase rule. The decision is a function of the snapshot
alone, so the whole pipeline lives in pure functions of point sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .canonical import (
    canonical_frames,
    from_frame_coords,
    to_frame_coords,
)
from .conditions import ConditionVector, classify_phase, evaluate_conditions
from .geometry import Point
from .target import TargetPattern


class RuleViolation(RuntimeError):
    """A phase rule met a configuration the analysis excludes."""


@dataclass(frozen=True)
class Snapshot:
    points: frozenset
    self_pos: Point


@dataclass(frozen=True)
class MoveDecision:
    """STAY (direction None) or a unit STEP in the snapshot's coordinates."""

    direction: Optional[Point] = None
    stuck_symmetric: bool = False

    @property
    def is_stay(self) -> bool:
        return self.direction is None


STAY = MoveDecision()


@dataclass(frozen=True)
class StepPlan:
    """Global view of one decision round: which robots move where.

    ``moves`` maps a mover's position to its destination cell, in the same
    coordinates the configuration was given in.
    """

    formed: bool
    phase: Optional[str]
    moves: dict = field(default_factory=dict)
    stuck_symmetric: bool = False
    blocked: bool = False


@dataclass(frozen=True)
class PathInstance:
    """Robots and targets as positions along a fixed grid path."""

    cells: tuple
    robot_indices: tuple
    target_indices: tuple

    def __post_init__(self):
        assert len(self.robot_indices) == len(self.target_indices)
        assert list(self.robot_indices) == sorted(set(self.robot_indices))
        assert list(self.target_indices) == sorted(set(self.target_indices))


def snake_index(p: Point, m: int, n: int) -> Optional[int]:
    """Position of ``p`` along ``snake_path(m, n)``, or None off the path."""
    x, y = p
    if not (0 <= x < n and 0 <= y < m):
        return None
    return x * m + (y if x % 2 == 0 else m - 1 - y)


def snake_cell(i: int, m: int) -> Point:
    """The ``i``-th cell of a snake path over columns of height ``m``."""
    x, r = divmod(i, m)
    return (x, r if x % 2 == 0 else m - 1 - r)


def snake_path(m: int, n: int) -> list[Point]:
    """Boustrophedon path over [0, n-1] x [0, m-1], starting at the origin
    and running up column 0 first."""
    return [snake_cell(i, m) for i in range(m * n)]


def pf_on_path_step(p: PathInstance, self_index: int) -> Optional[int]:
    """Next path index for the robot at ``self_index``, or None to stay.

    The i-th robot (by path order) heads for the i-th target and only steps
    onto an empty cell, which keeps the protocol collision- and swap-free.
    """
    return _pf_step(p.robot_indices, p.target_indices, self_index)


def _pf_step(robot_indices: tuple, target_indices: tuple,
             self_index: int) -> Optional[int]:
    rank = robot_indices.index(self_index)
    goal = target_indices[rank]
    if self_index == goal:
        return None
    nxt = self_index + (1 if goal > self_index else -1)
    if nxt in robot_indices:
        return None
    return nxt


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def _phase1(cf, cv, t):
    return {cv.tail: (cv.tail[0] + 1, cv.tail[1])}


def _phase2(cf, cv, t):
    head = cv.head
    if head[1] == 0:
        raise RuleViolation("phase 2 with the head already at the origin")
    dest = (head[0], head[1] - 1)
    if dest in cf:
        raise RuleViolation("cell below the head is occupied")
    return {head: dest}


def _phase3(cf, cv, t):
    tail = cv.tail
    if not cv.c8:
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


def _phase4(cf, cv, t):
    head, tail = cv.head, cv.tail
    m, n = cv.m - 1, cv.n // 2

    def indices(points):
        out = []
        for p in points:
            i = snake_index(p, m, n)
            if i is None:
                raise RuleViolation(f"point off the phase 4 path: {p}")
            out.append(i)
        return tuple(sorted(out))

    robot_idx = indices(cf - {head, tail})
    target_idx = indices(t.c_double_prime)
    if 0 in target_idx:
        raise RuleViolation("interior target at the origin")
    moves = {}
    for i in robot_idx:
        nxt = _pf_step(robot_idx, target_idx, i)
        if nxt is not None and snake_cell(nxt, m) not in cf:
            moves[snake_cell(i, m)] = snake_cell(nxt, m)
    return moves


def _phase5(cf, cv, t):
    tail = cv.tail
    goal_y = t.t_target[1]  # the row of t~_target on the tail's column
    if not cv.c8:
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


def _phase6(cf, cv, t):
    head = cv.head
    dy = _sign(t.h_target[1] - head[1])
    if dy == 0:
        raise RuleViolation("phase 6 with the head already at h_target")
    dest = (head[0], head[1] + dy)
    if dest in cf:
        return {}  # blocked; not expected on valid runs
    return {head: dest}


def _phase7(cf, cv, t):
    tail = cv.tail
    dx = _sign(t.t_target[0] - tail[0])
    if dx == 0:
        raise RuleViolation("phase 7 with the tail already at t_target")
    dest = (tail[0] + dx, tail[1])
    if dest in cf:
        return {}  # blocked; not expected on valid runs
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


def phase_moves(cf: frozenset, cv: ConditionVector, phase: str,
                t: TargetPattern) -> dict:
    """Moves prescribed by ``phase``, in frame coordinates."""
    return _RULES[phase](cf, cv, t)


def plan_moves(points: Iterable[Point], t: TargetPattern) -> StepPlan:
    """The decision of the whole swarm for one configuration.

    Works in whatever coordinates ``points`` is given in; the result is
    expressed in the same coordinates. Under a unique canonical frame the
    phase rule applies directly; under several (a transient symmetric
    configuration) a robot moves only if every frame names the same mover
    and the same physical destination.
    """
    points = frozenset(points)
    if len(points) == 1:
        return StepPlan(formed=True, phase="DONE")
    frames = canonical_frames(points)
    for f in frames:
        if to_frame_coords(points, f) == t.points:
            return StepPlan(formed=True, phase="DONE")

    def frame_plan(f):
        cf = to_frame_coords(points, f)
        cv = evaluate_conditions(cf, t)
        phase = classify_phase(cv)
        fm = phase_moves(cf, cv, phase, t)
        moves = {
            from_frame_coords(src, f): from_frame_coords(dst, f)
            for src, dst in fm.items()
        }
        return phase, moves

    if len(frames) == 1:
        phase, moves = frame_plan(frames[0])
        return StepPlan(formed=False, phase=phase, moves=moves,
                        blocked=not moves)

    plans = []
    for f in frames:
        try:
            plans.append(frame_plan(f))
        except RuleViolation:
            plans.append((None, {}))
    first_phase = next((ph for ph, _ in plans if ph), None)
    agreed = {
        src: dst
        for src, dst in plans[0][1].items()
        if all(mv.get(src) == dst for _, mv in plans[1:])
    }
    return StepPlan(formed=False, phase=first_phase, moves=agreed,
                    stuck_symmetric=not agreed)


def compute(s: Snapshot, t: TargetPattern) -> MoveDecision:
    """Look-Compute step of a single robot: snapshot in, decision out."""
    if s.self_pos not in s.points:
        raise ValueError("snapshot does not contain the observing robot")
    plan = plan_moves(s.points, t)
    dest = plan.moves.get(s.self_pos)
    if dest is None:
        return MoveDecision(None, stuck_symmetric=plan.stuck_symmetric)
    return MoveDecision((dest[0] - s.self_pos[0], dest[1] - s.self_pos[1]))
