"""Discrete-event ASYNC simulation of the swarm.

Each robot's Look-Compute is one atomic event; its Move is a later event
that applies the stored decision blindly, however stale the snapshot has
become. The adversary interleaves events in rounds: within a round every
robot Looks once and Moves once (Look first), in an order of the
adversary's choosing. Rounds give bounded fairness: any window of 4k events
contains a complete cycle of every robot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .algorithm import RuleViolation, plan_moves
from .canonical import is_asymmetric
from .geometry import LINEAR_CLASSES, IDENTITY, Isometry, Point
from .target import TargetPattern

LOOK = "LOOK_COMPUTE"
MOVE = "MOVE"


@dataclass(frozen=True)
class Event:
    index: int
    robot: int
    kind: str  # LOOK_COMPUTE | MOVE
    pos_before: Point
    pos_after: Optional[Point] = None  # MOVE only
    phase: Optional[str] = None        # LOOK only, diagnostic
    snapshot_index: Optional[int] = None  # MOVE only: when the decision was made


@dataclass
class RobotState:
    id: int
    pos: Point
    frame: Isometry  # local orientation; local = frame(global)
    stage: str = "IDLE"  # IDLE | COMPUTED
    pending_dest: Optional[Point] = None  # global cell; None = stay
    pending_since: Optional[int] = None


@dataclass(frozen=True)
class Outcome:
    kind: str  # FORMED | LIMIT_EXCEEDED | FAULT
    trace: list
    events_used: int
    final: frozenset
    fault: Optional[str] = None  # collision | symmetric-input | stuck-symmetric | internal
    detail: Optional[str] = None  # the rule's message for a RuleViolation fault


class Adversary:
    """Base adversary: per-robot local frames plus a per-round event order."""

    name = "base"

    def __init__(self, fairness_window: int, seed: int = 0):
        if fairness_window < 2:
            raise ValueError("fairness window must be at least 2")
        self.fairness_window = fairness_window
        self.seed = seed
        self._rng = random.Random(seed)

    def robot_frames(self, k: int) -> list[Isometry]:
        return [IDENTITY] * k

    def round_order(self, k: int) -> list[tuple[int, str]]:
        raise NotImplementedError


class RoundRobinAdversary(Adversary):
    """Synchronous-like: L0 M0 L1 M1 ... each round."""

    name = "round_robin"

    def round_order(self, k):
        order = []
        for r in range(k):
            order.append((r, LOOK))
            order.append((r, MOVE))
        return order


class RandomAdversary(Adversary):
    """Uniform interleaving: Looks and Moves shuffled, Look-before-Move
    per robot preserved."""

    name = "random"

    def robot_frames(self, k):
        return [self._rng.choice(LINEAR_CLASSES) for _ in range(k)]

    def round_order(self, k):
        tokens = list(range(k)) * 2
        self._rng.shuffle(tokens)
        seen = set()
        order = []
        for r in tokens:
            if r in seen:
                order.append((r, MOVE))
            else:
                seen.add(r)
                order.append((r, LOOK))
        return order


class MaxStaleAdversary(Adversary):
    """All Looks first, then all Moves: every decision is maximally stale."""

    name = "max_stale"

    def robot_frames(self, k):
        return [self._rng.choice(LINEAR_CLASSES) for _ in range(k)]

    def round_order(self, k):
        looks = list(range(k))
        moves = list(range(k))
        self._rng.shuffle(looks)
        self._rng.shuffle(moves)
        return [(r, LOOK) for r in looks] + [(r, MOVE) for r in moves]


ADVERSARIES = {
    "random": RandomAdversary,
    "round_robin": RoundRobinAdversary,
    "roundrobin": RoundRobinAdversary,
    "max_stale": MaxStaleAdversary,
    "stale": MaxStaleAdversary,
}

#: One name per adversary class, in table order (the aliases left out).
ADVERSARY_KINDS = tuple(cls.name for cls in dict.fromkeys(ADVERSARIES.values()))


def make_adversary(kind: str, fairness_window: int, seed: int = 0) -> Adversary:
    try:
        cls = ADVERSARIES[kind]
    except KeyError:
        raise ValueError(f"unknown adversary kind: {kind!r}") from None
    return cls(fairness_window, seed)


def run(initial: Iterable[Point], target: TargetPattern, adversary: Adversary,
        max_events: int = 100_000) -> Outcome:
    """Simulate until the pattern is formed, a fault occurs, or the event
    budget runs out."""
    initial = frozenset(initial)
    k = len(initial)
    if k != len(target.points):
        raise ValueError("configuration and target sizes differ")
    if adversary.fairness_window < 2 * k:
        raise ValueError("fairness window smaller than one full round")
    trace: list[Event] = []
    if k >= 2 and not is_asymmetric(initial):
        return Outcome("FAULT", trace, 0, initial, fault="symmetric-input")

    frames = adversary.robot_frames(k)
    inverses = [f.inverse() for f in frames]
    robots = [
        RobotState(i, pos, frames[i]) for i, pos in enumerate(sorted(initial))
    ]
    plan_cache: dict = {}

    def local_plan(local_points: frozenset):
        plan = plan_cache.get(local_points)
        if plan is None:
            plan = plan_moves(local_points, target)
            plan_cache[local_points] = plan
        return plan

    index = 0
    while True:
        moved = False
        all_formed = True
        any_stuck = False
        for rid, kind in adversary.round_order(k):
            if index >= max_events:
                positions = frozenset(r.pos for r in robots)
                return Outcome("LIMIT_EXCEEDED", trace, index, positions)
            rob = robots[rid]
            if kind == LOOK:
                positions = frozenset(r.pos for r in robots)
                local = rob.frame.apply_set(positions)
                try:
                    plan = local_plan(local)
                except RuleViolation as exc:
                    return Outcome("FAULT", trace, index, positions,
                                   fault="internal", detail=str(exc))
                dest_local = plan.moves.get(rob.frame.apply(rob.pos))
                if dest_local is not None:
                    rob.pending_dest = inverses[rid].apply(dest_local)
                else:
                    rob.pending_dest = None
                rob.stage = "COMPUTED"
                rob.pending_since = index
                all_formed = all_formed and plan.formed
                any_stuck = any_stuck or plan.stuck_symmetric
                trace.append(Event(index, rid, LOOK, rob.pos, phase=plan.phase))
            else:
                assert rob.stage == "COMPUTED"
                dest = rob.pending_dest
                snap = rob.pending_since
                rob.stage = "IDLE"
                rob.pending_dest = None
                rob.pending_since = None
                if dest is not None:
                    occupied = {r.pos for r in robots if r.id != rid}
                    trace.append(
                        Event(index, rid, MOVE, rob.pos, pos_after=dest,
                              snapshot_index=snap)
                    )
                    if dest in occupied:
                        positions = frozenset(r.pos for r in robots)
                        return Outcome("FAULT", trace, index + 1, positions,
                                       fault="collision")
                    rob.pos = dest
                    moved = True
                else:
                    trace.append(
                        Event(index, rid, MOVE, rob.pos, pos_after=rob.pos,
                              snapshot_index=snap)
                    )
            index += 1
        if not moved:
            positions = frozenset(r.pos for r in robots)
            if all_formed:
                return Outcome("FORMED", trace, index, positions)
            fault = "stuck-symmetric" if any_stuck else "internal"
            return Outcome("FAULT", trace, index, positions, fault=fault)
