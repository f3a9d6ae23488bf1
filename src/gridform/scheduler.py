"""Discrete-event ASYNC simulation of the swarm.

Each robot's Look-Compute is one atomic event; its Move is a later event
that applies the stored decision blindly, however stale the snapshot has
become. The adversary interleaves events in rounds: within a round every
robot Looks once and Moves once (Look first), in an order of the
adversary's choosing. Rounds give bounded fairness: any window of 4k events
contains a complete cycle of every robot.

Adversaries shuffle with ``_shuffle``: the draws of ``Random.shuffle``,
inline. A Look re-reads the plan only when the configuration changed since
the last refresh or the round began; a collinear one refreshes every Look.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .algorithm import RuleViolation, plan_moves
from .canonical import collinear, is_asymmetric
from .geometry import LINEAR_CLASSES, IDENTITY, Isometry, Point
from .target import TargetPattern

LOOK = "LOOK_COMPUTE"
MOVE = "MOVE"


class Event(NamedTuple):
    index: int
    robot: int
    kind: str  # LOOK_COMPUTE | MOVE
    pos_before: Point
    pos_after: Optional[Point] = None  # MOVE only
    phase: Optional[str] = None        # LOOK only, diagnostic
    snapshot_index: Optional[int] = None  # MOVE only: when the decision was made


@dataclass(frozen=True)
class Outcome:
    kind: str  # FORMED | LIMIT_EXCEEDED | FAULT
    trace: list
    events_used: int
    final: frozenset
    fault: Optional[str] = None  # collision | symmetric-input | stuck-symmetric | internal
    detail: Optional[str] = None  # the rule's message for a RuleViolation fault


def _shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)`` inline: Fisher-Yates on the same draws."""
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


class Adversary:
    """Base adversary: random per-robot local frames, per-round event order."""

    def __init__(self, fairness_window: int, seed: int = 0):
        if fairness_window < 2:
            raise ValueError("fairness window must be at least 2")
        self.fairness_window = fairness_window
        self._rng = random.Random(seed)

    def robot_frames(self, k: int) -> list[Isometry]:
        return [self._rng.choice(LINEAR_CLASSES) for _ in range(k)]

    def round_order(self, k: int) -> list[tuple[int, str]]:
        raise NotImplementedError


class RoundRobinAdversary(Adversary):
    """Synchronous-like: L0 M0 L1 M1 ... each round, in the global axes."""

    def robot_frames(self, k):
        return [IDENTITY] * k

    def round_order(self, k):
        order = []
        for r in range(k):
            order.append((r, LOOK))
            order.append((r, MOVE))
        return order


class RandomAdversary(Adversary):
    """Uniform interleaving: Looks and Moves shuffled, Look-before-Move
    per robot preserved."""

    def round_order(self, k):
        tokens = list(range(k)) * 2
        _shuffle(self._rng, tokens)
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

    def round_order(self, k):
        looks = list(range(k))
        moves = list(range(k))
        _shuffle(self._rng, looks)
        _shuffle(self._rng, moves)
        return [(r, LOOK) for r in looks] + [(r, MOVE) for r in moves]


ADVERSARIES = {
    "random": RandomAdversary,
    "round_robin": RoundRobinAdversary,
    "max_stale": MaxStaleAdversary,
}


def make_adversary(kind: str, fairness_window: int, seed: int = 0) -> Adversary:
    try:
        cls = ADVERSARIES[kind]
    except KeyError:
        raise ValueError(f"unknown adversary kind: {kind!r}") from None
    return cls(fairness_window, seed)


def _plan(plans: dict, positions: frozenset, frame: Isometry,
          target: TargetPattern):
    """Plan ``positions`` once, in global coordinates, into ``plans``. A
    collinear one has no covariant Y-axis (its canonical frame's y row is a
    local fallback), so it is planned in the robot's own frame under the key
    (positions, frame)."""
    if not collinear(positions):
        plans[positions] = plan = plan_moves(positions, target)
        return plan
    key = (positions, frame)
    if key not in plans:
        local = plan_moves(frame.apply_set(positions), target)
        inv = frame.inverse()
        plans[key] = local._replace(moves={
            inv.apply(s): inv.apply(d) for s, d in local.moves.items()})
    return plans[key]


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
    if not is_asymmetric(initial):
        return Outcome("FAULT", trace, 0, initial, fault="symmetric-input")

    frames = adversary.robot_frames(k)  # local = frame(global)
    pos = sorted(initial)
    pending = [None] * k  # global cell chosen at the last Look; None = stay
    since = [None] * k    # index of that Look
    positions = initial
    plans: dict = {}
    event = tuple.__new__  # (Event, all 7 fields): skips its Python __new__
    append = trace.append

    index = 0
    while True:
        moved = False
        all_formed = True
        any_stuck = False
        seen = None  # the configuration the Look state below was read from
        for rid, kind in adversary.round_order(k):
            if index >= max_events:
                return Outcome("LIMIT_EXCEEDED", trace, index, positions)
            here = pos[rid]
            if kind == LOOK:
                if positions is not seen:
                    plan = plans.get(positions)
                    if plan is None:
                        try:
                            plan = _plan(plans, positions, frames[rid], target)
                        except RuleViolation as exc:
                            return Outcome("FAULT", trace, index, positions,
                                           fault="internal", detail=str(exc))
                    if positions in plans:  # else collinear: per frame
                        seen = positions
                    decide, phase = plan.moves.get, plan.phase
                    all_formed = all_formed and plan.formed
                    any_stuck = any_stuck or plan.stuck_symmetric
                pending[rid] = decide(here)
                since[rid] = index
                append(event(Event, (index, rid, LOOK, here, None, phase,
                                     None)))
            else:
                dest, pending[rid] = pending[rid], None
                append(event(Event, (index, rid, MOVE, here,
                                     here if dest is None else dest,
                                     None, since[rid])))
                if dest is not None:
                    if dest != here and dest in positions:
                        return Outcome("FAULT", trace, index + 1, positions,
                                       fault="collision")
                    positions = (positions - {here}) | {dest}
                    pos[rid] = dest
                    moved = True
            index += 1
        if not moved:
            if all_formed:
                return Outcome("FORMED", trace, index, positions)
            fault = "stuck-symmetric" if any_stuck else "internal"
            return Outcome("FAULT", trace, index, positions, fault=fault)
