"""Discrete-event ASYNC simulation of the swarm.

Each robot's Look-Compute is one atomic event; its Move is a later event
that applies the stored decision blindly, however stale the snapshot has
become. The adversary hands out events in batches, the next whenever the
last is used up, until a batch leaves no robot enabled (see ``run``). The
round adversaries give one round per batch: every robot Looks once and
Moves once (Look first): any window of 4k events holds each robot's cycle.

Adversaries shuffle with ``_shuffle``: the draws of ``Random.shuffle``,
inline. A Look re-reads the plan only when the configuration changed since
the last refresh; a collinear one refreshes every Look.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=64)
def _events(k: int) -> tuple:
    """The events ``(r, LOOK)`` and ``(r, MOVE)`` for r < k, once per k."""
    return tuple(tuple((r, kind) for r in range(k)) for kind in (LOOK, MOVE))


class Adversary:
    """Base adversary: random per-robot local frames, batches of events."""

    def __init__(self, fairness_window: int, seed: int = 0):
        if fairness_window < 2:
            raise ValueError("fairness window must be at least 2")
        self.fairness_window = fairness_window
        self._rng = random.Random(seed)

    def robot_frames(self, k: int) -> list[Isometry]:
        return [self._rng.choice(LINEAR_CLASSES) for _ in range(k)]

    def next_batch(self, k: int, enabled) -> list[tuple[int, str]]:
        """The next events ``(robot, LOOK|MOVE)``; ``enabled()`` lists the
        enabled robots (see ``run``). A robot Moves only after a Look."""
        raise NotImplementedError


class RoundRobinAdversary(Adversary):
    """Synchronous-like: L0 M0 L1 M1 ... each round, in the global axes."""

    def robot_frames(self, k):
        return [IDENTITY] * k

    def next_batch(self, k, enabled):
        return [event for pair in zip(*_events(k)) for event in pair]


class RandomAdversary(Adversary):
    """Uniform interleaving: Looks and Moves shuffled, Look-before-Move
    per robot preserved."""

    def next_batch(self, k, enabled):
        looks, moves = _events(k)
        tokens = list(range(k)) * 2
        _shuffle(self._rng, tokens)
        ahead = list(looks)  # each robot's next event: its Look, then Move
        order = []
        for r in tokens:
            order.append(ahead[r])
            ahead[r] = moves[r]
        return order


class MaxStaleAdversary(Adversary):
    """All Looks first, then all Moves: every decision is maximally stale."""

    def next_batch(self, k, enabled):
        looks, moves = map(list, _events(k))
        _shuffle(self._rng, looks)  # the draws of shuffling range(k)
        _shuffle(self._rng, moves)
        return looks + moves


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
    budget runs out. A robot is enabled if it holds a pending Move or
    Looked before the last real Move (or never Looked). The run is over
    after a batch that leaves none enabled, with the verdict of the plans
    of the final configuration, which every robot Looked at last."""
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
    since, moved = [-1] * k, -1  # index of that Look; of the last real Move

    def enabled():  # in id order; none only if moved < min(since)
        return [r for r, look in enumerate(since)
                if look <= moved or pending[r] is not None]

    positions = initial
    plans: dict = {}
    event = tuple.__new__  # (Event, all 7 fields): skips its Python __new__
    append = trace.append
    index = 0
    seen = None  # the configuration the Look state below was read from
    while True:
        for rid, kind in adversary.next_batch(k, enabled):
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
                    moved = index
            index += 1
        if moved < min(since) and not enabled():
            final = [plans.get(positions) or plans[positions, f]
                     for f in frames]
            if all(plan.formed for plan in final):
                return Outcome("FORMED", trace, index, positions)
            stuck = any(plan.stuck_symmetric for plan in final)
            return Outcome("FAULT", trace, index, positions,
                           fault="stuck-symmetric" if stuck else "internal")
