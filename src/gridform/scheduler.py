"""Discrete-event ASYNC simulation of the swarm.

Each robot's Look-Compute is one atomic event; its Move is a later event
that applies the stored decision blindly, however stale the snapshot has
become. The adversary hands out events in batches, the next whenever the
last is used up, until a batch leaves no robot enabled (see ``run``). The
round adversaries give one round per batch: every robot Looks once and
Moves once (Look first): any window of 4k events holds each robot's cycle.

Every adversary draws each robot's frame from its RNG (no global axes) and
shuffles with ``_shuffle``: the draws of ``Random.shuffle``, inline. A run
keeps only the plan of the configuration the robots see now. The first Look
after a real Move plans it once for all robots; a line, with no scanned
side, is planned at each Look in the robot's frame (``_plan``).
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .algorithm import RuleViolation, plan_moves
from .canonical import collinear, is_asymmetric
from .geometry import LINEAR_CLASSES, Isometry, Point
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


class Outcome(NamedTuple):
    kind: str  # FORMED | LIMIT_EXCEEDED | FAULT
    trace: list
    final: frozenset
    fault: Optional[str] = None  # collision | symmetric-input | stuck-symmetric | internal
    detail: Optional[str] = None  # the rule's message for a RuleViolation fault

    @property
    def events_used(self) -> int:
        return len(self.trace)


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
        self.fairness_window = fairness_window
        self._rng = random.Random(seed)

    def robot_frames(self, k: int) -> list[Isometry]:
        return [self._rng.choice(LINEAR_CLASSES) for _ in range(k)]

    def next_batch(self, k: int, enabled) -> list[tuple[int, str]]:
        """The next events ``(robot, LOOK|MOVE)``; ``enabled()`` lists the
        enabled robots (see ``run``). A robot Moves only after a Look."""
        raise NotImplementedError


class RoundRobinAdversary(Adversary):
    """Sequential: L0 M0 L1 M1 ... each round, each robot Looking and
    Moving back to back."""

    def next_batch(self, k, enabled):
        return [event for pair in zip(*_events(k)) for event in pair]


class RandomAdversary(Adversary):
    """Uniform interleaving within each round: Looks and Moves shuffled,
    Look-before-Move per robot preserved."""

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
    """All Looks first, then all Moves: each round is FSYNC-like, and a
    decision is at most 2k - 1 events stale."""

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


def _plan(positions: frozenset, frame: Isometry, target: TargetPattern):
    """The plan of the robot with local frame ``frame``, in global cells."""
    local = plan_moves(frame.apply_set(positions), target)
    inv = frame.inverse()
    return local._replace(moves={
        inv.apply(s): inv.apply(d) for s, d in local.moves.items()})


def run(initial: Iterable[Point], target: TargetPattern, adversary: Adversary,
        max_events: int = 100_000) -> Outcome:
    """Simulate until the pattern is formed, a fault occurs, or the event
    budget runs out. A robot is enabled if it holds a pending Move or
    Looked before the last real Move (or never Looked). A batch that leaves
    none enabled ends the run: FORMED if the last plan is ``"DONE"``, else
    ``stuck-symmetric`` if symmetric, else ``internal``. ``events_used`` is
    ``len(trace)``. An empty batch is a ``ValueError``, as is a Move by a
    robot that never Looked or whose last Look has had its Move."""
    initial = frozenset(initial)
    k = len(initial)
    if k != len(target.points):
        raise ValueError("configuration and target sizes differ")
    if adversary.fairness_window < 2 * k:
        raise ValueError("fairness window smaller than one full round")
    trace: list[Event] = []
    if not is_asymmetric(initial):
        return Outcome("FAULT", trace, initial, fault="symmetric-input")

    frames = adversary.robot_frames(k)  # local = frame(global)
    pos = sorted(initial)
    occupied = set(initial)  # updated in place by each real Move
    spent = object()  # pending with no Look to act on: none yet, or Moved on
    pending = [spent] * k  # global cell chosen at the last Look; None = stay
    since, moved = [-1] * k, -1  # index of that Look; of the last real Move

    def enabled():  # in id order; none only if moved < min(since)
        return [r for r, look in enumerate(since)
                if look <= moved or pending[r] not in (None, spent)]

    positions = initial  # occupied, frozen when the plan was last refreshed
    stale = True  # no plan yet, a real Move since, or positions is a line
    event = tuple.__new__  # (Event, all 7 fields): skips its Python __new__
    append = trace.append
    index = 0
    while True:
        batch = adversary.next_batch(k, enabled)
        if not batch:
            raise ValueError("empty batch while robots are enabled")
        for rid, kind in batch:
            if index >= max_events:
                return Outcome("LIMIT_EXCEEDED", trace, frozenset(occupied))
            here = pos[rid]
            if kind == LOOK:
                if stale:  # a line's plan is this robot's own: no sharing
                    positions = frozenset(occupied)
                    stale = collinear(positions)
                    try:
                        phase, moves = (
                            _plan(positions, frames[rid], target) if stale
                            else plan_moves(positions, target))
                    except RuleViolation as exc:
                        return Outcome("FAULT", trace, positions,
                                       fault="internal", detail=str(exc))
                    decide = moves.get
                pending[rid] = decide(here)
                since[rid] = index
                append(event(Event, (index, rid, LOOK, here, None, phase,
                                     None)))
            else:
                dest, pending[rid] = pending[rid], spent
                append(event(Event, (index, rid, MOVE, here,
                                     here if dest is None else dest,
                                     None, since[rid])))
                if dest is not None:
                    if dest is spent:
                        raise ValueError(f"robot {rid} Moves " + (
                            "before any Look" if since[rid] < 0
                            else "twice on one Look"))
                    if dest != here and dest in occupied:
                        return Outcome("FAULT", trace, frozenset(occupied),
                                       fault="collision")
                    occupied.remove(here)
                    occupied.add(dest)
                    pos[rid] = dest
                    moved, stale = index, True
            index += 1
        if moved < min(since) and not enabled():
            if phase == "DONE":
                return Outcome("FORMED", trace, positions)
            return Outcome("FAULT", trace, positions, fault=(
                "internal" if is_asymmetric(positions) else "stuck-symmetric"))
