"""Post-hoc trace checkers and brute-force oracles."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .algorithm import pf_on_path_moves
from .geometry import Point, similar
from .scheduler import Event, LOOK, MOVE
from .target import TargetPattern


@dataclass
class Verdict:
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, index: int, rule: str, detail: str):
        self.violations.append((index, rule, detail))


# Legal phase transitions; the 3 -> 1 edge is the only cycle and must
# still terminate.
PHASE_EDGES = {
    "P1": {"P2", "P3", "P4", "P5", "P6"},
    "P2": {"P3", "P4", "P5"},
    "P3": {"P4", "P1"},
    "P4": {"P5"},
    "P5": {"P6", "P7"},
    "P6": {"P7"},
    "P7": {"DONE"},
    "DONE": set(),
}
MAX_ORDERS = 6  # activation orders ``oracle_pf_on_path`` samples for k > 3


def check_collision_free(trace: Iterable[Event]) -> Verdict:
    """Replay the trace and flag any event after which two robots coincide.

    ``count`` holds how many known robots stand on each occupied cell, so
    every event is O(1); a cell stays occupied until its last robot leaves.
    """
    v = Verdict()
    positions: dict[int, Point] = {}
    count: dict[Point, int] = {}
    for ev in trace:
        # Event's first five fields, pinned by tests/test_verify.py
        index, robot, kind, before, after = ev[:5]
        if kind not in (LOOK, MOVE):
            raise ValueError(f"malformed trace: unknown event kind {kind!r}")
        known = positions.get(robot)
        if known is None:
            if before in count:
                v.flag(index, "collision",
                       f"robot {robot} starts on an occupied cell")
            positions[robot] = before
            count[before] = count.get(before, 0) + 1
        elif known != before:
            raise ValueError(
                f"malformed trace: robot {robot} jumps at event {index}"
            )
        if kind == MOVE and after != before:
            if after in count:  # the mover stands on ``before``, not here
                v.flag(index, "collision",
                       f"robot {robot} moves onto an occupied cell")
            positions[robot] = after
            if count[before] == 1:
                del count[before]
            else:
                count[before] -= 1
            count[after] = count.get(after, 0) + 1
    return v


def check_formed(final: Iterable[Point], t: TargetPattern) -> Verdict:
    v = Verdict()
    if similar(final, t.points) is None:
        v.flag(-1, "formed", "final configuration is not similar to the target")
    return v


def check_phase_transitions(trace: Iterable[Event]) -> Verdict:
    """Phases observed at Look events must follow the transition diagram
    (stuttering collapsed)."""
    v = Verdict()
    prev = None
    for ev in trace:
        if ev.kind != LOOK or ev.phase is None:
            continue
        if prev is not None and ev.phase != prev:
            if ev.phase not in PHASE_EDGES.get(prev, set()):
                v.flag(ev.index, "phase-transition", f"{prev} -> {ev.phase}")
        prev = ev.phase
    return v


def back_edge_count(trace: Iterable[Event]) -> int:
    """How many times the phase sequence takes the 3 -> 1 back edge."""
    count = 0
    prev = None
    for ev in trace:
        if ev.kind != LOOK or ev.phase is None:
            continue
        if prev == "P3" and ev.phase == "P1":
            count += 1
        prev = ev.phase
    return count


@dataclass
class PathOracleResult:
    total_steps: int
    verdict: Verdict


def oracle_pf_on_path(robots: tuple, targets: tuple,
                      rng: Optional[random.Random] = None) -> PathOracleResult:
    """Sequentially simulate phase 4's path protocol (``pf_on_path_moves``)
    under several activation orders; every robot must reach its target with
    no collision, no deadlock, no swaps, and exactly the sum of index
    distances in executed steps."""
    assert len(robots) == len(targets)
    assert list(robots) == sorted(set(robots))
    assert list(targets) == sorted(set(targets))
    v = Verdict()
    k = len(robots)
    expected = sum(abs(r - t) for r, t in zip(robots, targets))
    if k == 0:
        return PathOracleResult(0, v)
    if k <= 3:
        orders = list(itertools.permutations(range(k)))
    else:
        rng = rng or random.Random(0)
        orders = [tuple(rng.sample(range(k), k)) for _ in range(MAX_ORDERS)]
    total = expected
    for order in orders:
        positions = list(robots)
        steps = 0
        while positions != list(targets):
            progressed = False
            for i in order:
                nxt = pf_on_path_moves(positions, targets).get(positions[i])
                if nxt is not None:
                    positions[i] = nxt
                    steps += 1
                    progressed = True
                if len(set(positions)) != k:
                    v.flag(steps, "collision",
                           f"order {order}: two robots share an index")
                    return PathOracleResult(steps, v)
                if sorted(positions) != positions:
                    v.flag(steps, "swap", f"order {order}: robots crossed")
                    return PathOracleResult(steps, v)
            if not progressed:
                # The protocol is deterministic: a full pass without a move
                # can never unblock.
                v.flag(steps, "deadlock", f"order {order}: no progress")
                return PathOracleResult(steps, v)
        if steps != expected:
            v.flag(steps, "step-count",
                   f"order {order}: {steps} steps, expected {expected}")
        total = steps
    return PathOracleResult(total, v)
