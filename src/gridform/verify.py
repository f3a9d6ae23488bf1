"""Post-hoc trace checkers."""

from __future__ import annotations

from typing import Iterable

from .geometry import Point, similar
from .scheduler import Event, LOOK, MOVE
from .target import TargetPattern


class Verdict:
    """A checker's findings: one ``(index, rule, detail)`` per violation."""

    __slots__ = ("violations",)

    def __init__(self):
        self.violations = []

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


def check_collision_free(trace: Iterable[Event]) -> Verdict:
    """Replay the trace and flag any event after which two robots coincide
    ("collision") or any real Move that is not one grid step ("step").

    ``count`` holds how many known robots stand on each occupied cell, so
    every event is O(1); a cell stays occupied until its last robot leaves.
    """
    v = Verdict()
    positions: dict[int, Point] = {}
    count: dict[Point, int] = {}
    for ev in trace:  # Event's fields by position: see ``Event._fields``
        kind = ev[2]
        if kind not in (LOOK, MOVE):
            raise ValueError(f"malformed trace: unknown event kind {kind!r}")
        robot, before = ev[1], ev[3]
        known = positions.get(robot)
        if known is None:
            if before in count:
                v.flag(ev[0], "collision",
                       f"robot {robot} starts on an occupied cell")
            positions[robot] = before
            count[before] = count.get(before, 0) + 1
        elif known != before:
            raise ValueError(f"malformed trace: robot {robot} jumps at "
                             f"event {ev[0]}")
        if kind == MOVE and (after := ev[4]) != before:
            if after is None:
                raise ValueError(f"malformed trace: robot {robot} moves to "
                                 f"no cell at event {ev[0]}")
            if abs(after[0] - before[0]) + abs(after[1] - before[1]) != 1:
                v.flag(ev[0], "step", f"robot {robot} moves {before} -> "
                       f"{after}, not to an adjacent cell")
            if after in count:  # the mover stands on ``before``, not here
                v.flag(ev[0], "collision",
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
    """Phases observed at Look events must be ``PHASE_EDGES`` keys and
    follow the transition diagram (stuttering collapsed)."""
    v = Verdict()
    prev = None
    for ev in trace:  # Event's fields by position: see ``Event._fields``
        phase = ev[5]
        if phase is None or ev[2] != LOOK or phase == prev:
            continue
        if phase not in PHASE_EDGES:
            v.flag(ev[0], "phase-unknown", f"unknown phase {phase!r}")
        elif prev in PHASE_EDGES and phase not in PHASE_EDGES[prev]:
            v.flag(ev[0], "phase-transition", f"{prev} -> {phase}")
        prev = phase
    return v


def back_edge_count(trace: Iterable[Event]) -> int:
    """How many times the phase sequence takes the 3 -> 1 back edge."""
    phases = [ev.phase for ev in trace if ev.kind == LOOK and ev.phase]
    return list(zip(phases, phases[1:])).count(("P3", "P1"))
