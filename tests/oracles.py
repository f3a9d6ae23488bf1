"""Brute-force oracles that only the tests use: the symmetries of a
configuration by exhausting the isometries of its bounding rectangle, its
dense occupancy string in a frame, phase 4's path protocol simulated under
several activation orders, the plan with its moves mapped back by
arithmetic, and the adversaries' round orders drawn through
``random.Random.shuffle``."""

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from gridform.algorithm import (RuleViolation, StepPlan, pf_on_path_moves,
                                phase_moves)
from gridform.canonical import (canonical_frames, from_frame_coords,
                                to_frame_coords)
from gridform.conditions import (classify_phase, evaluate_conditions,
                                 target_key)
from gridform.geometry import Isometry, Point, bounding_rect
from gridform.scheduler import (LOOK, MOVE, MaxStaleAdversary,
                                RandomAdversary, RoundRobinAdversary)
from gridform.verify import Verdict

MAX_ORDERS = 6  # activation orders ``oracle_pf_on_path`` samples for k > 3


def brute_force_symmetries(c: Iterable[Point]) -> list[Isometry]:
    """All non-trivial symmetries of ``c``, by exhausting the isometries
    that map its bounding rectangle to itself.

    For an axis-aligned collinear configuration (degenerate rectangle) the
    reflection across its own line fixes every scan and is trivial; any
    other point-fixing symmetry (a diagonal reflection of a diagonal
    configuration) still swaps the corner scans and counts.
    """
    occupied = frozenset(c)
    x0, y0, x1, y1 = bounding_rect(occupied)
    candidates = [
        Isometry(-1, 0, 0, 1, x0 + x1, 0),         # vertical axis
        Isometry(1, 0, 0, -1, 0, y0 + y1),         # horizontal axis
        Isometry(-1, 0, 0, -1, x0 + x1, y0 + y1),  # 180 deg
    ]
    if x1 - x0 == y1 - y0:
        candidates += [  # main diagonal, anti-diagonal, 90 deg CW, CCW
            Isometry(0, 1, 1, 0, x0 - y0, y0 - x0),
            Isometry(0, -1, -1, 0, x0 + y1, y0 + x1),
            Isometry(0, 1, -1, 0, x0 - y0, y0 + x1),
            Isometry(0, -1, 1, 0, x0 + y1, y0 - x0),
        ]
    degenerate = x0 == x1 or y0 == y1
    return [g for g in candidates if g.apply_set(occupied) == occupied
            and not (degenerate and all(g.apply(p) == p for p in occupied))]


def frame_string(c: Iterable[Point], f: Isometry) -> str:
    """The occupancy string of ``c`` scanned in frame ``f``, cell by cell:
    the reference for the strings ``corner_strings`` builds from keys."""
    cf = f.apply_set(c)
    x0, y0, x1, y1 = bounding_rect(cf)
    n, m = x1 - x0 + 1, y1 - y0 + 1
    return "".join(
        "1" if (i, j) in cf else "0" for i in range(n) for j in range(m)
    )


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


def arithmetic_map_back(fm: dict, frame: Isometry) -> dict:
    """Frame moves mapped back through ``frame``'s transpose, the frame
    unpacked once: ``plan_moves``' map-back before it read a memo."""
    a, b, c, d, tx, ty = frame
    ux, uy = -(a * tx + c * ty), -(b * tx + d * ty)
    return {(a * x + c * y + ux, b * x + d * y + uy):
            (a * u + c * v + ux, b * u + d * v + uy)
            for (x, y), (u, v) in fm.items()}


def reference_plan_moves(points: Iterable[Point], t) -> StepPlan:
    """``plan_moves`` with the first frame's map-back done by arithmetic
    per mover (``arithmetic_map_back``)."""
    points = frozenset(points)
    frames = canonical_frames(points)
    key = to_frame_coords(points, frames)
    short_len = frames.spec[3]
    if key == target_key(t, short_len)[1]:
        return StepPlan(phase="DONE", moves={})
    try:
        cv = evaluate_conditions(key, short_len, t)
        phase = classify_phase(cv)
        fm = phase_moves(key, cv, phase, t)
    except RuleViolation:
        if len(frames) == 1:
            raise
        return StepPlan(phase=None, moves={})
    moves = arithmetic_map_back(fm, frames[0])
    for g in frames[1:]:
        other = {from_frame_coords(src, g): from_frame_coords(dst, g)
                 for src, dst in fm.items()}
        moves = {src: dst for src, dst in moves.items()
                 if other.get(src) == dst}
    return StepPlan(phase, moves)


# The adversaries' round bodies as they were before the scheduler
# shuffled inline with ``scheduler._shuffle`` and made its events once per
# k: each draw goes through ``random.Random.shuffle``.

class ReferenceRoundRobin(RoundRobinAdversary):
    def next_batch(self, k, enabled):
        order = []
        for r in range(k):
            order.append((r, LOOK))
            order.append((r, MOVE))
        return order


class ReferenceRandom(RandomAdversary):
    def next_batch(self, k, enabled):
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


class ReferenceMaxStale(MaxStaleAdversary):
    def next_batch(self, k, enabled):
        looks = list(range(k))
        moves = list(range(k))
        self._rng.shuffle(looks)
        self._rng.shuffle(moves)
        return [(r, LOOK) for r in looks] + [(r, MOVE) for r in moves]


REFERENCE_ADVERSARIES = {
    "random": ReferenceRandom,
    "round_robin": ReferenceRoundRobin,
    "max_stale": ReferenceMaxStale,
}
