"""``scheduler.run`` against a reference loop that decides every Look in the
robot's own frame through ``plan_moves``, with no plan cache.

``run`` plans each configuration once, in global coordinates, when the
first Look after a real Move sees it, keeps only that plan, and reads each
robot's destination off it; a collinear configuration, whose Y-axis
fallback is not covariant, is planned per robot frame instead. The
reference does what the model says each robot does, so equal traces show
that planning once per configuration changes nothing a robot would have
decided.
"""

import random

import pytest

from gridform.algorithm import RuleViolation, plan_moves
from gridform.canonical import is_asymmetric
from gridform.geometry import bounding_rect
from gridform.sampling import random_asymmetric_config, random_points
from gridform.scheduler import LOOK, MOVE, Event, Outcome, make_adversary, run
from gridform.target import canonicalize_target

ADVERSARIES = ("random", "round_robin", "max_stale")


def reference_run(initial, target, adversary, max_events=100_000):
    """The ASYNC loop of ``scheduler.run``, with each Look planned by
    ``plan_moves`` on the robot's local snapshot and the destination mapped
    back through the inverse of its frame."""
    initial = frozenset(initial)
    k = len(initial)
    trace = []
    if k >= 2 and not is_asymmetric(initial):
        return Outcome("FAULT", trace, initial, fault="symmetric-input")
    frames = adversary.robot_frames(k)
    pos = sorted(initial)
    pending = [None] * k
    since = [None] * k
    index = 0
    while True:
        moved, all_formed = False, True
        for rid, kind in adversary.next_batch(k, None):
            positions = frozenset(pos)
            if index >= max_events:
                return Outcome("LIMIT_EXCEEDED", trace, positions)
            if kind == LOOK:
                frame = frames[rid]
                here = frame.apply(pos[rid])
                try:
                    plan = plan_moves(frame.apply_set(positions), target)
                except RuleViolation as exc:
                    return Outcome("FAULT", trace, positions,
                                   fault="internal", detail=str(exc))
                dest = plan.moves.get(here)
                pending[rid] = (None if dest is None
                                else frame.inverse().apply(dest))
                since[rid] = index
                all_formed = all_formed and plan.phase == "DONE"
                trace.append(Event(index, rid, LOOK, pos[rid],
                                   phase=plan.phase))
            else:
                dest, pending[rid] = pending[rid], None
                after = pos[rid] if dest is None else dest
                trace.append(Event(index, rid, MOVE, pos[rid], pos_after=after,
                                   snapshot_index=since[rid]))
                if dest is not None:
                    if dest in positions - {pos[rid]}:
                        return Outcome("FAULT", trace, positions,
                                       fault="collision")
                    pos[rid] = dest
                    moved = True
            index += 1
        if not moved:
            positions = frozenset(pos)
            if all_formed:
                return Outcome("FORMED", trace, positions)
            fault = ("internal" if is_asymmetric(positions)
                     else "stuck-symmetric")
            return Outcome("FAULT", trace, positions, fault=fault)


def assert_same_run(config, target, kind, seed):
    k = len(config)
    got = run(config, target, make_adversary(kind, 4 * k, seed))
    want = reference_run(config, target, make_adversary(kind, 4 * k, seed))
    assert got.trace == want.trace
    assert (got.kind, got.fault, got.detail, got.final, got.events_used) == (
        want.kind, want.fault, want.detail, want.final, want.events_used)
    return got


def seeded_runs(n, seed):
    rng = random.Random(seed)
    for i in range(n):
        k = rng.randint(3, 8)
        config = random_asymmetric_config(k, 8, rng)
        target = canonicalize_target(random_points(k, 8, rng))
        yield config, target, ADVERSARIES[i % 3], rng.randrange(2**32)


def line_starts(seed):
    """Horizontal and vertical lines with non-palindromic spacing, k 3..6,
    each paired with a random target."""
    rng = random.Random(seed)
    for k in range(3, 7):
        for vertical in (False, True):
            while True:
                gaps = [rng.randint(1, 3) for _ in range(k - 1)]
                if gaps != gaps[::-1]:
                    break
            xs = [0]
            for g in gaps:
                xs.append(xs[-1] + g)
            line = frozenset((0, x) if vertical else (x, 0) for x in xs)
            yield line, canonicalize_target(random_points(k, 4, rng)), rng


def test_run_matches_per_frame_reference_on_seeded_runs():
    kinds = set()
    for config, target, kind, seed in seeded_runs(120, 20260823):
        out = assert_same_run(config, target, kind, seed)
        assert out.kind == "FORMED"
        kinds.add(kind)
    assert kinds == set(ADVERSARIES)


@pytest.mark.parametrize("kind", ADVERSARIES)
def test_run_matches_reference_from_collinear_starts(kind):
    collinear = 0
    seed = {"random": 3, "round_robin": 5, "max_stale": 4}[kind]
    for line, target, rng in line_starts(seed):
        assert is_asymmetric(line)
        for _ in range(3):
            out = assert_same_run(line, target, kind, rng.randrange(2**32))
            assert out.kind == "FORMED"
            positions = set(line)
            for ev in out.trace:
                if ev.kind == LOOK:
                    x0, y0, x1, y1 = bounding_rect(positions)
                    collinear += x0 == x1 or y0 == y1
                elif ev.pos_after != ev.pos_before:
                    positions.discard(ev.pos_before)
                    positions.add(ev.pos_after)
    # the per-frame fallback for collinear configurations is exercised
    assert collinear > 0


@pytest.mark.parametrize("kind", ADVERSARIES)
def test_event_budget_cuts_run_and_reference_alike(kind):
    """Every budget from 0 to two rounds (2k events each) stops ``run`` and
    the reference at the same event with the same trace."""
    rng = random.Random(5)
    config = random_asymmetric_config(5, 6, rng)
    target = canonicalize_target(random_points(5, 6, rng))
    k, seed = len(config), rng.randrange(2**32)
    whole = run(config, target, make_adversary(kind, 4 * k, seed))
    assert whole.kind == "FORMED" and whole.events_used > 4 * k
    for budget in range(4 * k + 1):
        got = run(config, target, make_adversary(kind, 4 * k, seed),
                  max_events=budget)
        want = reference_run(config, target,
                             make_adversary(kind, 4 * k, seed),
                             max_events=budget)
        assert got.trace == want.trace == whole.trace[:budget]
        assert (got.kind, got.final, got.events_used) == (
            want.kind, want.final, want.events_used)
        assert (got.kind, got.events_used) == ("LIMIT_EXCEEDED", budget)
