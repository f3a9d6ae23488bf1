import random
from collections import Counter

import pytest

from gridform import scheduler
from gridform.algorithm import RuleViolation, StepPlan, plan_moves
from gridform.canonical import collinear
from gridform.geometry import IDENTITY
from gridform.sampling import random_asymmetric_config, random_points
from gridform.scheduler import (
    LOOK,
    MOVE,
    Adversary,
    MaxStaleAdversary,
    RandomAdversary,
    RoundRobinAdversary,
    _shuffle,
    make_adversary,
    run,
)
from gridform.target import TargetPattern, canonicalize_target
from gridform.verify import check_collision_free

from conftest import REF11, LINE11
from oracles import REFERENCE_ADVERSARIES

LINE_TARGET = canonicalize_target(LINE11)


class TestAdversaries:
    def test_factory_aliases(self):
        assert isinstance(make_adversary("random", 8), RandomAdversary)
        assert isinstance(make_adversary("round_robin", 8), RoundRobinAdversary)
        assert isinstance(make_adversary("max_stale", 8), MaxStaleAdversary)
        for alias in ("roundrobin", "stale"):
            with pytest.raises(ValueError, match="unknown adversary"):
                make_adversary(alias, 8)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            make_adversary("chaotic", 8)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="fairness window"):
            make_adversary("random", 1)

    def test_round_robin_order(self):
        adv = RoundRobinAdversary(8)
        assert adv.next_batch(3, None) == [
            (0, LOOK), (0, MOVE), (1, LOOK), (1, MOVE), (2, LOOK), (2, MOVE),
        ]
        assert adv.robot_frames(3) == [IDENTITY] * 3

    def test_max_stale_order(self):
        order = MaxStaleAdversary(8, seed=5).next_batch(4, None)
        kinds = [kind for _, kind in order]
        assert kinds == [LOOK] * 4 + [MOVE] * 4

    def test_random_order_is_a_valid_round(self):
        for seed in range(20):
            order = RandomAdversary(8, seed=seed).next_batch(4, None)
            assert len(order) == 8
            seen = set()
            for rid, kind in order:
                if kind == LOOK:
                    assert rid not in seen
                    seen.add(rid)
                else:
                    assert rid in seen
            assert seen == set(range(4))

    def test_local_frames_drawn_from_the_eight_classes(self):
        frames = RandomAdversary(8, seed=1).robot_frames(50)
        assert {(f.tx, f.ty) for f in frames} == {(0, 0)}
        assert len(set(frames)) > 1
        # the same draw for every adversary that does not override it
        assert MaxStaleAdversary(8, seed=1).robot_frames(50) == frames
        assert RoundRobinAdversary(8, seed=1).robot_frames(3) == [IDENTITY] * 3


class TestDraws:
    """The adversaries draw exactly as ``random.Random.shuffle`` does, so a
    seed gives the same rounds, and the same traces, as it always has."""

    def test_shuffle_matches_random_shuffle(self):
        for n in range(81):
            for seed in range(50):
                mine, theirs = random.Random(seed), random.Random(seed)
                x, y = list(range(n)), list(range(n))
                _shuffle(mine, x)
                theirs.shuffle(y)
                assert x == y, (n, seed)
                assert mine.random() == theirs.random(), (n, seed)

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_round_orders_match_the_reference_bodies(self, kind):
        for k in range(1, 41):
            for seed in range(20):
                adv = make_adversary(kind, 2 * k, seed)
                ref = REFERENCE_ADVERSARIES[kind](2 * k, seed)
                assert adv.robot_frames(k) == ref.robot_frames(k)
                for r in range(30):  # the generator's state carries over
                    assert (adv.next_batch(k, None)
                            == ref.next_batch(k, None)), (k, seed, r)


class TestRun:
    def test_forms_the_line_under_round_robin(self):
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert out.kind == "FORMED"
        assert out.fault is None

    def test_forms_under_random_adversary(self):
        out = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=7))
        assert out.kind == "FORMED"

    def test_forms_under_max_stale(self):
        out = run(REF11, LINE_TARGET, make_adversary("max_stale", 44, seed=7))
        assert out.kind == "FORMED"

    def test_already_formed_halts_in_one_round(self):
        out = run(REF11, canonicalize_target(REF11),
                  make_adversary("round_robin", 44))
        assert out.kind == "FORMED"
        assert out.events_used == 2 * len(REF11)
        assert out.final == REF11

    def test_single_robot_is_formed_in_one_round(self):
        for kind in scheduler.ADVERSARIES:
            out = run({(3, -2)}, canonicalize_target({(0, 0)}),
                      make_adversary(kind, 2, seed=3))
            assert (out.kind, out.fault) == ("FORMED", None)
            assert out.events_used == 2

    def test_symmetric_input_faults(self):
        out = run({(0, 0), (1, 0)}, canonicalize_target({(0, 0), (3, 0)}),
                  make_adversary("round_robin", 4))
        assert out.kind == "FAULT"
        assert out.fault == "symmetric-input"
        assert out.trace == []

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes differ"):
            run({(0, 0)}, LINE_TARGET, make_adversary("round_robin", 44))

    def test_window_below_one_round_rejected(self):
        with pytest.raises(ValueError, match="fairness window"):
            run(REF11, LINE_TARGET, make_adversary("round_robin", 4))

    def test_event_budget(self):
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44),
                  max_events=30)
        assert out.kind == "LIMIT_EXCEEDED"
        assert out.events_used == 30

    def test_same_seed_same_trace(self):
        a = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=42))
        b = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=42))
        assert a.trace == b.trace
        assert a.final == b.final

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_trace_rounds_are_fair(self, kind):
        """Every robot Looks once and Moves once within each round of 2k
        events, so any 4k-window contains a full cycle of every robot."""
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=3))
        k = len(REF11)
        assert out.kind == "FORMED" and out.events_used % (2 * k) == 0
        for start in range(0, len(out.trace) - 2 * k + 1, 2 * k):
            window = out.trace[start:start + 2 * k]
            looks = [ev.robot for ev in window if ev.kind == LOOK]
            moves = [ev.robot for ev in window if ev.kind == MOVE]
            assert sorted(looks) == list(range(k))
            assert sorted(moves) == list(range(k))

    def test_max_stale_decisions_are_stale(self):
        out = run(REF11, LINE_TARGET, make_adversary("max_stale", 44, seed=3))
        k = len(REF11)
        stale = [
            ev for ev in out.trace
            if ev.kind == MOVE and ev.index - ev.snapshot_index > 1
        ]
        # with all Looks preceding all Moves, most decisions are k+ old
        assert any(ev.index - ev.snapshot_index >= k for ev in stale)

    def test_event_indices_are_contiguous(self):
        out = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=1))
        assert [ev.index for ev in out.trace] == list(range(len(out.trace)))

    def test_final_matches_last_positions(self):
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        positions = {}
        for ev in out.trace:
            positions[ev.robot] = (
                ev.pos_after if ev.kind == MOVE else ev.pos_before
            )
        assert frozenset(positions.values()) == out.final


class TestRuleViolation:
    def test_becomes_an_internal_fault(self, monkeypatch):
        def broken(points, target):
            raise RuleViolation("phase 2 with the head already at the origin")

        monkeypatch.setattr(scheduler, "plan_moves", broken)
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert out.kind == "FAULT"
        assert out.fault == "internal"
        assert out.detail == "phase 2 with the head already at the origin"
        assert out.events_used == 0
        assert out.trace == []
        assert out.final == REF11


class TestCollision:
    def test_move_onto_an_occupied_cell_is_a_collision(self, monkeypatch):
        def onto_neighbour(points, target):
            return StepPlan(formed=False, phase="P1", moves={(0, 1): (0, 3)})

        monkeypatch.setattr(scheduler, "plan_moves", onto_neighbour)
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert out.kind == "FAULT"
        assert out.fault == "collision"
        assert out.events_used == 2
        assert out.final == REF11
        assert out.trace[-1].pos_after == (0, 3)


def fixed_plan(*plans):
    """A ``plan_moves`` stand-in: ``plans[0]`` for REF11, ``plans[-1]`` for
    any other configuration."""
    return lambda points, target: plans[0] if points == REF11 else plans[-1]


class TestTermination:
    K = len(REF11)

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_always_stuck_ends_after_one_round(self, monkeypatch, kind):
        stuck = StepPlan(False, "P3", {}, stuck_symmetric=True)
        monkeypatch.setattr(scheduler, "plan_moves", fixed_plan(stuck))
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=1))
        assert (out.kind, out.fault) == ("FAULT", "stuck-symmetric")
        assert out.events_used == len(out.trace) == 2 * self.K
        assert out.final == REF11

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_not_formed_with_no_moves_is_internal(self, monkeypatch, kind):
        idle = StepPlan(False, "P1", {})
        monkeypatch.setattr(scheduler, "plan_moves", fixed_plan(idle))
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=1))
        assert (out.kind, out.fault) == ("FAULT", "internal")
        assert out.events_used == 2 * self.K

    def test_each_round_rereads_the_plan(self, monkeypatch):
        """Round 1 ends on the configuration its last Looks refreshed; the
        verdict after round 2 must read that plan's flags, or an idle,
        unformed swarm would end as FORMED."""
        first = StepPlan(False, "P1", {(0, 1): (0, 2)})
        monkeypatch.setattr(scheduler, "plan_moves",
                            fixed_plan(first, StepPlan(False, "P1", {})))
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert (out.kind, out.fault) == ("FAULT", "internal")
        assert out.events_used == 4 * self.K
        assert out.final == REF11 - {(0, 1)} | {(0, 2)}

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_a_move_that_ends_a_round_is_seen_after_it(self, monkeypatch,
                                                       kind):
        """The first round's only real Move is its last event under
        round_robin: no Move is pending when the round ends, but the other
        robots Looked before that Move, so they are still enabled and the
        run goes one more round. A rule that read only the pending Moves
        would stop after 2k events."""
        last = sorted(REF11)[-1]
        step = {last: (last[0] + 1, last[1])}
        monkeypatch.setattr(scheduler, "plan_moves", fixed_plan(
            StepPlan(False, "P1", step), StepPlan(False, "P1", {})))
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=1))
        assert (out.kind, out.fault) == ("FAULT", "internal")
        assert out.events_used == 4 * self.K
        assert out.final == REF11 - {last} | set(step.values())
        moves = [ev.index for ev in out.trace
                 if ev.kind == MOVE and ev.pos_after != ev.pos_before]
        assert len(moves) == 1
        assert kind != "round_robin" or moves == [2 * self.K - 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_one_event_batches_end_when_no_robot_is_enabled(self, seed):
        out = run(REF11, LINE_TARGET, OneEventAdversary(44, seed))
        assert out.kind == "FORMED"
        enabled = enabled_after_each_event(out.trace, self.K)
        assert all(enabled[:-1]) and not enabled[-1]
        assert check_collision_free(out.trace).passed


class OneEventAdversary(Adversary):
    """One event per batch: a seeded pick among the enabled robots, which
    Moves if its last event was a Look and Looks otherwise."""

    def __init__(self, fairness_window, seed):
        super().__init__(fairness_window, seed)
        self.looked = set()

    def next_batch(self, k, enabled):
        robots = enabled()
        assert robots, "asked for a batch with no robot enabled"
        r = self._rng.choice(robots)
        kind = MOVE if r in self.looked else LOOK
        self.looked ^= {r}
        return [(r, kind)]


def enabled_after_each_event(trace, k):
    """The robots enabled after each event, replayed from the trace alone:
    a Look leaves a Move pending until its robot's next event if that
    event moves it; a robot whose last Look came before the last real Move,
    or that never Looked, is enabled too."""
    following, last = {}, {}
    for ev in trace:
        if ev.robot in last:
            following[last[ev.robot]] = ev
        last[ev.robot] = ev.index
    pending, looked, moved, after = set(), [-1] * k, -1, []
    for ev in trace:
        if ev.kind == LOOK:
            looked[ev.robot] = ev.index
            nxt = following.get(ev.index)
            if nxt and nxt.kind == MOVE and nxt.pos_after != nxt.pos_before:
                pending.add(ev.robot)
        else:
            pending.discard(ev.robot)
            if ev.pos_after != ev.pos_before:
                moved = ev.index
        after.append({r for r in range(k) if r in pending or looked[r] < moved
                      or looked[r] < 0})
    return after


def plans_expected(initial, out, frames):
    """What ``run`` must plan for ``out.trace``: each distinct
    configuration seen at a Look, in global coordinates, or, for a
    collinear one, its image in each distinct frame that Looked at it."""
    cells = sorted(initial)
    keys = set()
    for ev in out.trace:
        if ev.kind == LOOK:
            c = frozenset(cells)
            keys.add((c, frames[ev.robot]) if collinear(c) else c)
        else:
            cells[ev.robot] = ev.pos_after
    return Counter(key if isinstance(key, frozenset)
                   else key[1].apply_set(key[0]) for key in keys)


class TestPlanRefresh:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counting(points, target):
            calls[frozenset(points)] += 1
            return plan_moves(points, target)

        monkeypatch.setattr(scheduler, "plan_moves", counting)
        return calls

    def test_one_plan_per_configuration_on_seeded_runs(self, calls):
        rng = random.Random(4)
        for i in range(24):
            k = rng.randint(3, 9)
            config = random_asymmetric_config(k, 7, rng)
            target = canonicalize_target(random_points(k, 7, rng))
            kind = ("random", "round_robin", "max_stale")[i % 3]
            calls.clear()
            out = run(config, target, make_adversary(kind, 4 * k, i))
            assert out.kind == "FORMED"
            frames = make_adversary(kind, 4 * k, i).robot_frames(k)
            assert calls == plans_expected(config, out, frames), i

    def test_collinear_start_is_planned_per_frame(self, calls):
        start = frozenset({(0, 0), (1, 0), (3, 0)})
        target = canonicalize_target({(0, 0), (2, 0), (0, 1)})
        split = 0
        for seed in range(8):
            calls.clear()
            out = run(start, target, make_adversary("max_stale", 12, seed))
            assert out.kind == "FORMED"
            frames = make_adversary("max_stale", 12, seed).robot_frames(3)
            assert calls == plans_expected(start, out, frames), seed
            # every robot Looks at the start in round 1: one plan per frame
            images = {f.apply_set(start) for f in frames}
            assert sum(calls[i] for i in images) == len(set(frames)), seed
            split += len(images) >= 2
        assert split >= 4


def test_empty_configuration_is_rejected():
    empty = TargetPattern(frozenset(), 0, 0, (0, 0), (0, 0))
    with pytest.raises(ValueError, match="empty configuration"):
        run(frozenset(), empty, make_adversary("random", 2))
