import pytest

from gridform import scheduler
from gridform.algorithm import RuleViolation, StepPlan
from gridform.geometry import IDENTITY
from gridform.scheduler import (
    LOOK,
    MOVE,
    MaxStaleAdversary,
    RandomAdversary,
    RoundRobinAdversary,
    make_adversary,
    run,
)
from gridform.target import canonicalize_target

from conftest import REF11, LINE11

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
        assert adv.round_order(3) == [
            (0, LOOK), (0, MOVE), (1, LOOK), (1, MOVE), (2, LOOK), (2, MOVE),
        ]
        assert adv.robot_frames(3) == [IDENTITY] * 3

    def test_max_stale_order(self):
        order = MaxStaleAdversary(8, seed=5).round_order(4)
        kinds = [kind for _, kind in order]
        assert kinds == [LOOK] * 4 + [MOVE] * 4

    def test_random_order_is_a_valid_round(self):
        for seed in range(20):
            order = RandomAdversary(8, seed=seed).round_order(4)
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

    def test_trace_rounds_are_fair(self):
        """Every robot Looks once and Moves once within each round of 2k
        events, so any 4k-window contains a full cycle of every robot."""
        out = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=3))
        k = len(REF11)
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
