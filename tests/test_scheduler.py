import random
import weakref
from collections import Counter
from itertools import combinations

import pytest

from gridform import scheduler, verify
from gridform.algorithm import RuleViolation, StepPlan, plan_moves
from gridform.canonical import collinear
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

    def test_round_robin_order(self):
        adv = RoundRobinAdversary(8)
        assert adv.next_batch(3, None) == [
            (0, LOOK), (0, MOVE), (1, LOOK), (1, MOVE), (2, LOOK), (2, MOVE),
        ]
        # no robot sees the global axes: the frames are random's draws
        assert adv.robot_frames(3) == RandomAdversary(8).robot_frames(3)

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
        # the same draw for every adversary: none overrides it
        assert MaxStaleAdversary(8, seed=1).robot_frames(50) == frames
        assert RoundRobinAdversary(8, seed=1).robot_frames(50) == frames
        assert not any("robot_frames" in vars(cls)
                       for cls in scheduler.ADVERSARIES.values())


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

    def test_outcome_reads_its_event_count_off_the_trace(self):
        assert scheduler.Outcome._fields == (
            "kind", "trace", "final", "fault", "detail")
        out = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=7))
        assert out.events_used == len(out.trace) > 0

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
            return StepPlan(phase="P1", moves={(0, 1): (0, 3)})

        monkeypatch.setattr(scheduler, "plan_moves", onto_neighbour)
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert out.kind == "FAULT"
        assert out.fault == "collision"
        assert out.events_used == 2
        assert out.final == REF11
        assert out.trace[-1].pos_after == (0, 3)


def fixed_plan(*plans, start=REF11):
    """A ``plan_moves`` stand-in: ``plans[0]`` for ``start``, ``plans[-1]``
    for any other configuration."""
    return lambda points, target: plans[0] if points == start else plans[-1]


# asymmetric; its stand-in steps it into the L-tromino, which has two frames
BENT = frozenset({(0, 0), (1, 0), (0, 2)})
BENT_TARGET = canonicalize_target({(0, 0), (1, 0), (2, 0)})
TO_TROMINO = fixed_plan(StepPlan("P1", {(0, 2): (0, 1)}), StepPlan("P3", {}),
                        start=BENT)


class TestTermination:
    K = len(REF11)

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_always_stuck_ends_after_one_round(self, monkeypatch, kind):
        """One step makes the swarm symmetric, and no one moves after it:
        one round at the L-tromino ends the run, unformed and symmetric."""
        monkeypatch.setattr(scheduler, "plan_moves", TO_TROMINO)
        out = run(BENT, BENT_TARGET, make_adversary(kind, 12, seed=1))
        assert (out.kind, out.fault) == ("FAULT", "stuck-symmetric")
        assert out.events_used == len(out.trace) == 4 * len(BENT)
        assert out.final == {(0, 0), (1, 0), (0, 1)}

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_not_formed_with_no_moves_is_internal(self, monkeypatch, kind):
        idle = StepPlan("P1", {})
        monkeypatch.setattr(scheduler, "plan_moves", fixed_plan(idle))
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=1))
        assert (out.kind, out.fault) == ("FAULT", "internal")
        assert out.events_used == 2 * self.K

    def test_each_round_rereads_the_plan(self, monkeypatch):
        """Round 1 ends on the configuration its last Looks refreshed; the
        verdict after round 2 must read that plan's flags, or an idle,
        unformed swarm would end as FORMED."""
        first = StepPlan("P1", {(0, 1): (0, 2)})
        monkeypatch.setattr(scheduler, "plan_moves",
                            fixed_plan(first, StepPlan("P1", {})))
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
            StepPlan("P1", step), StepPlan("P1", {})))
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
    configuration seen at a Look, in global coordinates, and, at each Look
    of a collinear one, its image in that robot's frame."""
    cells = sorted(initial)
    seen, plans = set(), Counter()
    for ev in out.trace:
        if ev.kind == LOOK:
            c = frozenset(cells)
            if collinear(c):
                plans[frames[ev.robot].apply_set(c)] += 1
            elif c not in seen:
                seen.add(c)
                plans[c] += 1
        else:
            cells[ev.robot] = ev.pos_after
    return plans


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
            # every robot Looks at the start in round 1: one plan per Look
            images = {f.apply_set(start) for f in frames}
            assert sum(calls[i] for i in images) == len(frames), seed
            split += len(images) >= 2
        assert split >= 4

    def test_one_collinear_scan_per_plan(self, calls, monkeypatch):
        """Only ``run`` asks whether a configuration is a line, once at
        each plan refresh, and each refresh plans once."""
        scans = Counter()

        def counting(points):
            scans[collinear(points)] += 1
            return collinear(points)

        monkeypatch.setattr(scheduler, "collinear", counting)
        rng = random.Random(4)
        starts = [({(0, 0), (1, 0), (3, 0)}, {(0, 0), (2, 0), (0, 1)})] * 3
        for _ in range(6):
            k = rng.randint(3, 9)
            starts.append((random_asymmetric_config(k, 7, rng),
                           random_points(k, 7, rng)))
        for i, (config, target) in enumerate(starts):
            kind = ("random", "round_robin", "max_stale")[i % 3]
            out = run(config, canonicalize_target(target),
                      make_adversary(kind, 4 * len(config), i))
            assert out.kind == "FORMED"
        assert scans[True] > 0 and scans[False] > 0
        assert sum(scans.values()) == sum(calls.values())


def asymmetric_rows(width, ks):
    """Every asymmetric k-subset of a 1 x ``width`` row that holds its
    first cell, once up to reversal."""
    rows = []
    for k in ks:
        for rest in combinations(range(1, width), k - 1):
            xs = (0, *rest)
            mirror = tuple(sorted(xs[-1] - x for x in xs))
            if mirror != xs and mirror not in rows:
                rows.append(xs)
    return [frozenset((x, 0) for x in xs) for xs in rows]


def box_targets(side, k):
    """Every k-point target in a side x side box, once up to isometry."""
    cells = [(x, y) for x in range(side) for y in range(side)]
    found = {canonicalize_target(c) for c in combinations(cells, k)}
    return sorted(found, key=lambda t: sorted(t.points))


class TestLineStarts:
    def test_every_line_start_forms_under_every_adversary(self, monkeypatch):
        """A line has no scanned side, so each robot plans it in its own
        frame: every adversary must reach those plans, and form."""
        plans = Counter()
        plan = scheduler._plan

        def counting(positions, frame, target):
            plans[kind] += 1
            return plan(positions, frame, target)

        monkeypatch.setattr(scheduler, "_plan", counting)
        starts = asymmetric_rows(7, (3, 4, 5))
        targets = {k: box_targets(3, k) for k in (3, 4, 5)}
        assert Counter(map(len, starts)) == {3: 6, 4: 7, 5: 6}
        assert [len(targets[k]) for k in (3, 4, 5)] == [10, 20, 21]
        runs = 0
        for kind in scheduler.ADVERSARIES:
            for start in starts:
                k = len(start)
                for target in targets[k]:
                    out = run(start, target, make_adversary(kind, 4 * k, 1))
                    assert out.kind == "FORMED", (kind, start, target)
                    assert verify.check_collision_free(out.trace).passed
                    assert verify.check_phase_transitions(out.trace).passed
                    assert verify.check_formed(out.final, target).passed
                    runs += 1
        assert runs == 978
        assert all(plans[kind] > 0 for kind in scheduler.ADVERSARIES)


class ScriptedAdversary(Adversary):
    """Hands out the given batches in order, then raises, so that a run
    that keeps asking for batches fails instead of hanging."""

    def __init__(self, *batches):
        super().__init__(44)
        self.batches = list(batches)

    def next_batch(self, k, enabled):
        if not self.batches:
            raise RuntimeError("the run asked for more batches")
        return self.batches.pop(0)


class TestBadBatches:
    def test_an_empty_batch_is_rejected(self):
        adv = ScriptedAdversary([(0, LOOK)], [], [], [])
        with pytest.raises(ValueError, match="empty batch"):
            run(REF11, LINE_TARGET, adv)

    @pytest.mark.parametrize("batch", [[(0, MOVE)], [(0, LOOK), (3, MOVE)]])
    def test_a_move_before_any_look_is_rejected(self, batch):
        rid = batch[-1][0]
        with pytest.raises(ValueError,
                           match=f"robot {rid} Moves before any Look"):
            run(REF11, LINE_TARGET, ScriptedAdversary(batch))

    @pytest.mark.parametrize("real", [False, True], ids=["idle", "real"])
    def test_a_second_move_on_one_look_is_rejected(self, real):
        """The first Move, idle or real, spends the Look: a second Move
        before the robot Looks again has no decision to apply. Another
        robot Looks first, so the spent Look is not at index 0."""
        moves = plan_moves(REF11, LINE_TARGET).moves
        rid = next(r for r, cell in enumerate(sorted(REF11))
                   if (cell in moves) == real)
        other = (rid + 1) % len(REF11)
        batch = [(other, LOOK), (rid, LOOK), (rid, MOVE), (rid, MOVE)]
        with pytest.raises(ValueError,
                           match=f"robot {rid} Moves twice on one Look"):
            run(REF11, LINE_TARGET, ScriptedAdversary(batch))


class Moves(dict):
    """A plan's moves, which a weak reference can watch."""


class TestPlanLifetime:
    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_only_the_last_plan_outlives_the_next_refresh(self, monkeypatch,
                                                          kind):
        """When configuration n is planned, every plan of configuration
        n - 2 or earlier is gone; that of n - 1 may still be read."""
        refs, alive = [], 0

        def watched(points, target):
            nonlocal alive
            assert all(ref() is None for ref in refs[:-1]), len(refs)
            alive += bool(refs and refs[-1]() is not None)
            plan = plan_moves(points, target)
            moves = Moves(plan.moves)
            refs.append(weakref.ref(moves))
            return plan._replace(moves=moves)

        monkeypatch.setattr(scheduler, "plan_moves", watched)
        rng = random.Random(23)
        for i in range(6):
            k = rng.randint(3, 9)
            config = random_asymmetric_config(k, 7, rng)
            target = canonicalize_target(random_points(k, 7, rng))
            out = run(config, target, make_adversary(kind, 4 * k, i))
            assert out.kind == "FORMED"
        assert alive > 50

    @pytest.mark.parametrize("kind", sorted(scheduler.ADVERSARIES))
    def test_a_revisited_configuration_is_planned_again(self, monkeypatch,
                                                        kind):
        """One robot goes A -> B -> A -> ... for ever: each visit plans its
        configuration again, and every visit decides the same Moves."""
        a, b = (0, 1), (0, 2)
        calls = Counter()

        def back_and_forth(points, target):
            calls[points] += 1
            return StepPlan("P1", {a: b} if a in points else {b: a})

        monkeypatch.setattr(scheduler, "plan_moves", back_and_forth)
        out = run(REF11, LINE_TARGET, make_adversary(kind, 44, seed=2),
                  max_events=40 * len(REF11))
        assert out.kind == "LIMIT_EXCEEDED"
        assert check_collision_free(out.trace).passed
        there = REF11 - {a} | {b}
        assert set(calls) == {REF11, there}
        assert min(calls.values()) >= 5
        cells, looked, decided = sorted(REF11), {}, Counter()
        for ev in out.trace:  # a robot's next event after its Look: its Move
            if ev.kind == LOOK:
                looked[ev.robot] = frozenset(cells)
            else:
                decided[looked.pop(ev.robot), ev.pos_before, ev.pos_after] += 1
                cells[ev.robot] = ev.pos_after
        moved = {d: n for d, n in decided.items() if d[1] != d[2]}
        assert set(moved) == {(REF11, a, b), (there, b, a)}
        assert min(moved.values()) >= 2


def replayed_cells(initial, out):
    """The cells that ``out.trace`` leaves, robot ids numbering the sorted
    start: a collision's last Move was refused, so it is not applied."""
    cells = sorted(initial)
    trace = out.trace[:-1] if out.fault == "collision" else out.trace
    for ev in trace:
        if ev.kind == MOVE:
            cells[ev.robot] = ev.pos_after
    return frozenset(cells)


FIRST = StepPlan("P1", {(0, 1): (0, 2)})


def violation(points, target):
    if points == REF11:
        return FIRST
    raise RuleViolation("no rule for this configuration")


LINE = (REF11, LINE_TARGET)
EXITS = [  # (kind, fault, plan_moves stand-in or None, max_events, start)
    pytest.param("FORMED", None, None, 100_000, LINE, id="formed"),
    pytest.param("LIMIT_EXCEEDED", None, fixed_plan(
        FIRST, StepPlan("P1", {(0, 2): (0, 1)})), 50, LINE, id="limit"),
    pytest.param("FAULT", "collision", fixed_plan(
        FIRST, StepPlan("P1", {(0, 2): (0, 3)})), 100_000, LINE,
        id="collision"),
    pytest.param("FAULT", "stuck-symmetric", TO_TROMINO, 100_000,
                 (BENT, BENT_TARGET), id="stuck"),
    pytest.param("FAULT", "internal", fixed_plan(
        FIRST, StepPlan("P1", {})), 100_000, LINE, id="internal-idle"),
    pytest.param("FAULT", "internal", violation, 100_000, LINE,
                 id="internal-rule-violation"),
]


@pytest.mark.parametrize("adversary", sorted(scheduler.ADVERSARIES))
@pytest.mark.parametrize("kind, fault, stand_in, max_events, start", EXITS)
def test_final_is_the_replayed_configuration_on_every_exit(
        monkeypatch, adversary, kind, fault, stand_in, max_events, start):
    if stand_in is not None:
        monkeypatch.setattr(scheduler, "plan_moves", stand_in)
    config, target = start
    out = run(config, target, make_adversary(adversary, 44, seed=5),
              max_events=max_events)
    assert (out.kind, out.fault) == (kind, fault)
    assert type(out.final) is frozenset
    assert out.final == replayed_cells(config, out)


def test_empty_configuration_is_rejected():
    empty = TargetPattern(frozenset(), 0, 0, (0, 0), (0, 0))
    with pytest.raises(ValueError, match="empty configuration"):
        run(frozenset(), empty, make_adversary("random", 2))
