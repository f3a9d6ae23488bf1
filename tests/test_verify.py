import hashlib
import json
import random

import pytest

from gridform.cli import read_trace
from gridform.sampling import random_asymmetric_config, random_points
from gridform.scheduler import LOOK, MOVE, Event, make_adversary, run
from gridform.target import canonicalize_target
from gridform.verify import (
    PHASE_EDGES,
    Verdict,
    back_edge_count,
    check_collision_free,
    check_formed,
    check_phase_transitions,
)

import oracles
from conftest import REF11, LINE11
from oracles import oracle_pf_on_path

LINE_TARGET = canonicalize_target(LINE11)


def look(i, robot, pos, phase=None):
    return Event(i, robot, LOOK, pos, phase=phase)


def move(i, robot, src, dst):
    return Event(i, robot, MOVE, src, pos_after=dst, snapshot_index=i - 1)


class TestCollisionFree:
    def test_clean_trace(self):
        trace = [
            look(0, 0, (0, 0)), move(1, 0, (0, 0), (1, 0)),
            look(2, 1, (3, 0)), move(3, 1, (3, 0), (2, 0)),
        ]
        assert check_collision_free(trace).passed

    def test_move_onto_occupied_cell(self):
        trace = [
            look(0, 0, (0, 0)), look(1, 1, (1, 0)),
            move(2, 0, (0, 0), (1, 0)),
        ]
        v = check_collision_free(trace)
        assert not v.passed
        assert v.violations[0][1] == "collision"

    def test_initial_overlap(self):
        trace = [look(0, 0, (0, 0)), look(1, 1, (0, 0))]
        assert not check_collision_free(trace).passed

    def test_jump_is_malformed(self):
        trace = [look(0, 0, (0, 0)), look(1, 0, (5, 5))]
        with pytest.raises(ValueError, match="malformed"):
            check_collision_free(trace)

    def test_move_without_a_destination_is_malformed(self):
        """A MOVE with no ``pos_after`` would send its robot to the cell
        None, and its next event would then read as a first sighting."""
        trace = [look(0, 0, (0, 0)), move(1, 0, (0, 0), None),
                 look(2, 0, (7, 7))]
        with pytest.raises(ValueError, match=r"^malformed trace: robot 0 "
                           r"moves to no cell at event 1$"):
            check_collision_free(trace)

    def test_move_without_a_destination_from_a_trace_file(self):
        """Such a MOVE is rejected as the file is read, before a verifier
        sees it."""
        lines = ['{"index": 0, "robot": 0, "kind": "LOOK_COMPUTE", '
                 '"from": [0, 0]}',
                 '{"index": 1, "robot": 0, "kind": "MOVE", "from": [0, 0], '
                 '"snapshot": 0}',
                 '{"index": 2, "robot": 0, "kind": "LOOK_COMPUTE", '
                 '"from": [7, 7]}']
        with pytest.raises(ValueError, match="^malformed trace: line 2: "
                           "no field 'to'$"):
            read_trace(lines)

    @pytest.mark.parametrize("dst", [(2, 0), (1, 1)],
                             ids=["two-cell jump", "diagonal"])
    def test_move_that_is_not_one_grid_step(self, dst):
        trace = [look(0, 0, (0, 0)), move(1, 0, (0, 0), dst)]
        assert check_collision_free(trace).violations == [
            (1, "step", f"robot 0 moves (0, 0) -> {dst}, not to an "
             "adjacent cell")]

    def test_unknown_kind_is_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            check_collision_free([Event(0, 0, "TELEPORT", (0, 0))])

    def test_real_run_passes(self):
        out = run(REF11, LINE_TARGET, make_adversary("random", 44, seed=2))
        assert check_collision_free(out.trace).passed


class TestReadTrace:
    """A bad line raises ``ValueError`` that names its line, counted with
    blank lines, in place of the raw error of the JSON decoder or of a
    field lookup."""

    GOOD = '{"index": 0, "robot": 0, "kind": "LOOK_COMPUTE", "from": [0, 0]}'

    def rejects(self, bad, detail):
        with pytest.raises(ValueError) as info:
            read_trace([self.GOOD, "", bad])
        assert info.type is ValueError
        assert str(info.value).startswith("malformed trace: line 3: ")
        assert detail in str(info.value)

    def test_missing_from(self):
        self.rejects('{"index": 1, "robot": 0, "kind": "LOOK_COMPUTE"}',
                     "no field 'from'")

    def test_line_that_is_not_an_object(self):
        self.rejects('[1, 0, "LOOK_COMPUTE", [0, 0]]', "list indices")

    def test_from_that_is_not_a_pair(self):
        self.rejects('{"index": 1, "robot": 0, "kind": "LOOK_COMPUTE", '
                     '"from": 5}', "'int' object is not iterable")

    def test_invalid_json(self):
        self.rejects('{"index": 1, "robot": 0,', "Expecting property name")

    @pytest.mark.parametrize("field, value", [
        ("from", '"ab"'), ("from", "[1]"), ("from", "[0, 0, 0]"),
        ("from", "[true, 0]"), ("from", "[0, 1.0]"), ("to", '"ab"'),
        ("to", "[1]"), ("to", "[0, false]"), ("to", '[0, "1"]'),
    ])
    def test_cell_that_is_not_two_ints(self, field, value):
        cells = {"from": "[0, 0]", "to": "[0, 1]", field: value}
        self.rejects('{"index": 1, "robot": 0, "kind": "MOVE", '
                     f'"from": {cells["from"]}, "to": {cells["to"]}, '
                     '"snapshot": 0}', f"'{field}' is not two ints")

    @pytest.mark.parametrize("robot", ['"x"', "true", "0.0", "null", "-3"])
    def test_robot_that_is_not_an_int(self, robot):
        self.rejects(f'{{"index": 1, "robot": {robot}, '
                     '"kind": "LOOK_COMPUTE", "from": [0, 0]}', "robot ")

    def test_unknown_kind(self):
        self.rejects('{"index": 1, "robot": 0, "kind": "TELEPORT", '
                     '"from": [0, 0]}', "unknown kind 'TELEPORT'")

    @pytest.mark.parametrize("index", ["0", "2", "true", "1.0", '"1"'])
    def test_index_out_of_sequence(self, index):
        self.rejects(f'{{"index": {index}, "robot": 0, '
                     '"kind": "LOOK_COMPUTE", "from": [0, 0]}', ", not 1")

    @pytest.mark.parametrize("phase", ['"P9"', "5", "[1]", '"done"', "null"])
    def test_unknown_phase(self, phase):
        self.rejects(f'{{"index": 1, "robot": 0, "kind": "LOOK_COMPUTE", '
                     f'"from": [0, 0], "phase": {phase}}}', "unknown phase ")

    @pytest.mark.parametrize("snapshot", ['"x"', "1", "2", "-1", "true",
                                          "0.0", "[0]"])
    def test_snapshot_that_is_not_an_earlier_index(self, snapshot):
        self.rejects('{"index": 1, "robot": 0, "kind": "MOVE", "from": '
                     f'[0, 0], "to": [0, 1], "snapshot": {snapshot}}}',
                     "is not an earlier index")

    @pytest.mark.parametrize("events", [
        [(1, MOVE, 0)],
        [(0, LOOK, None), (0, MOVE, 0)],
        [(0, MOVE, 0), (0, MOVE, 0)],
        [(0, MOVE, 0), (0, MOVE, 1)],
    ], ids=["another robot's look", "an older look", "a look used twice",
            "a move"])
    def test_move_that_no_look_of_its_robot_allows(self, events):
        """After GOOD (robot 0 Looks at index 0), each last MOVE's snapshot
        names an index that is not its robot's latest unused Look; every
        line before it loads."""
        lines = [self.GOOD]
        for index, (robot, kind, snapshot) in enumerate(events, 1):
            rec = {"index": index, "robot": robot, "kind": kind,
                   "from": [robot, 0]}
            if kind == MOVE:
                rec.update(to=[robot, 0], snapshot=snapshot)
            lines.append(json.dumps(rec))
        assert len(read_trace(lines[:-1])) == len(events)
        with pytest.raises(ValueError, match=rf"^malformed trace: line "
                           rf"{len(lines)}: snapshot {snapshot} is not robot "
                           rf"{robot}'s latest LOOK with no MOVE yet$"):
            read_trace(lines)

    @pytest.mark.parametrize("bad, detail", [
        ('"kind": "LOOK_COMPUTE", "from": [0, 0], "to": [0, 1]',
         "LOOK_COMPUTE with a 'to' field"),
        ('"kind": "LOOK_COMPUTE", "from": [0, 0], "snapshot": 0',
         "LOOK_COMPUTE with a 'snapshot' field"),
        ('"kind": "MOVE", "from": [0, 0], "snapshot": 0', "no field 'to'"),
        ('"kind": "MOVE", "from": [0, 0], "to": [0, 1], "snapshot": 0, '
         '"phase": "P1"', "MOVE with a 'phase' field"),
        ('"kind": "LOOK_COMPUTE", "from": [0, 0], "foo": 1',
         "LOOK_COMPUTE with a 'foo' field"),
    ], ids=["look with to", "look with snapshot", "move without to",
            "move with phase", "unknown field"])
    def test_field_that_its_kind_never_writes(self, bad, detail):
        """``write_trace`` gives a LOOK no destination or snapshot, a MOVE
        a destination but no phase, and neither any other field."""
        self.rejects(f'{{"index": 1, "robot": 0, {bad}}}', detail)

    def test_trace_the_verifiers_used_to_pass(self):
        """Read as events with the cells ('a', 'b') and (1,) and the robot
        'x', these lines passed both verifiers."""
        lines = ['{"index": 0, "robot": "x", "kind": "LOOK_COMPUTE", '
                 '"from": "ab"}',
                 '{"index": 1, "robot": "x", "kind": "MOVE", "from": "ab", '
                 '"to": [1], "snapshot": 0}',
                 '{"index": 2, "robot": "x", "kind": "LOOK_COMPUTE", '
                 '"from": [1]}']
        with pytest.raises(ValueError, match="^malformed trace: line 1: "
                           "'from' is not two ints: 'ab'$"):
            read_trace(lines)


def l1(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def reference_collision_free(trace):
    """The O(k)-per-event replay ``check_collision_free`` replaced: the
    other robots' cells are rebuilt on every move and a new robot is
    looked up among all known positions."""
    v = Verdict()
    positions = {}
    for ev in trace:
        if ev.kind not in (LOOK, MOVE):
            raise ValueError(f"malformed trace: unknown event kind {ev.kind!r}")
        known = positions.get(ev.robot)
        if known is None:
            if ev.pos_before in positions.values():
                v.flag(ev.index, "collision",
                       f"robot {ev.robot} starts on an occupied cell")
            positions[ev.robot] = ev.pos_before
        elif known != ev.pos_before:
            raise ValueError(
                f"malformed trace: robot {ev.robot} jumps at event {ev.index}"
            )
        if ev.kind == MOVE and ev.pos_after != ev.pos_before:
            if l1(ev.pos_before, ev.pos_after) != 1:
                v.flag(ev.index, "step", f"robot {ev.robot} moves "
                       f"{ev.pos_before} -> {ev.pos_after}, not to an "
                       "adjacent cell")
            others = {p for r, p in positions.items() if r != ev.robot}
            if ev.pos_after in others:
                v.flag(ev.index, "collision",
                       f"robot {ev.robot} moves onto an occupied cell")
            positions[ev.robot] = ev.pos_after
    return v


def assert_same_replay(trace):
    """Both replays flag the same violations, or raise the same error."""
    try:
        expected = reference_collision_free(trace).violations
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            check_collision_free(trace)
        assert str(got.value) == str(exc)
        return None
    assert check_collision_free(trace).violations == expected
    return expected


def real_traces(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        k = rng.randint(3, 8)
        config = random_asymmetric_config(k, 8, rng)
        target = canonicalize_target(random_points(k, 8, rng))
        kind = ("random", "round_robin", "max_stale")[i % 3]
        yield run(config, target, make_adversary(kind, 4 * k, i)).trace


class TestTracePin:
    """A pin on whole seeded traces: any change to a plan, the event order,
    an event's fields or how an event is built changes the digest."""

    DIGEST = "24d22c0ef0bb910e"

    def test_traces_match_the_pinned_digest(self):
        h = hashlib.sha256()
        events = 0
        for trace in real_traces(30, seed=11):
            for ev in trace:
                assert type(ev) is Event and len(ev) == 7
                h.update(repr(ev).encode() + b"\n")
                events += 1
        assert events == 11856
        assert h.hexdigest()[:16] == self.DIGEST


class TestCollisionReplayMatchesReference:
    def test_event_fields_the_replay_reads(self):
        """``check_collision_free`` reads an event's first five fields and
        ``check_phase_transitions`` its index, kind and phase, all by
        position; a reordered ``Event`` must fail here, not as a malformed
        trace or a missed transition."""
        assert Event._fields[:6] == (
            "index", "robot", "kind", "pos_before", "pos_after", "phase")

    def test_real_traces(self):
        for trace in real_traces(30, seed=5):
            assert assert_same_replay(trace) == []

    def test_injected_collisions(self):
        rng = random.Random(6)
        injected = 0
        for trace in real_traces(30, seed=7):
            moves = [i for i, ev in enumerate(trace)
                     if ev.kind == MOVE and ev.pos_after != ev.pos_before]
            for i in rng.sample(moves, min(3, len(moves))):
                # send the mover onto a cell another robot holds at that time
                cells = {}
                for ev in trace[:i]:
                    cells[ev.robot] = ev.pos_before if ev.kind == LOOK \
                        else ev.pos_after
                occupied = [p for r, p in cells.items()
                            if r != trace[i].robot]
                if not occupied:
                    continue
                dest = rng.choice(occupied)
                bad = trace[:i] + [trace[i]._replace(pos_after=dest)]
                # a destination that is not adjacent is a bad step as well
                rules = ["collision"]
                if l1(trace[i].pos_before, dest) != 1:
                    rules.insert(0, "step")
                assert [(j, rule) for j, rule, _ in assert_same_replay(bad)
                        ] == [(i, rule) for rule in rules]
                # the rest of the trace no longer follows: both call it
                # malformed or both flag the same events
                assert_same_replay(bad + trace[i + 1:])
                injected += 1
        assert injected > 20

    def test_shared_start_cell_stays_occupied_until_its_last_robot_leaves(self):
        trace = [
            look(0, 0, (0, 0)), look(1, 1, (0, 0)),  # two robots on one cell
            move(2, 0, (0, 0), (1, 0)),              # one of them leaves
            look(3, 2, (-1, 0)),
            move(4, 2, (-1, 0), (0, 0)),             # robot 1 is still there
            move(5, 1, (0, 0), (0, 1)),
            move(6, 2, (0, 0), (0, -1)),
            look(7, 3, (0, 0)),                      # now the cell is free
        ]
        expected = assert_same_replay(trace)
        assert [(i, rule) for i, rule, _ in expected] == [
            (1, "collision"), (4, "collision")]

    def test_random_event_sequences(self):
        rng = random.Random(8)
        for _ in range(300):
            where, trace = {}, []
            for index in range(rng.randint(1, 40)):
                robot = rng.randrange(5)
                here = where.setdefault(robot, (rng.randrange(3),
                                                rng.randrange(3)))
                if rng.random() < 0.5:
                    trace.append(look(index, robot, here))
                else:
                    dest = (rng.randrange(3), rng.randrange(3))
                    trace.append(move(index, robot, here, dest))
                    where[robot] = dest
            assert_same_replay(trace)


class TestFormed:
    def test_exact(self):
        assert check_formed(LINE11, LINE_TARGET).passed

    def test_up_to_isometry(self):
        rotated = {(0, y) for y in range(11)}
        assert check_formed(rotated, LINE_TARGET).passed

    def test_wrong_shape(self):
        v = check_formed(REF11, LINE_TARGET)
        assert not v.passed
        assert v.violations[0][1] == "formed"


class TestPhaseTransitions:
    def test_forward_chain(self):
        phases = ["P1", "P1", "P2", "P4", "P4", "P5", "P7", "DONE"]
        trace = [look(i, 0, (0, 0), p) for i, p in enumerate(phases)]
        assert check_phase_transitions(trace).passed

    def test_back_edge_three_to_one_allowed(self):
        trace = [look(i, 0, (0, 0), p) for i, p in enumerate(["P3", "P1"])]
        assert check_phase_transitions(trace).passed
        assert back_edge_count(trace) == 1

    def test_backwards_four_to_three_rejected(self):
        trace = [look(i, 0, (0, 0), p) for i, p in enumerate(["P4", "P3"])]
        v = check_phase_transitions(trace)
        assert not v.passed
        assert v.violations == [(1, "phase-transition", "P4 -> P3")]

    def test_skipping_is_fine_when_the_edge_exists(self):
        trace = [look(i, 0, (0, 0), p) for i, p in enumerate(["P1", "P6"])]
        assert check_phase_transitions(trace).passed

    def test_done_is_terminal(self):
        trace = [look(i, 0, (0, 0), p) for i, p in enumerate(["DONE", "P1"])]
        assert not check_phase_transitions(trace).passed

    def test_unknown_phase_is_flagged_from_the_first_look(self):
        """A trace whose Looks all read one phase outside the diagram has
        no transition to check, and is flagged all the same."""
        trace = [look(i, 0, (0, 0), "P9") for i in range(3)]
        v = check_phase_transitions(trace)
        assert v.violations == [(0, "phase-unknown", "unknown phase 'P9'")]
        trace += [look(3, 0, (0, 0), "P1"), look(4, 0, (0, 0), "P0")]
        assert check_phase_transitions(trace).violations == [
            (0, "phase-unknown", "unknown phase 'P9'"),
            (4, "phase-unknown", "unknown phase 'P0'")]

    def test_edge_table_shape(self):
        assert set(PHASE_EDGES) == {f"P{i}" for i in range(1, 8)} | {"DONE"}
        assert PHASE_EDGES["P7"] == {"DONE"}
        # the only edge that goes backwards
        back = [
            (a, b) for a, succs in PHASE_EDGES.items() for b in succs
            if b != "DONE" and int(b[1]) < int(a[1] if a != "DONE" else "9")
        ]
        assert back == [("P3", "P1")]

    def test_real_run_passes(self):
        out = run(REF11, LINE_TARGET, make_adversary("round_robin", 44))
        assert check_phase_transitions(out.trace).passed


class TestPathOracle:
    def test_shift_by_three(self):
        res = oracle_pf_on_path((0, 1, 2), (3, 4, 5))
        assert res.verdict.passed
        assert res.total_steps == 9

    def test_already_home(self):
        res = oracle_pf_on_path((0, 2), (0, 2))
        assert res.verdict.passed
        assert res.total_steps == 0

    def test_crossing_assignments(self):
        res = oracle_pf_on_path((0, 5), (1, 4))
        assert res.verdict.passed
        assert res.total_steps == 2

    def test_backward_block(self):
        res = oracle_pf_on_path((2, 3), (0, 1))
        assert res.verdict.passed
        assert res.total_steps == 4

    def test_empty_instance(self):
        assert oracle_pf_on_path((), ()).total_steps == 0

    def test_large_instance_samples_orders(self):
        robots = tuple(range(6))
        targets = tuple(range(24, 30))
        res = oracle_pf_on_path(robots, targets)
        assert res.verdict.passed
        assert res.total_steps == 6 * 24

    def test_step_onto_an_occupied_index_is_a_collision(self, monkeypatch):
        def no_free_test(robot_idx, target_idx):
            return {i: i + (1 if goal > i else -1)
                    for i, goal in zip(robot_idx, target_idx) if i != goal}

        monkeypatch.setattr(oracles, "pf_on_path_moves", no_free_test)
        res = oracle_pf_on_path((0, 1, 2), (3, 4, 5))
        assert [rule for _, rule, _ in res.verdict.violations] == ["collision"]
