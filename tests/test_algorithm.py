import dataclasses
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridform.algorithm import (
    RuleViolation,
    _PREFILL,
    _path_table,
    pf_on_path_moves,
    phase_moves,
    plan_moves,
    snake_cell,
    snake_index,
)
from gridform.canonical import canonical_frames, is_asymmetric
from gridform.conditions import ConditionVector, evaluate_conditions
from gridform.geometry import LINEAR_CLASSES, Isometry, bounding_rect
from gridform.sampling import random_asymmetric_config, random_points
from gridform.target import canonicalize_target
from gridform.verify import oracle_pf_on_path

from conftest import REF11, REF11_TAIL, LINE11


def snake_path(m, n):
    return [snake_cell(i, m) for i in range(m * n)]


class TestSnakePath:
    def test_two_by_two(self):
        assert snake_path(2, 2) == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_column_direction_alternates(self):
        path = snake_path(3, 4)
        assert path[:3] == [(0, 0), (0, 1), (0, 2)]
        assert path[3:6] == [(1, 2), (1, 1), (1, 0)]
        assert path[-1] == (3, 0)

    def test_single_column(self):
        assert snake_path(4, 1) == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_closed_form_maps_are_inverse(self):
        for m in range(1, 8):
            for n in range(1, 8):
                for i in range(m * n):
                    assert snake_index(snake_cell(i, m), m, n) == i
                cells = {snake_cell(i, m) for i in range(m * n)}
                for x in range(-1, n + 1):
                    for y in range(-1, m + 1):
                        i = snake_index((x, y), m, n)
                        assert (i is None) == ((x, y) not in cells)

    @pytest.mark.parametrize("m, n, literal", [
        (2, 2, [(0, 0), (0, 1), (1, 1), (1, 0)]),
        (4, 1, [(0, 0), (0, 1), (0, 2), (0, 3)]),
        (3, 4, [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0),
                (2, 0), (2, 1), (2, 2), (3, 2), (3, 1), (3, 0)]),
    ])
    def test_closed_form_matches_literal_paths(self, m, n, literal):
        assert [snake_index(p, m, n) for p in literal] == list(range(m * n))
        assert [snake_cell(i, m) for i in range(m * n)] == literal

    @given(m=st.integers(1, 6), n=st.integers(1, 6))
    def test_hamiltonian_over_the_rectangle(self, m, n):
        path = snake_path(m, n)
        assert len(path) == len(set(path)) == m * n
        assert set(path) == {(x, y) for x in range(n) for y in range(m)}
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


class TestPFonPath:
    def test_only_the_lead_robot_moves(self):
        # the robot at 0 is blocked by the robot at 1, which is blocked too
        assert pf_on_path_moves((0, 1, 2), (3, 4, 5)) == {2: 3}

    def test_backward_movement(self):
        assert pf_on_path_moves((3, 4, 5), (0, 1, 2)) == {3: 2}

    def test_robot_at_its_target_stays(self):
        assert pf_on_path_moves((0, 2), (0, 2)) == {}

    def test_ordered_assignment(self):
        # ranks pair up in path order: robot 0 -> target 1, robot 5 -> 4
        assert pf_on_path_moves((0, 5), (1, 4)) == {0: 1, 5: 4}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AssertionError):
            oracle_pf_on_path((0, 1), (2,))


# One frozen configuration per phase, each already in canonical position
# (its unique canonical frame is the identity), with the prescribed move.
LINE_TARGET = canonicalize_target(LINE11)

PHASE_CASES = {
    "P1": (
        REF11,
        LINE_TARGET,
        {REF11_TAIL: (8, 2)},
    ),
    "P2": (
        {(0, 1), (0, 2), (1, 4), (2, 0), (8, 1)},
        canonicalize_target({(0, 0), (0, 2), (1, 2), (2, 2), (3, 3)}),
        {(0, 1): (0, 0)},  # head walks down column 0
    ),
    "P3": (
        {(0, 0), (1, 2), (1, 4), (3, 0), (8, 4)},
        canonicalize_target({(0, 0), (1, 0), (1, 2), (2, 1), (3, 0)}),
        {(8, 4): (8, 5)},  # no reflection symmetry: tail climbs
    ),
    "P4": (
        {(0, 0), (1, 3), (2, 0), (3, 2), (9, 5)},
        canonicalize_target({(0, 0), (0, 3), (1, 1), (2, 1), (3, 1)}),
        {(1, 3): (1, 4), (2, 0): (1, 0), (3, 2): (3, 3)},
    ),
    "P5": (
        {(0, 0), (0, 2), (2, 3), (8, 1)},
        canonicalize_target({(0, 0), (0, 2), (2, 3), (3, 2)}),
        {(8, 1): (8, 2)},  # tail slides to the target tail's row
    ),
    "P6": (
        {(0, 0), (1, 0), (1, 3), (7, 1)},
        canonicalize_target({(0, 1), (1, 0), (1, 3), (3, 1)}),
        {(0, 0): (0, 1)},  # head climbs to h_target's row
    ),
    "P7": (
        {(0, 0), (1, 1), (2, 3), (7, 2)},
        canonicalize_target({(0, 0), (1, 1), (2, 3), (3, 2)}),
        {(7, 2): (6, 2)},  # tail walks home along its row
    ),
}


class TestPhaseRules:
    @pytest.mark.parametrize("phase", sorted(PHASE_CASES))
    def test_frozen_example(self, phase):
        config, target, expected = PHASE_CASES[phase]
        plan = plan_moves(config, target)
        assert not plan.formed
        assert plan.phase == phase
        assert plan.moves == expected

    def test_phase3_symmetric_interior_moves_tail_down(self):
        # C' is reflection-symmetric and spans the full height (m == V),
        # so the tail below the axis steps down and will flip the frame.
        config = {(0, 0), (0, 4), (1, 2), (8, 1)}
        target = canonicalize_target({(0, 0), (1, 1), (1, 2), (3, 3)})
        plan = plan_moves(config, target)
        assert plan.phase == "P3"
        assert plan.moves == {(8, 1): (8, 0)}

    def test_formed_configuration(self):
        plan = plan_moves(REF11, canonicalize_target(REF11))
        assert plan.formed
        assert plan.phase == "DONE"
        assert plan.moves == {}

    def test_formed_up_to_isometry(self):
        g = Isometry(0, -1, -1, 0, tx=-2, ty=9)
        plan = plan_moves(g.apply_set(REF11), canonicalize_target(REF11))
        assert plan.formed

    def test_single_robot_is_always_formed(self):
        assert plan_moves({(3, 7)}, canonicalize_target({(0, 0)})).formed

    def test_symmetric_configuration_reports_stuck(self):
        target = canonicalize_target({(0, 0), (3, 0)})
        plan = plan_moves({(0, 0), (1, 0)}, target)
        assert plan.stuck_symmetric
        assert plan.moves == {}

    @pytest.mark.parametrize("phase", ["P1", "P2", "P3", "P5", "P6", "P7"])
    def test_exactly_one_mover_outside_phase4(self, phase):
        config, target, _ = PHASE_CASES[phase]
        assert len(plan_moves(config, target).moves) == 1

    def test_phase4_moves_only_interior_robots(self):
        config, target, _ = PHASE_CASES["P4"]
        plan = plan_moves(config, target)
        movers = set(plan.moves)
        assert (0, 0) not in movers and (9, 5) not in movers
        # every mover stays on the half-width snake path
        m, n = 6, 10
        cells = set(snake_path(m - 1, n // 2))
        assert movers <= cells
        assert set(plan.moves.values()) <= cells

    def test_phase4_point_off_the_path_is_a_rule_violation(self):
        config, target, _ = PHASE_CASES["P4"]
        # the path covers x < n // 2 = 5; move one interior robot past it
        cf = (frozenset(config) - {(3, 2)}) | {(6, 2)}
        cv = evaluate_conditions(cf, sorted(cf), target)
        with pytest.raises(RuleViolation, match="off the phase 4 path"):
            phase_moves(cf, cv, "P4", target)

    def test_phase4_interior_target_at_origin_is_a_rule_violation(self):
        config, target, _ = PHASE_CASES["P4"]
        cf = frozenset(config)
        # another interior cell as h_target leaves the real head, the
        # origin, in the derived c_double_prime
        other = min(target.c_double_prime)
        bad = dataclasses.replace(target, h_target=other)
        assert (0, 0) in bad.c_double_prime
        with pytest.raises(RuleViolation, match="interior target at the origin"):
            phase_moves(cf, evaluate_conditions(cf, sorted(cf), target), "P4",
                        bad)

    @pytest.mark.parametrize("phase, moved, onto, match", [
        # another robot on the cell above the head, or left of the tail
        ("P6", (1, 0), (0, 1), r"phase 6 head blocked: \(0, 1\)"),
        ("P7", (2, 3), (6, 2), r"phase 7 tail blocked: \(6, 2\)"),
    ], ids=["P6", "P7"])
    def test_blocked_head_or_tail_is_a_rule_violation(self, phase, moved,
                                                      onto, match):
        config, target, _ = PHASE_CASES[phase]
        cf = (frozenset(config) - {moved}) | {onto}
        cv = evaluate_conditions(cf, sorted(cf), target)
        with pytest.raises(RuleViolation, match=match):
            phase_moves(cf, cv, phase, target)

    def test_moves_never_collide(self):
        for config, target, _ in PHASE_CASES.values():
            plan = plan_moves(config, target)
            dests = list(plan.moves.values())
            assert len(dests) == len(set(dests))
            assert not set(dests) & (set(config) - set(plan.moves))


class TestTargetIndexCache:
    """Phase 4 reads the target's snake indices from the path table, a
    bounded cache keyed by (target, m, n)."""

    def test_cached_indices_equal_a_fresh_derivation(self):
        rng = random.Random(10)
        for _ in range(400):
            t = canonicalize_target(
                random_points(rng.randint(3, 9), rng.randint(3, 8), rng))
            m, n = rng.randint(t.M, t.M + 4), rng.randint(t.N, t.N + 4)
            first = _path_table(t, m, n)
            assert isinstance(first[2], tuple)
            assert first[2] == tuple(sorted(
                snake_index(p, m, n) for p in t.c_double_prime))
            assert _path_table(t, m, n) is first  # a hit
        assert _path_table.cache_info().maxsize is not None

    def test_target_point_off_the_path_raises_on_every_call(self):
        rng = random.Random(11)
        checked = 0
        while checked < 100:
            t = canonicalize_target(
                random_points(rng.randint(4, 9), rng.randint(3, 8), rng))
            if not t.c_double_prime:
                continue
            # the path covers x < n: cut it left of the rightmost interior
            n = max(x for x, _ in t.c_double_prime)
            if n == 0:
                continue
            for _ in range(3):
                with pytest.raises(RuleViolation, match="off the phase 4 path"):
                    _path_table(t, t.M, n)
            checked += 1


class TestPathTable:
    """The cached cell -> index and index -> cell memos of phase 4's snake
    path against the closed forms ``snake_index`` and ``snake_cell``."""

    def test_memos_match_the_closed_forms(self):
        rng = random.Random(12)
        sizes = [(1, 1), (1, 7), (6, 1), (1, 3000), (3000, 1), (40, 40),
                 (33, 31)] + [
            (rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)]
        t = canonicalize_target({(0, 0), (1, 0)})  # C'' is empty
        for m, n in sizes:
            index, cell, target_idx = _path_table(t, m, n)
            assert target_idx == ()
            first = min(m * n, _PREFILL)  # the cells tabled up front
            assert cell == {i: snake_cell(i, m) for i in range(first)}
            assert index == {p: i for i, p in cell.items()}
            asked = [(x, y) for x in range(n) for y in range(m)
                     if rng.random() < 0.5]
            rng.shuffle(asked)
            for p in asked:
                i = index[p]
                assert i == snake_index(p, m, n) and cell[i] == p
                assert snake_cell(i, m) == p and index[cell[i]] == i
            # the memos add what was asked, never the whole path
            assert index.keys() == {snake_cell(i, m) for i in range(first)
                                    } | set(asked)
            assert cell.keys() == set(index.values())
            for p in [(-1, 0), (0, -1), (n, 0), (0, m)]:
                for _ in range(2):
                    with pytest.raises(RuleViolation) as err:
                        index[p]
                    assert str(err.value) == f"point off the phase 4 path: {p}"
            assert len(index) == len(cell)

    def test_cache_keeps_one_entry(self):
        rng = random.Random(13)
        for _ in range(20):
            t = canonicalize_target(random_points(5, 4, rng))
            _path_table(t, t.M + rng.randint(0, 3), t.N + rng.randint(0, 3))
        info = _path_table.cache_info()
        assert info.maxsize == 1 and info.currsize == 1

    def test_off_the_path_names_the_same_point(self):
        """A robot or a target point off the path raises a message that
        names the first such point of its set, on every call."""
        t = canonicalize_target({(0, 0), (1, 1), (2, 2), (3, 0)})
        for m, strays in [(4, [(4, 0)]), (4, [(0, 3), (-1, 1), (9, 9)]),
                          (2, [])]:
            cv = ConditionVector(*[False] * 8, m=m, n=8, H=0, V=0,
                                 head=(0, 0), tail=(7, 0))
            inner = frozenset({(1, 0), (2, 0), *strays})
            off = next(p for p in (inner if strays else t.c_double_prime)
                       if snake_index(p, m - 1, 4) is None)
            for _ in range(2):
                with pytest.raises(RuleViolation) as err:
                    phase_moves(inner | {cv.head, cv.tail}, cv, "P4", t)
                assert str(err.value) == f"point off the phase 4 path: {off}"

    def test_far_tail_costs_no_path_area(self):
        """A P4 plan with the tail 2e4 cells out (a path of about 2e8
        cells) allocates for the robots, not for the path."""
        t = canonicalize_target({(0, 0), (1, 0), (0, 1), (2, 1), (3, 0)})
        config = {(0, 0), (0, 1), (1, 1), (2, 0), (20000, 19000)}
        tracemalloc.start()
        try:
            plan = plan_moves(config, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert plan.phase == "P4"
        assert plan.moves == {(1, 1): (1, 0), (2, 0): (2, 1)}
        assert peak < 512 * 1024  # the whole path would take gigabytes
        index, cell, _ = _path_table(t, 19000, 10000)
        # past the tabled cells: the C'' cells, the two movers, and their
        # destinations
        far = [p for p in t.c_double_prime
               if snake_index(p, 19000, 10000) >= _PREFILL]
        assert len(far) == 2
        assert len(index) == _PREFILL + len(far) + 2
        assert len(cell) == _PREFILL + 4


class TestPlanProperties:
    def test_frame_invariance(self, rng):
        """The physical plan commutes with any isometry of the input.

        Collinear configurations are skipped: their Y-axis is undetermined
        and filled by a local convention that is not covariant."""
        for _ in range(150):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            r = bounding_rect(c)
            if r.width_pts == 1 or r.height_pts == 1:
                continue
            t = canonicalize_target(random_points(k, 5, rng))
            base = plan_moves(c, t)
            g = rng.choice(LINEAR_CLASSES)._replace(tx=rng.randint(-6, 6),
                                                    ty=rng.randint(-6, 6))
            img = plan_moves(g.apply_set(c), t)
            assert img.formed == base.formed
            assert img.moves == {
                g.apply(src): g.apply(dst) for src, dst in base.moves.items()
            }

    def test_step_preserves_asymmetry_and_cardinality(self, rng):
        for _ in range(150):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            t = canonicalize_target(random_points(k, 5, rng))
            plan = plan_moves(c, t)
            if plan.formed or not plan.moves:
                continue
            nxt = (set(c) - set(plan.moves)) | set(plan.moves.values())
            assert len(nxt) == k
            if len(plan.moves) == 1:  # synchronous single-mover step
                assert is_asymmetric(nxt) or plan.phase in ("P3", "P5")

    def test_moves_are_unit_steps(self, rng):
        for _ in range(150):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            t = canonicalize_target(random_points(k, 5, rng))
            for src, dst in plan_moves(c, t).moves.items():
                assert abs(src[0] - dst[0]) + abs(src[1] - dst[1]) == 1


def pinned_cases(n, seed):
    """Seeded (configuration, target) pairs: random sets, phase 4 shapes
    (head at the origin, interior on the snake path, tail far right),
    near-target sets (later phases), horizontal and vertical lines, and
    orbits under a linear class (symmetric, usually with several canonical
    frames). One target in four gets a wrong head, tail or size, which
    drives the rules into the RuleViolation cases the analysis excludes."""
    rng = random.Random(seed)
    for i in range(n):
        shape = ("random", "snake", "near", "near", "row", "column",
                 "orbit", "orbit")[i % 8]
        k = rng.randint(2, 9)
        t = canonicalize_target(random_points(k, rng.randint(3, 6), rng))
        if shape == "random":
            c = random_points(k, rng.randint(3, 7), rng)
        elif shape == "snake":
            m = t.M + 1 + rng.randint(0, 1)
            n = 2 * t.N + rng.randint(0, 3)
            cells = [(x, y) for x in range(n // 2) for y in range(m - 1)]
            c = frozenset(rng.sample(cells[1:], k - 2)) | {
                (0, 0), (n - 1, m - 1)}
        elif shape == "near":
            pts = set(t.points)
            for p in rng.sample(sorted(t.points), rng.randint(1, 2)):
                q = (p[0] + rng.randint(-2, 2), p[1] + rng.randint(-2, 2))
                if q not in pts:
                    pts.remove(p)
                    pts.add(q)
            c = frozenset(pts)
        elif shape in ("row", "column"):
            along = rng.sample(range(12), k)
            c = frozenset((a, 3) if shape == "row" else (3, a) for a in along)
        else:
            g = rng.choice(LINEAR_CLASSES)
            c = orbit = random_points(rng.randint(1, 4), 4, rng)
            while not g.apply_set(orbit) <= c:
                orbit = g.apply_set(orbit)
                c |= orbit
            t = canonicalize_target(random_points(len(c), 6, rng))
        if rng.random() < 0.25:
            pts = sorted(t.points)
            t = dataclasses.replace(
                t, M=rng.randint(1, t.M), N=rng.randint(1, t.N),
                h_target=rng.choice(pts), t_target=rng.choice(pts))
        yield c, t


class TestPlanPin:
    """A pin on the planner's output: any change to a phase, a move, the
    symmetric agreement or a RuleViolation message changes the digest,
    even when every run still forms its target."""

    DIGEST = "90c4e9a23dfe4f9c"

    def test_plans_match_the_pinned_digest(self):
        h = hashlib.sha256()
        counts = dict.fromkeys(("multi_frame", "row", "column", "stuck",
                                "violation"), 0)
        for c, t in pinned_cases(5000, 20260823):
            try:
                p = plan_moves(c, t)
                rec = (p.formed, p.phase, sorted(p.moves.items()),
                       p.stuck_symmetric)
                counts["stuck"] += p.stuck_symmetric
            except RuleViolation as exc:
                rec = ("RuleViolation", str(exc))
                counts["violation"] += 1
            h.update(repr((sorted(c), rec)).encode())
            if len(c) > 1:
                counts["multi_frame"] += len(canonical_frames(c)) > 1
                counts["row"] += len({y for _, y in c}) == 1
                counts["column"] += len({x for x, _ in c}) == 1
        assert counts == {"multi_frame": 1887, "row": 722, "column": 717,
                          "stuck": 1756, "violation": 88}
        assert h.hexdigest()[:16] == self.DIGEST
