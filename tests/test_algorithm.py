import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridform.algorithm import (
    RuleViolation,
    _PREFILL,
    _back,
    _path_table,
    pf_on_path_moves,
    phase_moves,
    plan_moves,
    snake_cell,
    snake_index,
)
from gridform.canonical import (_box_scans, canonical_frames, holds,
                                is_asymmetric)
from gridform.conditions import (ConditionVector, evaluate_conditions,
                                 target_key)
from gridform.geometry import LINEAR_CLASSES, Isometry, bounding_rect
from gridform.sampling import random_asymmetric_config, random_points
from gridform.scheduler import _plan
from gridform.target import TargetPattern, canonicalize_target

from conftest import REF11, REF11_TAIL, LINE11, scan
from oracles import oracle_pf_on_path, reference_plan_moves


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
        key, short_len = scan((frozenset(config) - {(3, 2)}) | {(6, 2)})
        cv = evaluate_conditions(key, short_len, target)
        with pytest.raises(RuleViolation, match="off the phase 4 path"):
            phase_moves(key, cv, "P4", target)

    def test_phase4_interior_target_at_origin_is_a_rule_violation(self):
        config, target, _ = PHASE_CASES["P4"]
        key, short_len = scan(config)
        # another interior cell as h_target leaves the real head, the
        # origin, in the derived c_double_prime
        other = min(target.c_double_prime)
        bad = target._replace(h_target=other)
        assert (0, 0) in bad.c_double_prime
        with pytest.raises(RuleViolation, match="interior target at the origin"):
            phase_moves(key, evaluate_conditions(key, short_len, target),
                        "P4", bad)

    @pytest.mark.parametrize("phase, moved, onto, match", [
        # another robot on the cell above the head, or left of the tail
        ("P6", (1, 0), (0, 1), r"phase 6 head blocked: \(0, 1\)"),
        ("P7", (2, 3), (6, 2), r"phase 7 tail blocked: \(6, 2\)"),
    ], ids=["P6", "P7"])
    def test_blocked_head_or_tail_is_a_rule_violation(self, phase, moved,
                                                      onto, match):
        config, target, _ = PHASE_CASES[phase]
        key, short_len = scan((frozenset(config) - {moved}) | {onto})
        cv = evaluate_conditions(key, short_len, target)
        with pytest.raises(RuleViolation, match=match):
            phase_moves(key, cv, phase, target)

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
    """The cached scan index -> path index and path index -> cell memos of
    phase 4's snake path against the closed forms ``snake_index`` and
    ``snake_cell``. Over m path rows a cell's scan index is
    ``x * (m + 1) + y``, as in the key of a configuration m + 1 rows high."""

    def test_memos_match_the_closed_forms(self):
        rng = random.Random(12)
        sizes = [(1, 1), (1, 7), (6, 1), (1, 3000), (3000, 1), (40, 40),
                 (33, 31)] + [
            (rng.randint(1, 12), rng.randint(1, 12)) for _ in range(60)]
        t = canonicalize_target({(0, 0), (1, 0)})  # C'' is empty
        for m, n in sizes:
            def code(p):
                return p[0] * (m + 1) + p[1]
            index, cell, target_idx = _path_table(t, m, n)
            assert target_idx == ()
            first = min(m * n, _PREFILL)  # the cells tabled up front
            assert cell == {i: snake_cell(i, m) for i in range(first)}
            assert index == {code(p): i for i, p in cell.items()}
            asked = [(x, y) for x in range(n) for y in range(m)
                     if rng.random() < 0.5]
            rng.shuffle(asked)
            for p in asked:
                i = index[code(p)]
                assert i == snake_index(p, m, n) and cell[i] == p
                assert snake_cell(i, m) == p and index[code(cell[i])] == i
            # the memos add what was asked, never the whole path
            tabled = {code(snake_cell(i, m)) for i in range(first)}
            assert index.keys() == tabled | set(map(code, asked))
            assert cell.keys() == set(index.values())
            # off the path on the key's rows [0, m]: left, right, and the
            # tail's row m above the path
            for p in [(-1, 0), (n, 0), (0, m), (n - 1, m)]:
                for _ in range(2):
                    with pytest.raises(RuleViolation) as err:
                        index[code(p)]
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
        """A robot off the path raises a message that names the first such
        robot in key order, a target point the first such point of C'', on
        every call. A robot's row is below m, a target point's need not be:
        (2, 2) lies on row m = 2 when m = 2."""
        t = canonicalize_target({(0, 0), (1, 1), (2, 2), (3, 0)})
        for m, strays in [(4, [(4, 0)]), (4, [(6, 2), (0, 3), (5, 1)]),
                          (2, [])]:
            cv = ConditionVector(*[False] * 8, m=m, n=8, H=0, V=0,
                                 head=(0, 0), tail=(7, 0))
            inner = frozenset({(1, 0), (2, 0), *strays})
            key = scan(inner | {cv.head, cv.tail}, m)[0]
            off = next(p for p in (sorted(inner) if strays
                                   else t.c_double_prime)
                       if snake_index(p, m - 1, 4) is None)
            for _ in range(2):
                with pytest.raises(RuleViolation) as err:
                    phase_moves(key, cv, "P4", t)
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
        index, cell, target_idx = _path_table(t, 19000, 10000)
        # past the tabled cells: two C'' cells, which go through
        # snake_index and not the memos, the two movers, and their
        # destinations
        far = [i for i in target_idx if i >= _PREFILL]
        assert len(far) == 2
        assert len(index) == _PREFILL + 2
        assert len(cell) == _PREFILL + 4


class TestEdgeRows:
    """A scan index ``x * S + y`` is a cell of the next column on row S and
    of the previous column on row -1, so neither row may be looked up
    blindly in a key of short side S."""

    def test_rows_minus_one_and_s_hold_nothing(self):
        key, short_len = scan({(0, 2), (1, 1), (2, 0)}, 3)
        assert key == (2, 4, 6)
        assert holds(key, short_len, (0, 2)) and holds(key, short_len, (2, 0))
        # (1, -1) would read index 2, the cell (0, 2); (1, 3) index 6,
        # the cell (2, 0)
        assert not holds(key, short_len, (1, -1))
        assert not holds(key, short_len, (1, 3))

    def test_phase6_head_climbs_onto_row_s(self):
        """P2's destination lies below a head off row 0 and P7's on the
        tail's row, both inside [0, S); P6's head climbs to h_target, which
        may lie past the top row."""
        key, short_len = scan({(0, 2), (1, 0), (2, 1), (7, 2)}, 3)
        cv = ConditionVector(*[False] * 8, m=short_len, n=8, H=3, V=3,
                             head=(0, 2), tail=(7, 2))
        t = TargetPattern(frozenset({(0, 4), (1, 0), (2, 1), (3, 0)}), M=5,
                          N=4, h_target=(0, 4), t_target=(3, 0))
        # (0, 3)'s scan index is 3, the robot at (1, 0)
        assert phase_moves(key, cv, "P6", t) == {(0, 2): (0, 3)}

    def test_phase4_target_past_row_s_is_off_the_path(self):
        """A C'' point on row S would alias the on-path cell (1, 0)."""
        key, short_len = scan({(0, 0), (1, 0), (2, 1), (7, 2)}, 3)
        cv = ConditionVector(*[False] * 8, m=short_len, n=8, H=3, V=2,
                             head=(0, 0), tail=(7, 2))
        t = TargetPattern(frozenset({(0, 0), (0, 3), (1, 1), (5, 0)}), M=4,
                          N=6, h_target=(0, 0), t_target=(5, 0))
        assert snake_index((1, 0), 2, 4) is not None
        for _ in range(3):
            with pytest.raises(RuleViolation) as err:
                phase_moves(key, cv, "P4", t)
            assert str(err.value) == "point off the phase 4 path: (0, 3)"


class TestPlanProperties:
    def test_frame_invariance(self, rng):
        """The physical plan commutes with any isometry of the input.

        Collinear configurations are skipped: their Y-axis is undetermined
        and filled by a local convention that is not covariant."""
        for _ in range(150):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            x0, y0, x1, y1 = bounding_rect(c)
            if x0 == x1 or y0 == y1:
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
            t = t._replace(
                M=rng.randint(1, t.M), N=rng.randint(1, t.N),
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


def plan_or_violation(planner, c, t):
    """``planner(c, t)``, or the message of the RuleViolation it raised."""
    try:
        return planner(c, t)
    except RuleViolation as exc:
        return ("RuleViolation", str(exc))


class TestMapBackMemo:
    """``plan_moves`` maps the rule's moves back through a memo of the first
    frame's inverse, cached per frame (``_back``) and shared by every box
    the frame wins. Cold or warm, the plan equals the arithmetic map-back
    of ``reference_plan_moves``."""

    FAR = (0, 7, -10**6, 10**12, -10**12)

    @pytest.mark.parametrize("lin", LINEAR_CLASSES)
    def test_every_linear_class_and_far_translations(self, lin):
        """Each case cold, warm, and turned half about its box's centre:
        the same box, usually won by another scan."""
        counts = dict.fromkeys(("moves", "multi_frame", "violation"), 0)
        for i, (c, t) in enumerate(pinned_cases(300, 20261019)):
            g = lin._replace(tx=self.FAR[i % 5], ty=-self.FAR[i // 5 % 5])
            image = g.apply_set(c)
            x0, y0, x1, y1 = bounding_rect(image)
            turned = Isometry(-1, 0, 0, -1, x0 + x1, y0 + y1).apply_set(image)
            for case in (image, image, turned):
                want = plan_or_violation(reference_plan_moves, case, t)
                assert plan_or_violation(plan_moves, case, t) == want
            if want[0] == "RuleViolation":
                counts["violation"] += 1
            else:
                counts["moves"] += bool(want.moves)
                counts["multi_frame"] += len(canonical_frames(turned)) > 1
        assert min(counts.values()) > 3, counts

    def test_configurations_sharing_a_box(self):
        """Planned one after another in one box, each configuration maps
        back through its own winning scan: first one with four frames,
        then one won from each corner in turn."""
        box = [(0, 0), (4, 0), (0, 2), (4, 2)]
        t = canonicalize_target({(0, 0), (1, 0), (2, 0), (3, 0), (4, 1)})
        c = frozenset(box + [(1, 0)])
        cases = [frozenset(box + [(2, 1)])] + [g.apply_set(c) for g in (
            Isometry(1, 0, 0, 1), Isometry(-1, 0, 0, 1, 4, 0),
            Isometry(1, 0, 0, -1, 0, 2), Isometry(-1, 0, 0, -1, 4, 2))]
        assert len(canonical_frames(cases[0])) == 4
        assert len({canonical_frames(case).spec for case in cases[1:]}) == 4
        for case in cases * 2:
            want = reference_plan_moves(case, t)
            assert plan_moves(case, t) == want
            assert bool(want.moves) == (case != cases[0])

    def test_a_new_box_takes_its_frames_memo(self):
        """In P1 the tail steps out of the box while the winning frame
        stays: the grown box, met for the first time, maps back through
        the first box's memo, taken from the frame cache."""
        t = canonicalize_target({(0, 0), (0, 2), (2, 1), (3, 3)})
        c = frozenset({(0, 1), (0, 3), (3, 0), (3, 3)})
        grown = (c - {(3, 0)}) | {(4, 0)}
        _box_scans.cache_clear()
        _back.cache_clear()
        first = plan_moves(c, t)
        assert first == reference_plan_moves(c, t)
        assert (first.phase, first.moves) == ("P1", {(3, 0): (4, 0)})
        old, new = canonical_frames(c), canonical_frames(grown)
        assert old[0] == new[0] and bounding_rect(c) != bounding_rect(grown)
        memo = _back(old[0])
        assert sorted(memo) == [(3, 3), (4, 3)]
        hits = _back.cache_info().hits
        assert plan_moves(grown, t) == reference_plan_moves(grown, t)
        assert _back.cache_info().hits == hits + 1
        assert _back(new[0]) is memo and _back.cache_info().currsize == 1
        # in frame coordinates the first box is 4 wide: (5, 3) lies two
        # steps out of it and one step out of the grown box
        assert sorted(memo) == [(3, 3), (4, 3), (5, 3)]

    def test_scheduler_per_frame_plans_of_collinear_configurations(self):
        """A collinear configuration is planned in each robot's own frame
        and mapped back by the scheduler."""
        rng = random.Random(20261019)
        moved = 0
        for i in range(120):
            k = rng.randint(2, 8)
            off, along = rng.choice(self.FAR), rng.sample(range(-9, 9), k)
            c = frozenset((off + a, -off) if i % 2 else (off, off + a)
                          for a in along)
            t = canonicalize_target(random_points(k, 5, rng))
            for frame in LINEAR_CLASSES:
                local = plan_or_violation(
                    reference_plan_moves, frame.apply_set(c), t)
                got = plan_or_violation(
                    lambda c, t: _plan({}, c, frame, t), c, t)
                if local[0] == "RuleViolation":
                    assert got == local
                    continue
                inv = frame.inverse()
                assert got == local._replace(moves={
                    inv.apply(s): inv.apply(d) for s, d in local.moves.items()})
                moved += bool(got.moves)
        assert moved > 100

    def test_caches_stay_within_their_bounds(self):
        """After plans over more than 200 distinct frames, each cache holds
        at most its bound of entries. A map-back memo outlives its box: it
        holds only cells, in frame coordinates, within one step of the
        largest box its frame won, whose corner is the frame's origin."""
        rng = random.Random(20261020)
        _back.cache_clear()
        largest = {}  # frame -> the widest x and y extents of its boxes
        for c, t in pinned_cases(600, 20261020):
            g = rng.choice(LINEAR_CLASSES)._replace(
                tx=rng.randint(-10**9, 10**9), ty=rng.randint(-10**9, 10**9))
            image = g.apply_set(c)
            plan_or_violation(plan_moves, image, t)
            frames = canonical_frames(image)
            x0, _, x1, _ = bounding_rect(frames[0].apply_set(image))
            n, m = largest.get(frames[0], (0, 0))
            n = max(n, x1 - x0 + 1)
            m = max(m, frames.spec[3])
            largest[frames[0]] = n, m
            assert all(-1 <= x <= n and -1 <= y <= m
                       for x, y in _back(frames[0]))
        assert len(largest) > 200
        for cache in (_box_scans, target_key, _path_table, _back):
            info = cache.cache_info()
            assert info.currsize <= info.maxsize
        assert _box_scans.cache_info().currsize == 64
        assert _back.cache_info().currsize == 8
