import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridform.algorithm import (
    PathInstance,
    RuleViolation,
    Snapshot,
    compute,
    pf_on_path_step,
    phase_moves,
    plan_moves,
    snake_cell,
    snake_index,
    snake_path,
)
from gridform.canonical import canonical_frames, is_asymmetric
from gridform.conditions import evaluate_conditions
from gridform.geometry import Isometry, apply_isometry
from gridform.sampling import random_asymmetric_config, random_points
from gridform.target import canonicalize_target

from conftest import REF11, REF11_TAIL, LINE11


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
        p = PathInstance(tuple(snake_path(2, 3)), (0, 1, 2), (3, 4, 5))
        assert pf_on_path_step(p, 0) is None  # blocked by the robot at 1
        assert pf_on_path_step(p, 1) is None
        assert pf_on_path_step(p, 2) == 3

    def test_backward_movement(self):
        p = PathInstance(tuple(snake_path(2, 3)), (3, 4, 5), (0, 1, 2))
        assert pf_on_path_step(p, 3) == 2
        assert pf_on_path_step(p, 4) is None

    def test_robot_at_its_target_stays(self):
        p = PathInstance(tuple(snake_path(2, 2)), (0, 2), (0, 2))
        assert pf_on_path_step(p, 0) is None
        assert pf_on_path_step(p, 2) is None

    def test_ordered_assignment(self):
        # ranks pair up in path order: robot 0 -> target 1, robot 5 -> 4
        p = PathInstance(tuple(snake_path(2, 3)), (0, 5), (1, 4))
        assert pf_on_path_step(p, 0) == 1
        assert pf_on_path_step(p, 5) == 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AssertionError):
            PathInstance(tuple(snake_path(2, 2)), (0, 1), (2,))


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
        g = Isometry(rot=1, reflect=True, tx=-2, ty=9)
        plan = plan_moves(apply_isometry(g, REF11), canonicalize_target(REF11))
        assert plan.formed

    def test_single_robot_is_always_formed(self):
        assert plan_moves({(3, 7)}, canonicalize_target({(0, 0)})).formed

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
        cv = evaluate_conditions(cf, target)
        with pytest.raises(RuleViolation, match="off the phase 4 path"):
            phase_moves(cf, cv, "P4", target)

    def test_phase4_interior_target_at_origin_is_a_rule_violation(self):
        config, target, _ = PHASE_CASES["P4"]
        cf = frozenset(config)
        moved = sorted(target.c_double_prime)[1:] + [(0, 0)]
        bad = dataclasses.replace(target, c_double_prime=frozenset(moved))
        with pytest.raises(RuleViolation, match="interior target at the origin"):
            phase_moves(cf, evaluate_conditions(cf, target), "P4", bad)

    def test_moves_never_collide(self):
        for config, target, _ in PHASE_CASES.values():
            plan = plan_moves(config, target)
            dests = list(plan.moves.values())
            assert len(dests) == len(set(dests))
            assert not set(dests) & (set(config) - set(plan.moves))


class TestCompute:
    def test_ref11_tail_steps_right(self):
        d = compute(Snapshot(REF11, REF11_TAIL), LINE_TARGET)
        assert d.direction == (1, 0)
        assert not d.stuck_symmetric

    def test_ref11_bystander_stays(self):
        d = compute(Snapshot(REF11, (0, 1)), LINE_TARGET)
        assert d.is_stay

    def test_observer_must_be_present(self):
        with pytest.raises(ValueError):
            compute(Snapshot(REF11, (4, 4)), LINE_TARGET)

    def test_symmetric_snapshot_reports_stuck(self):
        pts = frozenset({(0, 0), (1, 0)})
        d = compute(Snapshot(pts, (0, 0)), canonicalize_target({(0, 0), (3, 0)}))
        assert d.is_stay
        assert d.stuck_symmetric


class TestPlanProperties:
    def test_frame_invariance(self, rng):
        """The physical plan commutes with any isometry of the input.

        Collinear configurations are skipped: their Y-axis is undetermined
        and filled by a local convention that is not covariant."""
        classes = [Isometry(r, refl) for r in range(4) for refl in (0, 1)]
        for _ in range(150):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            if canonical_frames(c)[0].y_dir is None:
                continue
            t = canonicalize_target(random_points(k, 5, rng))
            base = plan_moves(c, t)
            lin = rng.choice(classes)
            g = Isometry(lin.rot, lin.reflect,
                         rng.randint(-6, 6), rng.randint(-6, 6))
            img = plan_moves(apply_isometry(g, c), t)
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
