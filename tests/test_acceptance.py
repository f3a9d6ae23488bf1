"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package and prints a
single PASS line on success (visible with ``pytest -s`` or on failure).
"""

import itertools
import random

import pytest

from gridform.algorithm import plan_moves
from gridform.canonical import canonical_frames, is_asymmetric
from gridform.cli import main
from gridform.conditions import (
    classify_phase,
    evaluate_conditions,
    has_horizontal_reflection,
)
from gridform.geometry import LINEAR_CLASSES, bounding_rect
from gridform.sampling import random_asymmetric_config, random_points
from gridform.scheduler import make_adversary, run
from gridform.target import canonicalize_target
from gridform.verify import (
    back_edge_count,
    check_collision_free,
    check_formed,
    check_phase_transitions,
)

from conftest import REF11_HEAD, REF11_STRING, REF11_TAIL, scan
from oracles import brute_force_symmetries, oracle_pf_on_path

from test_conditions import PREDICATES


@pytest.fixture(scope="module")
def formation_outcomes():
    """500 end-to-end runs shared by the formation and trace-legality
    criteria: k in [3,12], 12x12 box, the three adversaries round-robin,
    fairness window 4k."""
    rng = random.Random(20260823)
    kinds = ["random", "round_robin", "max_stale"]
    results = []
    for i in range(500):
        k = rng.randint(3, 12)
        config = random_asymmetric_config(k, 12, rng)
        target = canonicalize_target(random_points(k, 12, rng))
        adversary = make_adversary(kinds[i % 3], 4 * k, rng.randrange(2**32))
        results.append((run(config, target, adversary), target))
    return results


def test_criterion_1_end_to_end_formation(formation_outcomes):
    failures = []
    for i, (out, target) in enumerate(formation_outcomes):
        ok = (
            out.kind == "FORMED"
            and out.fault is None
            and out.events_used <= 100_000
            and check_collision_free(out.trace).passed
            and check_formed(out.final, target).passed
        )
        if not ok:
            failures.append((i, out.kind, out.fault))
    assert not failures, failures
    print(f"criterion 1 end-to-end formation "
          f"({len(formation_outcomes)} runs, all FORMED): PASS")


def test_criterion_2_path_protocol_oracle():
    rng = random.Random(2)
    checked = 0
    for _ in range(1000):
        n_cells = rng.randint(2, 30)
        k = rng.randint(1, min(6, n_cells))
        robots = tuple(sorted(rng.sample(range(n_cells), k)))
        targets = tuple(sorted(rng.sample(range(n_cells), k)))
        res = oracle_pf_on_path(robots, targets, rng=rng)
        assert res.verdict.passed, (robots, targets, res.verdict.violations)
        assert res.total_steps == sum(
            abs(r - t) for r, t in zip(robots, targets)
        )
        checked += 1
    print(f"criterion 2 path protocol oracle ({checked} instances): PASS")


def test_criterion_3_asymmetry_equivalence():
    box = [(x, y) for x in range(4) for y in range(4)]
    checked = 0
    for k in range(1, 6):
        for combo in itertools.combinations(box, k):
            c = frozenset(combo)
            assert is_asymmetric(c) == (not brute_force_symmetries(c)), c
            checked += 1
    rng = random.Random(3)
    for _ in range(10_000):
        c = random_points(rng.randint(2, 12), 10, rng)
        assert is_asymmetric(c) == (not brute_force_symmetries(c)), c
        checked += 1
    print(f"criterion 3 asymmetry equivalence ({checked} configurations): PASS")


def test_criterion_4_phase_partition():
    rng = random.Random(4)
    checked = 0
    while checked < 10_000:
        k = rng.randint(3, 10)
        c = random_asymmetric_config(k, 9, rng)
        t = canonicalize_target(random_points(k, 6, rng))
        cf = canonical_frames(c)[0].apply_set(c)
        cv = evaluate_conditions(*scan(cf), t)
        if cv.c0:
            continue
        matching = [p for p, pred in PREDICATES.items() if pred(cv)]
        assert matching == [classify_phase(cv)], (sorted(cf), sorted(t.points))
        checked += 1
    print(f"criterion 4 phase partition ({checked} pairs): PASS")


def _harvest_phase_states(wanted, per_phase, seed):
    """Collect canonical-coordinate configurations in each wanted phase by
    stepping random synchronous executions."""
    rng = random.Random(seed)
    pools = {ph: [] for ph in wanted}

    def full(ph):
        return len(pools[ph]) >= per_phase

    while not all(full(ph) for ph in wanted):
        k = rng.randint(4, 9)
        cur = random_asymmetric_config(k, 9, rng)
        t = canonicalize_target(random_points(k, 6, rng))
        for _ in range(600):
            frames = canonical_frames(cur)
            if len(frames) != 1:
                break
            cf = frames[0].apply_set(cur)
            cv = evaluate_conditions(*scan(cf), t)
            if cv.c0:
                break
            phase = classify_phase(cv)
            if phase in ("P4", "P5", "P6", "P7") and full("P4"):
                break  # by verify.PHASE_EDGES no P1-P3 state can follow
            c8 = phase == "P3" and has_horizontal_reflection(cf - {cv.tail})
            key = None if c8 else phase
            if key in wanted and not full(key):
                pools[key].append((cf, t))
            plan = plan_moves(cur, t)
            if not plan.moves:
                break
            cur = frozenset(
                (set(cur) - set(plan.moves)) | set(plan.moves.values())
            )
    return pools


def test_criterion_5_single_move_invariance():
    """In phases 1, 2, 3 (without reflection symmetry) and 4, applying one
    prescribed move keeps the configuration asymmetric and keeps the same
    unique canonical frame (in canonical coordinates: the identity)."""
    per_phase = 1000
    pools = _harvest_phase_states(["P1", "P2", "P3", "P4"], per_phase, seed=5)
    checked = 0
    for phase, pool in pools.items():
        assert len(pool) >= per_phase, (phase, len(pool))
        for cf, t in pool:
            plan = plan_moves(cf, t)
            assert plan.phase == phase
            for src, dst in plan.moves.items():
                nxt = frozenset((set(cf) - {src}) | {dst})
                assert len(nxt) == len(cf), (phase, sorted(cf), src)
                assert is_asymmetric(nxt), (phase, sorted(cf), src)
                frames = canonical_frames(nxt)
                assert len(frames) == 1, (phase, sorted(cf), src)
                assert frames[0].apply_set(nxt) == nxt, \
                    (phase, sorted(cf), src)
            checked += 1
    print(f"criterion 5 single-move invariance "
          f"({checked} states over P1,P2,P3,P4): PASS")


def test_criterion_6_frame_invariance():
    """Collinear configurations are skipped: their Y-axis is undetermined
    and filled by a local convention that is deliberately not covariant."""
    rng = random.Random(6)
    checked = 0
    while checked < 1000:
        k = rng.randint(3, 9)
        c = random_asymmetric_config(k, 8, rng)
        x0, y0, x1, y1 = bounding_rect(c)
        if x0 == x1 or y0 == y1:
            continue
        t = canonicalize_target(random_points(k, 6, rng))
        base = plan_moves(c, t)
        for lin in LINEAR_CLASSES:
            g = lin._replace(tx=rng.randint(-8, 8), ty=rng.randint(-8, 8))
            img = plan_moves(g.apply_set(c), t)
            assert (img.phase == "DONE") == (base.phase == "DONE")
            assert img.moves == {
                g.apply(src): g.apply(dst)
                for src, dst in base.moves.items()
            }, (sorted(c), g)
        checked += 1
    print(f"criterion 6 frame invariance "
          f"({checked} configurations x 8 isometries): PASS")


def test_criterion_7_reference_configuration_regression(tmp_path, capsys):
    from gridform.cli import format_config
    from conftest import REF11

    path = tmp_path / "reference.txt"
    path.write_text(format_config(REF11))
    assert main(["analyze", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"maximal string: {REF11_STRING}" in out
    assert out.count(REF11_STRING) == 2  # the winning scan and the maximum
    assert "asymmetric: yes" in out
    assert f"head: {REF11_HEAD}" in out
    assert f"tail: {REF11_TAIL}" in out
    with capsys.disabled():
        print("criterion 7 reference-configuration regression: PASS")


def test_criterion_8_trace_legality(formation_outcomes):
    back_edges = 0
    for out, _ in formation_outcomes:
        assert out.kind == "FORMED"
        v = check_phase_transitions(out.trace)
        assert v.passed, v.violations
        back_edges += back_edge_count(out.trace)
    print(f"criterion 8 trace legality ({len(formation_outcomes)} traces, "
          f"{back_edges} legal 3->1 back edges): PASS")
