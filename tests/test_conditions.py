import itertools
import random

import pytest

from gridform.conditions import (
    ConditionVector,
    classify_phase,
    evaluate_conditions,
    has_horizontal_reflection,
)
from gridform.target import canonicalize_target

from conftest import REF11, LINE11


def vector(**bits):
    fields = {f"c{i}": bits.get(f"c{i}", False) for i in range(8)}
    return ConditionVector(**fields, m=1, n=1, H=1, V=1,
                           head=(0, 0), tail=(0, 0))


# The seven phase predicates, straight from the decision tree.
PREDICATES = {
    "P1": lambda v: not (v.c1 and v.c2) and not (v.c3 and v.c4),
    "P2": lambda v: (v.c3 and v.c4 and not v.c5 and not v.c7)
    or (not v.c2 and v.c3 and v.c4 and not v.c5 and v.c7),
    "P3": lambda v: v.c3 and v.c4 and v.c5 and not v.c6 and not v.c7,
    "P4": lambda v: v.c3 and v.c4 and v.c5 and v.c6 and not v.c7,
    "P5": lambda v: not v.c2 and v.c3 and v.c4 and v.c5 and v.c7,
    "P6": lambda v: not v.c1 and v.c2 and v.c3 and v.c4 and v.c7,
    "P7": lambda v: v.c1 and v.c2,
}


class TestEvaluate:
    def test_ref11_against_line_target(self):
        t = canonicalize_target(LINE11)
        cv = evaluate_conditions(REF11, sorted(REF11), t)
        assert (cv.m, cv.n, t.M, t.N, cv.H, cv.V) == (6, 8, 1, 11, 7, 6)
        assert cv.c3 and not cv.c4
        assert not cv.c1 and not cv.c2 and not cv.c5
        assert not cv.c6 and not cv.c7
        assert not has_horizontal_reflection(REF11 - {cv.tail})  # C8
        assert cv.head == (0, 1)
        assert cv.tail == (7, 2)

    def test_identical_configuration_sets_all_set_equalities(self):
        t = canonicalize_target(REF11)
        cv = evaluate_conditions(REF11, sorted(REF11), t)
        assert cv.c0 and cv.c1 and cv.c2 and cv.c7

    def test_c8_axis_between_rows(self):
        assert has_horizontal_reflection(frozenset({(0, 0), (0, 2), (1, 1)}))

    def test_c8_trivial_line_reflection_excluded(self):
        assert not has_horizontal_reflection(frozenset({(0, 0), (1, 0), (3, 0)}))

    def test_c8_half_integer_axis(self):
        assert has_horizontal_reflection(frozenset({(0, 0), (0, 1), (2, 0), (2, 1)}))

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="target"):
            evaluate_conditions({(0, 0)}, [(0, 0)],
                                canonicalize_target(LINE11))

    def test_pure_function(self):
        t = canonicalize_target(LINE11)
        order = sorted(REF11)
        assert (evaluate_conditions(REF11, order, t)
                == evaluate_conditions(REF11, order, t))


class TestClassify:
    def test_done_dominates(self):
        for extra in ({}, {"c1": True, "c2": True}, {"c3": True, "c4": True}):
            assert classify_phase(vector(c0=True, **extra)) == "DONE"

    def test_ref11_vector_is_phase1(self):
        cv = evaluate_conditions(REF11, sorted(REF11),
                                 canonicalize_target(LINE11))
        assert classify_phase(cv) == "P1"

    def test_c1_c2_is_phase7(self):
        assert classify_phase(vector(c1=True, c2=True)) == "P7"

    def test_exactly_one_phase_for_every_satisfiable_boolean_vector(self):
        """Totality and disjointness over the satisfiable combinations of
        C1..C7 (C8 never enters the classifier).

        Real configurations always satisfy c1 => c7: the head is the
        minimum of the scan order, so equal C' sets force equal heads and
        therefore equal C'' sets. Vectors violating that never occur (see
        the concrete-configuration test below).
        """
        for bits in itertools.product([False, True], repeat=7):
            v = vector(**{f"c{i + 1}": b for i, b in enumerate(bits)})
            if v.c1 and not v.c7:
                continue
            matching = [p for p, pred in PREDICATES.items() if pred(v)]
            assert len(matching) == 1, (bits, matching)
            assert classify_phase(v) == matching[0]

    def test_c1_implies_c7_on_concrete_configurations(self, rng):
        from gridform.canonical import canonical_frames
        from gridform.sampling import random_asymmetric_config, random_points

        for _ in range(300):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            t = canonicalize_target(random_points(k, 7, rng))
            cf = canonical_frames(c)[0].apply_set(c)
            cv = evaluate_conditions(cf, sorted(cf), t)
            assert not cv.c1 or cv.c7

    def test_classifier_matches_predicates_on_concrete_configurations(self, rng):
        from gridform.canonical import canonical_frames
        from gridform.sampling import random_asymmetric_config, random_points

        for _ in range(300):
            k = rng.randint(3, 9)
            c = random_asymmetric_config(k, 8, rng)
            t = canonicalize_target(random_points(k, 8, rng))
            cf = canonical_frames(c)[0].apply_set(c)
            cv = evaluate_conditions(cf, sorted(cf), t)
            if cv.c0:
                continue
            matching = [p for p, pred in PREDICATES.items() if pred(cv)]
            assert matching == [classify_phase(cv)]


def test_subset_forms_of_c1_and_c7_equal_set_equality():
    """c1 and c7 are subset tests against the target; over configurations
    random and near the target (tail, or head and tail, replaced) they
    agree with the set-equality definitions C' = C'_target and
    C'' = C''_target."""
    from gridform.sampling import random_points

    rng = random.Random(20260824)
    hits = {"c1": 0, "c7": 0}
    for i in range(2400):
        k = 2 + i % 7
        t = canonicalize_target(random_points(k, 5, rng))
        drop = [set(), {t.t_target}, {t.h_target, t.t_target}][i % 3]
        cf = set(t.points - drop) if drop else set()
        while len(cf) < k:
            cf.add((rng.randrange(7), rng.randrange(7)))
        cf = frozenset(cf)
        order = sorted(cf)
        head, tail = order[0], order[-1]
        c1 = cf - {tail} == t.points - {t.t_target}
        c7 = cf - {head, tail} == t.points - {t.h_target, t.t_target}
        cv = evaluate_conditions(cf, sorted(cf), t)
        assert (cv.c1, cv.c7) == (c1, c7), (sorted(cf), sorted(t.points))
        hits["c1"] += c1
        hits["c7"] += c7
    assert min(hits.values()) > 100


def reference_c0_c1_c7(cf, t):
    """C0, C1 and C7 as subset tests on copies of C' and C''."""
    order = sorted(cf)
    head, tail = order[0], order[-1]
    c_prime = cf - {tail}
    dp = c_prime - {head}
    return (cf == t.points,
            c_prime <= t.points and t.t_target not in c_prime,
            dp <= t.points and t.h_target not in dp and t.t_target not in dp)


def test_one_set_difference_matches_the_subset_forms():
    """C0, C1 and C7 from ``cf - t.points`` against the subset forms, on
    canonical configurations, on targets with a few robots moved off and
    on configurations whose head or tail holds a target end."""
    from gridform.algorithm import plan_moves
    from gridform.canonical import canonical_frames
    from gridform.sampling import random_points

    rng = random.Random(20261018)
    box = [(x, y) for x in range(-1, 9) for y in range(-1, 9)]
    hits = dict.fromkeys(("c0", "c1", "c7", "end_on_end", "ends_decide"), 0)
    for i in range(3000):
        k = 1 + i % 8
        t = canonicalize_target(random_points(k, 7, rng))
        mode = i // 8 % 3
        if mode == 0:  # a canonical configuration
            c = random_points(k, 7, rng)
            cf = canonical_frames(c)[0].apply_set(c)
        elif mode == 1:  # the target with up to 3 robots moved
            cf = set(rng.sample(sorted(t.points), k - rng.randint(0, min(3, k))))
            while len(cf) < k:
                cf.add(rng.choice(box))
        else:  # a target end held by the head or by the tail
            end = rng.choice([t.h_target, t.t_target])
            as_head = rng.random() < 0.5
            cf = {end}
            if as_head:
                pool = [p for p in sorted(t.points) + box if p > end]
            else:
                pool = [p for p in sorted(t.points) + box if p < end]
            while len(cf) < k and pool:
                cf.add(pool[min(int(rng.expovariate(0.3)), len(pool) - 1)])
            if len(cf) < k:
                continue
        cf = frozenset(cf)
        if k == 1:  # conditions need 2 robots; plan_moves never asks
            with pytest.raises(ValueError, match="at least 2 robots"):
                evaluate_conditions(cf, sorted(cf), t)
            assert plan_moves(cf, t).formed
            continue
        cv = evaluate_conditions(cf, sorted(cf), t)
        c0, c1, c7 = reference_c0_c1_c7(cf, t)
        assert (cv.c0, cv.c1, cv.c7) == (c0, c1, c7), (sorted(cf), t)
        hits["c0"] += c0
        hits["c1"] += c1
        hits["c7"] += c7
        ends = {cv.head, cv.tail}
        hits["end_on_end"] += bool(ends & {t.h_target, t.t_target})
        # C'' lies on the target, yet a target end decides C7
        hits["ends_decide"] += (cf - t.points <= ends and not c7)
    assert min(hits.values()) > 20, hits


def reference_evaluate(cf, t):
    """``evaluate_conditions`` as it was before it read a handed scan
    order: it sorted ``cf`` itself."""
    order = sorted(cf)  # scan order of the canonical string
    head, tail = order[0], order[-1]
    ys = [p[1] for p in order[:-1]]
    lo, hi = min(ys), max(ys)
    n, H = tail[0] - head[0] + 1, order[-2][0] - head[0] + 1
    m, V = max(hi, tail[1]) - min(lo, tail[1]) + 1, hi - lo + 1
    off = cf - t.points
    ends, h_target, t_target = (head, tail), t.h_target, t.t_target
    return ConditionVector(
        not off,
        off <= {tail} and (t_target == tail or t_target not in cf),
        tail[1] == t_target[1],
        n >= max(t.M, m) + 2,
        n >= 2 * max(t.N, H),
        head == (0, 0),
        m >= max(t.M, V) + 1,
        off <= {head, tail} and (t_target in ends or t_target not in cf)
        and (h_target in ends or h_target not in cf),
        m, n, H, V, head, tail,
    )


def test_decoded_order_matches_the_sorting_reference():
    """Fed the scan order ``to_frame_coords`` decodes, the conditions equal
    the old sorting body on random configurations and on targets as they
    are or with the tail, or the head and the tail, moved."""
    from gridform.canonical import canonical_frames, to_frame_coords
    from gridform.sampling import random_points

    rng = random.Random(20261019)
    hits = dict.fromkeys(("c0", "c1", "c7", "multi_frame"), 0)
    for i in range(6000):
        k = 2 + i % 11
        t = canonicalize_target(random_points(k, 6, rng))
        if i % 2:  # a random configuration, wide or tall, near or far
            x0, y0 = rng.randint(-10**6, 10**6), rng.randint(-50, 50)
            c = {(x0 + x, y0 + y) for x, y in random_points(k, 9, rng)}
        else:  # the target, or it with the tail or head and tail moved
            c = set(t.points - [{t.t_target}, {t.h_target, t.t_target},
                                set()][i // 2 % 3])
            while len(c) < k:
                c.add((rng.randrange(-2, 12), rng.randrange(-2, 8)))
        frames = canonical_frames(c)
        order = to_frame_coords(c, frames)
        cf = frozenset(order)
        cv = evaluate_conditions(cf, order, t)
        assert cv == reference_evaluate(cf, t), (sorted(c), t)
        hits["c0"] += cv.c0
        hits["c1"] += cv.c1
        hits["c7"] += cv.c7
        hits["multi_frame"] += len(frames) > 1
    assert min(hits.values()) > 50, hits
