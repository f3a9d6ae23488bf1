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
        cv = evaluate_conditions(REF11, t)
        assert (cv.m, cv.n, t.M, t.N, cv.H, cv.V) == (6, 8, 1, 11, 7, 6)
        assert cv.c3 and not cv.c4
        assert not cv.c1 and not cv.c2 and not cv.c5
        assert not cv.c6 and not cv.c7
        assert not has_horizontal_reflection(REF11 - {cv.tail})  # C8
        assert cv.head == (0, 1)
        assert cv.tail == (7, 2)

    def test_identical_configuration_sets_all_set_equalities(self):
        t = canonicalize_target(REF11)
        cv = evaluate_conditions(REF11, t)
        assert cv.c0 and cv.c1 and cv.c2 and cv.c7

    def test_c8_axis_between_rows(self):
        assert has_horizontal_reflection(frozenset({(0, 0), (0, 2), (1, 1)}))

    def test_c8_trivial_line_reflection_excluded(self):
        assert not has_horizontal_reflection(frozenset({(0, 0), (1, 0), (3, 0)}))

    def test_c8_half_integer_axis(self):
        assert has_horizontal_reflection(frozenset({(0, 0), (0, 1), (2, 0), (2, 1)}))

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="target"):
            evaluate_conditions({(0, 0)}, canonicalize_target(LINE11))

    def test_pure_function(self):
        t = canonicalize_target(LINE11)
        assert evaluate_conditions(REF11, t) == evaluate_conditions(REF11, t)


class TestClassify:
    def test_done_dominates(self):
        for extra in ({}, {"c1": True, "c2": True}, {"c3": True, "c4": True}):
            assert classify_phase(vector(c0=True, **extra)) == "DONE"

    def test_ref11_vector_is_phase1(self):
        cv = evaluate_conditions(REF11, canonicalize_target(LINE11))
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
        from gridform.canonical import canonical_frames, to_frame_coords
        from gridform.sampling import random_asymmetric_config, random_points

        for _ in range(300):
            k = rng.randint(3, 8)
            c = random_asymmetric_config(k, 7, rng)
            t = canonicalize_target(random_points(k, 7, rng))
            cf = to_frame_coords(c, canonical_frames(c)[0])
            cv = evaluate_conditions(cf, t)
            assert not cv.c1 or cv.c7

    def test_classifier_matches_predicates_on_concrete_configurations(self, rng):
        from gridform.canonical import canonical_frames, to_frame_coords
        from gridform.sampling import random_asymmetric_config, random_points

        for _ in range(300):
            k = rng.randint(3, 9)
            c = random_asymmetric_config(k, 8, rng)
            t = canonicalize_target(random_points(k, 8, rng))
            cf = to_frame_coords(c, canonical_frames(c)[0])
            cv = evaluate_conditions(cf, t)
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
        cv = evaluate_conditions(cf, t)
        assert (cv.c1, cv.c7) == (c1, c7), (sorted(cf), sorted(t.points))
        hits["c1"] += c1
        hits["c7"] += c7
    assert min(hits.values()) > 100
