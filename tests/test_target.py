import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridform.geometry import LINEAR_CLASSES
from gridform.target import canonicalize_target

from conftest import REF11

points_strategy = st.frozensets(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=8
)
isometry_strategy = st.builds(
    lambda lin, tx, ty: lin._replace(tx=tx, ty=ty),
    st.sampled_from(LINEAR_CLASSES),
    st.integers(-4, 4),
    st.integers(-4, 4),
)


def test_symmetric_square_target():
    t = canonicalize_target({(5, 5), (5, 6), (6, 5)})
    assert t.points == {(0, 0), (0, 1), (1, 0)}
    assert (t.M, t.N) == (2, 2)
    assert t.h_target == (0, 0)
    assert t.t_target == (1, 0)
    assert t.c_double_prime == {(0, 1)}


def test_full_line_target():
    t = canonicalize_target({(i, 0) for i in range(11)})
    assert t.points == {(i, 0) for i in range(11)}
    assert (t.M, t.N) == (1, 11)
    assert t.h_target == (0, 0)
    assert t.t_target == (10, 0)


def test_ref11_already_canonical():
    t = canonicalize_target(REF11)
    assert t.points == REF11
    assert t.h_target == (0, 1)
    assert t.t_target == (7, 2)


def test_single_point():
    t = canonicalize_target({(7, -3)})
    assert t.points == {(0, 0)}
    assert t.h_target == t.t_target == (0, 0)
    assert t.c_double_prime == frozenset()


def test_two_point_target_is_legal():
    t = canonicalize_target({(2, 2), (2, 5)})
    assert (t.M, t.N) == (1, 4)
    assert t.h_target != t.t_target


@settings(max_examples=120)
@given(raw=points_strategy, g=isometry_strategy)
def test_canonical_form_is_isometry_invariant(raw, g):
    assert canonicalize_target(raw) == canonicalize_target(g.apply_set(raw))


@given(raw=points_strategy)
def test_derived_fields(raw):
    t = canonicalize_target(raw)
    assert t.N >= t.M >= 1
    if (0, 0) in t.points:
        assert t.h_target == (0, 0)
    if len(t.points) >= 2:
        assert t.h_target != t.t_target
        assert len(t.c_double_prime) == len(t.points) - 2


def test_interior_sets_are_derived_from_the_stored_fields():
    from gridform.sampling import random_points

    assert set(canonicalize_target(REF11)._fields) == {
        "points", "M", "N", "h_target", "t_target"}
    rng = random.Random(7)
    for i in range(2000):
        t = canonicalize_target(random_points(2 + i % 9, 6, rng))
        assert t.c_double_prime == t.points - {t.h_target, t.t_target}


def test_empty_pattern_is_rejected():
    with pytest.raises(ValueError, match="empty configuration"):
        canonicalize_target([])
