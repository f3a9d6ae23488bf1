import random

import pytest

from gridform.sampling import random_asymmetric_config, random_points


def test_draws_are_pinned_for_a_fixed_seed():
    """The criterion-1 fixture, ``gridform fuzz`` and the benchmark draw
    their inputs from these helpers; a change to how they sample would
    silently change every seeded run."""
    rng = random.Random(20260823)
    assert random_asymmetric_config(6, 8, rng) == {
        (0, 3), (1, 0), (2, 2), (6, 0), (6, 1), (7, 7)}
    assert random_points(5, 12, rng) == {
        (3, 3), (5, 9), (6, 5), (8, 3), (11, 2)}
    assert random_asymmetric_config(4, 5, rng) == {
        (0, 0), (2, 4), (3, 4), (4, 1)}
    assert rng.randrange(2**32) == 2809895987


def test_box_too_small_for_k_points():
    with pytest.raises(ValueError, match="box too small for k distinct"):
        random_points(10, 3, random.Random(0))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_fewer_than_three_robots_are_never_asymmetric(k):
    with pytest.raises(ValueError, match="need at least 3 robots"):
        random_asymmetric_config(k, 8, random.Random(0))
