"""Random configuration sampling helpers shared by the CLI and tests."""

from __future__ import annotations

import random
from functools import lru_cache

from .canonical import is_asymmetric

MAX_TRIES = 10_000  # samples before ``random_asymmetric_config`` gives up


@lru_cache(maxsize=8)  # callers sample from a handful of box sides
def _cells(box: int) -> tuple:
    """The cells of a box x box grid, shared by every sample from it."""
    return tuple((x, y) for x in range(box) for y in range(box))


def random_points(k: int, box: int, rng: random.Random) -> frozenset:
    """k distinct lattice points inside a box x box grid."""
    if k > box * box:
        raise ValueError("box too small for k distinct points")
    return frozenset(rng.sample(_cells(box), k))


def random_asymmetric_config(k: int, box: int, rng: random.Random) -> frozenset:
    """Rejection-sample an asymmetric configuration of k robots."""
    if k < 3:
        raise ValueError("asymmetric configurations need at least 3 robots")
    for _ in range(MAX_TRIES):
        c = random_points(k, box, rng)
        if is_asymmetric(c):
            return c
    raise RuntimeError(f"no asymmetric {k}-point set found in a {box}x{box} box")
