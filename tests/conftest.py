import random

import pytest

# The worked 8x6 example configuration: 11 robots, asymmetric, with the
# known maximal corner string below (scanned from (0,0), +y within a
# column, columns advancing +x).
REF11 = frozenset({
    (0, 1), (0, 3), (1, 2), (2, 0), (3, 3), (3, 5),
    (4, 0), (4, 5), (5, 1), (6, 4), (7, 2),
})
REF11_STRING = "010100001000100000000101100001010000000010001000"
REF11_HEAD = (0, 1)
REF11_TAIL = (7, 2)

LINE11 = frozenset((i, 0) for i in range(11))


def scan(cf, short_len=None):
    """A point set in canonical position as ``(key, S)``: its sorted scan
    indices ``x * S + y``, S its top row plus one unless given."""
    if short_len is None:
        short_len = max(y for _, y in cf) + 1
    assert all(0 <= y < short_len for _, y in cf), sorted(cf)
    return tuple(sorted(x * short_len + y for x, y in cf)), short_len


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def ref11():
    return REF11


@pytest.fixture
def line11():
    return LINE11
