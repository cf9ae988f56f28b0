"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library's closed
forms: distances by direct truncated summation, block locations by scanning
a materialized prefix, suprema by sampling, the enumeration word by word.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from shiftchaos import (
    Alphabet,
    EventuallyPeriodicSeq,
    FiniteWord,
    UniversalSeq,
    periodic,
    window_padded,
)
from shiftchaos.sequences import _rotation


def brute_distance(s, t, r, depth=64):
    """Direct truncated summation of the weighted mismatch metric.

    Accurate to within 2 * r**depth / (1 - r) of the true value.
    """
    total = 0.0
    for j in range(1, depth + 1):
        if s.symbol_at(j) != t.symbol_at(j):
            total += r ** j
    for j in range(0, -depth, -1):
        if s.symbol_at(j) != t.symbol_at(j):
            total += r ** (1 - j)
    return total


def _is_correctly_rounded_root(x: float, q: Fraction) -> bool:
    """x is the float nearest sqrt(q): q lies between the squares of the
    midpoints from x to its two neighbours."""
    lo, hi = math.nextafter(x, 0), math.nextafter(x, math.inf)
    return ((Fraction(lo) + Fraction(x)) / 2) ** 2 <= q <= ((Fraction(x) + Fraction(hi)) / 2) ** 2


def _pull_back(digits, shift, scale):
    """Image of [0, 1] under the composition of the branch maps
    t -> scale * t + (digit - 1) * shift, innermost digit last: a horseshoe
    rectangle's side, from the branches alone rather than digit sums."""
    lo, hi = Fraction(0), Fraction(1)
    for d in reversed(digits):
        lo, hi = scale * lo + (d - 1) * shift, scale * hi + (d - 1) * shift
    return lo, hi


# the three pinned horseshoe runs' parameters, and the slowest floats the
# 64-bit cap accepts
ROOT_PARAMS = [
    (Fraction(1, 3), 3),
    (Fraction(21840, 65521), Fraction(65521, 21841)),
    (0.3, 3.5),
    ((2 ** 52 + 1) / 2 ** 63, 2.0 ** 64 - 2.0 ** 11),
]
ROOT_IDS = ["exact", "16-bit", "float", "64-bit-float"]


def planar_orbit_csv(x, y, lam, mu, steps):
    """The text of `orbit.csv` for a planar start (x, y): the map's two
    branch formulas iterated in `Fraction`s on the exact lambda and mu, each
    row's floats rounded from the exact iterate.  Time quadratic in steps."""
    lam, mu = Fraction(lam), Fraction(mu)
    x, y = Fraction(x), Fraction(y)
    lines = ["n,x,y,symbol\n"]
    for n in range(steps + 1):
        t = 0 if y <= 1 / mu else 1 if y >= 1 - 1 / mu else None
        lines.append(f"{n},{float(x)!r},{float(y)!r},{'escape' if t is None else t + 1}\n")
        if t is None:
            break
        x, y = lam * x + t * (1 - lam), mu * y - t * (mu - 1)
    return "".join(lines)


def scan_for_block(symbols, block):
    """First index where `block` occurs in the symbol list, or None."""
    n = len(block)
    for i in range(len(symbols) - n + 1):
        if tuple(symbols[i : i + n]) == tuple(block):
            return i
    return None


def _ref_enumeration(m, seed, count, lo=0):
    """`count` enumeration symbols from position `lo` on, generated word by
    word: length-lex order at seed 0, and otherwise entry i of the length-L
    section is (i + _rotation) % m**L in L base-m digits, one divmod each.
    Bytes for m <= 255, a tuple of ints above."""
    length, start = 1, 0
    while start + length * m ** length <= lo:  # skip whole sections
        start += length * m ** length
        length += 1
    index, skip = divmod(lo - start, length)
    out = []
    while len(out) < skip + count:
        size = m ** length
        if seed == 0 and index == 0:
            words = product(range(1, m + 1), repeat=length)
        else:
            rot = _rotation(seed, length, size)
            words = (_digits((i + rot) % size, m, length) for i in range(index, size))
        for w in words:
            out.extend(w)
            if len(out) >= skip + count:
                break
        length, index = length + 1, 0
    out = out[skip : skip + count]
    return bytes(out) if m <= 255 else tuple(out)


def _digits(num, m, length):
    """`num` as `length` base-m digits, most significant first, 1-based."""
    digits = []
    for _ in range(length):
        num, d = divmod(num, m)
        digits.append(d + 1)
    return digits[::-1]


def random_block(rng, m, max_len=4):
    return tuple(rng.randint(1, m) for _ in range(rng.randint(1, max_len)))


def random_sequence(rng, m):
    """A random representable sequence with a small description."""
    kind = rng.randrange(4)
    if kind == 0:
        return periodic(random_block(rng, m), rng.randint(-3, 3))
    if kind == 1:
        word = tuple(rng.randint(1, m) for _ in range(rng.randint(0, 5)))
        return window_padded(word, rng.randint(-4, 4), rng.randint(1, m))
    if kind == 2:
        return EventuallyPeriodicSeq(
            FiniteWord(random_block(rng, m)),
            FiniteWord(tuple(rng.randint(1, m) for _ in range(rng.randint(0, 3)))),
            rng.randint(-2, 2),
            FiniteWord(random_block(rng, m)),
        )
    return UniversalSeq(m, seed=rng.randrange(4), offset=rng.randint(-6, 6))


@pytest.fixture
def rng():
    return random.Random(20260809)
