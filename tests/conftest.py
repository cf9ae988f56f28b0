"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library's closed
forms: distances by direct truncated summation, block locations by scanning
a materialized prefix, suprema by sampling, the enumeration word by word.
"""

import random
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


def scan_for_block(symbols, block):
    """First index where `block` occurs in the symbol list, or None."""
    n = len(block)
    for i in range(len(symbols) - n + 1):
        if tuple(symbols[i : i + n]) == tuple(block):
            return i
    return None


def _ref_enumeration(m, seed, count):
    """First `count` enumeration symbols as bytes, generated word by word:
    length-lex order at seed 0, and otherwise entry i of the length-L
    section is (i + _rotation) % m**L in L base-m digits, one divmod each."""
    out = bytearray()
    length = 1
    while len(out) < count:
        size = m ** length
        if seed == 0:
            for w in product(range(1, m + 1), repeat=length):
                out.extend(w)
                if len(out) >= count:
                    break
        else:
            rot = _rotation(m, seed, length)
            for i in range(size):
                num = (i + rot) % size
                digits = []
                for _ in range(length):
                    num, d = divmod(num, m)
                    digits.append(d + 1)
                out.extend(reversed(digits))
                if len(out) >= count:
                    break
        length += 1
    return bytes(out[:count])


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
