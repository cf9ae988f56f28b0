"""A concrete metric on the shift space, with exact cylinder geometry.

The distance between two sequences is the weighted count of mismatched
positions,

    d(s, t) = sum_j  [s(j) != t(j)] * w(j),
    w(j) = r**j        for j >= 1,
    w(j) = r**(|j|+1)  for j <= 0,

with 0 < r < 1, so both tails are geometric and the total weight 2r/(1-r)
is finite (= 2 at r = 1/2).  Under this metric:

* a cylinder's diameter is exactly the total weight of its free positions,
  attained by a pair of members differing everywhere off the window;
* the distance between two cylinders is exactly the weight of the jointly
  fixed positions where their words disagree;
* cylinders shrink geometrically as the window grows (the diameter
  condition) and depth-n future cylinders admit a uniform positive
  separation eps0 = r, witnessed by flipping the first fixed symbol.

A side both sequences describe (explicit depths, then a repeating block)
is exact (error 0) when explicit depth plus period is at most the clip
depth L(r), 1077 at r = 1/2 and 621 at r = 0.3, and is clipped to depths
1..L(r) otherwise; a side with no finite description is truncated at
`check_tolerance(r, tol)`.  A cut side's error is the weight it drops, at
least 5e-324 and at most tol/2; past L(r) that is below half of 5e-324, so
a clip drops only float weights 0.0.  The value's rounding (half an ulp at
r = 2**-q) is not in the error, but distinct sequences never read (0, 0).

`distance` reads one window per sequence, positions 1 - pd..fd, where pd
and fd are the depths `_cuts` gives its past and future sides, and finds
the mismatches of the whole window in one pass in C: one XOR of two byte
spans (`map(ne, ...)` over short or tuple spans).  At r = 2**-q,
1 <= q <= 5, the mismatch digits (1 where the spans differ), past depths
1..pd then future depths 1..fd, are one base-2**q numeral that one
`int(text, 2**q)` parses; its low q*fd bits are the future side's numeral
W and the rest the past side's.  A side over depths 1..k is worth
W / 2**(q*k), and over E explicit depths then a periodic block of P it is
(W - (W >> q*P)) / (2**(q*E) * (2**(q*P) - 1)).  One `int / int` over a
common denominator, which CPython rounds correctly, gives the correctly
rounded exact (or truncated) sum.  Every other r adds float weights r**j
from a cached table one by one from 0.0 (block weights divided by
1 - r**period), each side from its slice of the one mismatch pass: the
future in increasing j, the past over its explicit positions in
increasing j, then over the block from its start downwards.  That fixes
every rounding step on every Python version (the builtin `sum`
compensates float sums from Python 3.12 on).

`orbit_distances` yields the rows d(shift^n s, s), n = 0..steps, of
`distance` bit for bit, one at a time: it holds no table of rows.  When s
has a constant past (s(j) = c for j <= b, -L(r) <= b <= 0: a deeper
constant past is taken from -L(r) on) and r = 2**-q, q <= 5, the deep
positions b - n + 1..b of row n, where the shifted sequence reads
s(j + n) against c, are s(b + n), .., s(b + 1) against c.  A row keeps
its -b shallow digits, read per row, then the first m = min(n, L(r) + b)
of those deep ones, from a sliding numeral of at most L(r) + b digits:
row n adds [s(b + n) != c] as its most significant digit and, once
n > L(r) + b, shifts out its least, so each row costs O(L(r)) digits
whatever the steps.  Every row cuts its future at the depths row 1
does, fd, and compares s(n + 1)..s(n + fd) with s(1)..s(fd), both read
from the one span s(b + 1)..s(steps + fd) that also holds the sources.
A constant s (s.shift(1) == s) reads nothing: its rows are all zero.
Other r and other pasts call `distance` per row.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import chain, compress, repeat
from operator import add, ne, truediv
from typing import Callable, Iterator

from .cylinders import CylinderSet, all_words, future_cylinder
from .sequences import BiSequence, FrozenValue, check_alphabet

# The truncated sums never compare more positions than this per side: a
# weight base so close to 1 that the tolerance needs more is refused.
_MAX_TRUNCATION_DEPTH = 1 << 20


class MetricParams(FrozenValue):
    """Geometric weight base r in (0, 1); 1/2 gives total diameter 2."""

    __slots__ = _fields = ("r",)

    def __init__(self, r: float = 0.5) -> None:
        if not (0 < r < 1):
            raise ValueError(f"weight base must lie in (0, 1), got {r}")
        object.__setattr__(self, "r", r)


class DistanceBound(FrozenValue):
    """A distance value with a certified truncation error (0 when exact)."""

    __slots__ = _fields = ("value", "error")

    def __init__(self, value: float, error: float) -> None:
        if error < 0:
            raise ValueError("error bound cannot be negative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "error", error)


def weight(j: int, r: float) -> float:
    """Weight of position j: r**j for j >= 1, r**(|j|+1) for j <= 0."""
    return r ** j if j >= 1 else r ** (1 - j)


def weight_above(j0: int, r: float) -> float:
    """Total weight of all positions >= j0."""
    if j0 >= 1:
        return r ** j0 / (1 - r)
    past = (r - r ** (2 - j0)) / (1 - r)  # positions j0..0
    return past + r / (1 - r)


def weight_below(j0: int, r: float) -> float:
    """Total weight of all positions <= j0."""
    if j0 <= 0:
        return r ** (1 - j0) / (1 - r)
    future = (r - r ** (j0 + 1)) / (1 - r)  # positions 1..j0
    return future + r / (1 - r)


def space_diameter(p: MetricParams) -> float:
    return weight_above(1, p.r) + weight_below(0, p.r)


@lru_cache(maxsize=32, typed=True)
def check_tolerance(r: float, tol: float) -> int:
    """The truncation depth of `distance` at weight base r and tolerance tol:
    the smallest k >= 1 whose dropped tail r**(k+1)/(1-r), the error a
    truncated side reports, is at most tol/2.  A logarithm gives k up to
    rounding, and one step each way fixes it.  ValueError when k exceeds
    `_MAX_TRUNCATION_DEPTH` (or tol/2 is not a positive float), which the
    cache never stores."""
    geo, half_tol = 1 - r, tol / 2
    if r ** 2 / geo <= half_tol:
        return 1
    if not half_tol > 0:
        raise ValueError(f"tolerance too small: half of it is {half_tol!r}")
    k = max(1, math.ceil((math.log(half_tol) + math.log(geo)) / math.log(r)) - 1)
    if k <= _MAX_TRUNCATION_DEPTH + 1:
        while k > 1 and r ** k / geo <= half_tol:
            k -= 1
        while r ** (k + 1) / geo > half_tol:
            k += 1
    if k > _MAX_TRUNCATION_DEPTH:
        raise ValueError(
            f"truncation depth {k} at r={r!r}, tol={tol!r} exceeds {_MAX_TRUNCATION_DEPTH}"
        )
    return k


@lru_cache(maxsize=32)
def _clip_depth(r: float) -> int:
    """L(r): the weight r**(L+1)/(1-r) past it is below half the least
    subnormal (the `+ 1` covers the rounding of the logarithms)."""
    depth = math.ceil((1075 * math.log(2) - math.log(1 - r)) / -math.log(r)) + 1
    return min(_MAX_TRUNCATION_DEPTH, depth)


def agreement_bound(lo, hi: int, p: MetricParams, tol: float) -> float:
    """The most `distance(s, t, p, tol)` can report as value + error when s
    and t agree on positions lo..hi (lo <= 0 < hi; lo may be -inf), whatever
    they are: the weight outside both [lo, hi] and the truncation window
    [1 - k, k], since a side cut at k, or at L(r) >= k, reports its tail
    beyond as error."""
    k = check_tolerance(p.r, tol)
    return weight_below(max(lo - 1, -k), p.r) + weight_above(min(hi, k) + 1, p.r)


@lru_cache(maxsize=8, typed=True)
def _power_table(r: float) -> list[float]:
    """The list [r**0, r**1, ...] for one weight base, grown by `_powers`."""
    return [r ** 0]


def _powers(r: float, top: int) -> list[float]:
    """The power table of r, holding at least the entries r**0..r**top."""
    table = _power_table(r)
    if len(table) <= top:
        table.extend(r ** j for j in range(len(table), top + 1))
    return table


def _mismatches(sw, tw) -> bytes:
    """Nonzero at each position where the spans sw and tw differ and zero
    elsewhere: one XOR for two byte spans of any length (no slower than
    comparing symbol by symbol even at one symbol), else the booleans of
    `map(ne, ...)` as bytes."""
    if sw.__class__ is bytes is tw.__class__:
        diff = int.from_bytes(sw, "big") ^ int.from_bytes(tw, "big")
        return diff.to_bytes(len(sw), "big")
    return bytes(map(ne, sw, tw))


# Maps a mismatch byte to its base-2**q digit: 0 to "0", anything else to "1".
_DIGITS = b"0" + b"1" * 255


def _dyadic(r: float) -> int:
    """q when r = 2**-q with 1 <= q <= 5, else 0.  Bases 2**q up to 32 parse
    in linear time, with no int-str digit limit."""
    mantissa, exponent = math.frexp(r)
    return 1 - exponent if mantissa == 0.5 and exponent >= -4 else 0


def _numeral(sw, tw, q: int, reverse: bool) -> int:
    """The base-2**q numeral whose digits are 1 where the spans sw and tw
    differ and 0 elsewhere, their first symbols most significant (their last
    when `reverse`); 0 for equal spans and for empty ones (of either type)."""
    if not sw or sw == tw:
        return 0
    digits = _mismatches(sw, tw)
    if reverse:
        digits = digits[::-1]
    return int(digits.translate(_DIGITS), 1 << q)


def _fraction(n: int, explicit: int, period: int, q: int) -> tuple[int, int, int]:
    """The side whose mismatch numeral over depths 1..explicit + period is n
    (depth 1 most significant) as (n', a, g), worth n' / (g << a): the
    repeating block is worth its numeral / (2**(q*period) - 1)."""
    if period:
        return n - (n >> q * period), q * explicit, (1 << q * period) - 1
    return n, q * explicit, 1


def _quotient(right: tuple[int, int, int], left: tuple[int, int, int]) -> float:
    """The correctly rounded sum of two sides (n, a, g), each n / (g << a)."""
    (nr, ar, gr), (nl, al, gl) = right, left
    a = max(ar, al)
    return ((nr * gl << (a - ar)) + (nl * gr << (a - al))) / (gr * gl << a)


def _terms(table: list[float], explicit: int, period: int, r: float, past: bool):
    """The weights of a side's depths in the order the float kernel adds them:
    the explicit ones by position (decreasing depth on the past), then the
    block's by increasing depth, each divided by 1 - r**period."""
    terms = table[explicit:0:-1] if past else table[1 : explicit + 1]
    if period:
        block = table[explicit + 1 : explicit + period + 1]
        return chain(terms, map(truediv, block, repeat(1.0 - r ** period)))
    return terms


def _cut(described: tuple[int, int] | None, r: float, tol: float):
    """(explicit, period, error) of one side as `distance` sums it, from the
    (explicit, period) both sequences describe it by, or None: depths
    1..explicit then a repeating block (exact), or cut after `explicit`
    depths (period 0) at the clip depth or, with no finite description, at
    check_tolerance(r, tol) (module docstring)."""
    if described is None:
        depth = check_tolerance(r, tol)
    else:
        (explicit, period), depth = described, _clip_depth(r)
        if explicit + period <= depth:
            return explicit, period, 0.0
        check_tolerance(r, tol)  # refuses a tol whose half the clipped tail passes
    return depth, 0, r ** (depth + 1) / (1 - r) or math.ulp(0.0)  # a float below it is 0.0


def _cuts(s: BiSequence, t: BiSequence, r: float, tol: float):
    """The `_cut` of the future side of s and t (depth i at position i), then
    of the past side (depth i at position 1 - i), from their four tails."""
    rs, rt, ls, lt = s.right_tail(), t.right_tail(), s.left_tail(), t.left_tail()
    future = None if rs is None or rt is None else (
        max(rs[0], rt[0], 1) - 1, math.lcm(rs[1], rt[1]))
    past = None if ls is None or lt is None else (
        -min(ls[0], lt[0], 0), math.lcm(ls[1], lt[1]))
    return _cut(future, r, tol), _cut(past, r, tol)


def _bound(value: float, error: float, differ: bool) -> DistanceBound:
    """Sides that differ but sum to 0.0 with no error report the least
    subnormal as error (at r = 2**-q it bounds their rounded sum)."""
    return DistanceBound(value, math.ulp(0.0) if differ and not (value or error) else error)


def distance(
    s: BiSequence, t: BiSequence, p: MetricParams, tol: float = 1e-12
) -> DistanceBound:
    """Evaluate the weighted mismatch metric with a certified error bound.

    The error is 0 when both sides are eventually periodic with explicit
    depth plus period at most the clip depth L(r); longer sides are clipped
    at L(r), and universal ones truncated at a depth chosen from `tol`.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if s == t:
        return DistanceBound(0.0, 0.0)
    r = p.r
    (fe, fp, er), (pe, pp, el) = _cuts(s, t, r, tol)
    fd, pd = fe + fp, pe + pp
    sw, tw = s.span(1 - pd, fd), t.span(1 - pd, fd)  # the past is sw[:pd]
    if sw.__class__ is not tw.__class__:  # a tuple span may hold the bytes of the other
        sw, tw = tuple(sw), tuple(tw)
    if sw == tw:
        return DistanceBound(0.0, er + el)
    diff, q = _mismatches(sw, tw), _dyadic(r)
    if q:  # past depths 1..pd, then future depths 1..fd, most significant first
        n = int((diff[pd - 1 :: -1] + diff[pd:]).translate(_DIGITS), 1 << q)
        right = _fraction(n & ((1 << q * fd) - 1), fe, fp, q)
        value = _quotient(right, _fraction(n >> q * fd, pe, pp, q))
    else:
        table, past = _powers(r, max(fd, pd)), diff[:pd]
        if pp:  # the past's block runs from position -pe downwards
            past = past[pp:] + past[pp - 1 :: -1]
        right = reduce(add, compress(_terms(table, fe, fp, r, False), diff[pd:]), 0.0)
        value = right + reduce(add, compress(_terms(table, pe, pp, r, True), past), 0.0)
    return _bound(value, er + el, True)


def orbit_distances(
    s: BiSequence, p: MetricParams, steps: int, tol: float = 1e-12
) -> Iterator[DistanceBound]:
    """Yield the rows distance(s.shift(n), s, p, tol) for n = 0..steps, bit
    for bit (the sweep for a constant past is in the module docstring).  A
    refused tol raises before any row; the sweep reads its sources at once."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    r, q, tail = p.r, _dyadic(p.r), s.left_tail()
    if not (q and tail is not None and tail[1] == 1):
        return (distance(s.shift(n), s, p, tol) for n in range(steps + 1))
    s1 = s.shift(1)
    # row 0 compares s with itself, and so does every row if s.shift(1) == s;
    # no row n >= 1 does otherwise: s.shift(n) == s makes s n-periodic, and
    # an n-periodic s with a constant past is constant
    if steps == 0 or s1 == s:
        return repeat(DistanceBound(0.0, 0.0), steps + 1)
    clip = _clip_depth(r)  # no row reads a digit below -clip
    b, c = max(min(tail[0], 0), -clip), s.symbol_at(tail[0])
    # every row n >= 1 cuts its future as row 1 does: a shift moves a right
    # tail's start down (a periodic one's stays at 1), so the explicit depth
    # max(start, 1) - 1 is s's own
    (fe, fp, er), _ = _cuts(s1, s, r, tol)
    fd = fe + fp
    # sources[i] = s(b + 1 + i); row n compares s(n + j) with s(j), and its
    # deep positions j = b - n + 1..b read sources 0..n - 1 against c, the
    # source i at depth n - b - i.  Its future depths 1..fd read sources
    # n - b.. against `future`, sources -b..
    sources = s.span(b + 1, steps + fd)
    past, future = sources[:-b], sources[-b : fd - b]

    def rows():
        yield DistanceBound(0.0, 0.0)
        el, deep = 0.0, 0
        for n in range(1, steps + 1):
            right = _numeral(sources[n - b : n - b + fd], future, q, False)
            # depths 1..-b are the shallow positions b + 1..0, then m deep ones:
            # `deep` holds sources n - 1..n - m, the first most significant
            m = min(n, clip + b)
            deep |= (sources[n - 1] != c) << q * min(n - 1, m)
            if n > m:  # source n - m - 1 falls below the clip
                deep >>= q
            shallow = _numeral(sources[n : n - b], past, q, True)
            left = (shallow << q * m) | deep
            # a row reading fewer digits is exact; a row's explicit past depth
            # grows with n, so once one row's past is clipped, every later one is
            if m == clip + b and not el:
                el = _cuts(s.shift(n), s, r, tol)[1][2]
            value = _quotient(_fraction(right, fe, fp, q), (left, q * (m - b), 1))
            yield _bound(value, er + el, right != 0 or left != 0)

    return rows()


def cylinder_diameter(c: CylinderSet, p: MetricParams) -> float:
    """sup of pairwise distances inside the cylinder: the total weight of its
    free positions (attained by members differing everywhere off-window)."""
    if c.is_whole:
        return space_diameter(p)
    return weight_below(c.start - 1, p.r) + weight_above(c.end + 1, p.r)


def set_distance(c1: CylinderSet, c2: CylinderSet, p: MetricParams) -> float:
    """inf of distances across two cylinders: the weight of positions fixed
    in both windows whose fixed symbols differ."""
    if c1.is_whole or c2.is_whole:
        return 0.0
    lo = max(c1.start, c2.start)
    hi = min(c1.end, c2.end)
    total = 0.0
    for j in range(lo, hi + 1):
        if c1.fixed[j - c1.start] != c2.fixed[j - c2.start]:
            total += weight(j, p.r)
    return total


# ---------------------------------------------------------------------------
# Condition checkers.  The table builders are generic over the geometry so
# the horseshoe module can run the identical checks against its Euclidean
# rectangle geometry.
# ---------------------------------------------------------------------------


def diameter_table(
    diam_fn: Callable[[int, int], float],
    predict_fn: Callable[[int, int], float],
    max_depth: int,
    key: str,
) -> dict:
    """Tabulate window diameters along k = n = 1..max_depth, each stored
    under `key`, and check strict decrease plus agreement with the
    closed-form prediction: {"rows": [{"k", "n", key, "predicted"}, ...],
    "strictly_decreasing", "matches_prediction"}."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = [{"k": d, "n": d, key: diam_fn(d, d), "predicted": predict_fn(d, d)}
            for d in range(1, max_depth + 1)]
    return {
        "rows": rows,
        "strictly_decreasing": all(a[key] > b[key] for a, b in zip(rows, rows[1:])),
        "matches_prediction": all(
            math.isclose(row[key], row["predicted"], rel_tol=1e-12, abs_tol=0.0) for row in rows
        ),
    }


def check_diameter_condition(p: MetricParams, max_depth: int) -> dict:
    """Diameters of two-sided windows [-k, n], k = n = 1..max_depth, checked
    against the geometric prediction (r/(1-r)) * (r**n + r**(k+1))."""

    def diam(k: int, n: int) -> float:
        word = (1,) * (k + 1 + n)
        return cylinder_diameter(CylinderSet(word, -k), p)

    def predict(k: int, n: int) -> float:
        return (p.r / (1 - p.r)) * (p.r ** n + p.r ** (k + 1))

    return diameter_table(diam, predict, max_depth, "diameter")


def flip_first(word: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The witness family: increment the first symbol mod m."""
    return (word[0] % m + 1,) + word[1:]


def check_separation(m: int, p: MetricParams, n: int) -> dict:
    """Uniform separation of depth-n future cylinders over {1..m}, as {"eps0",
    "witness_words", "witness_distance"}.

    For every word i_1..i_n, flipping the first symbol yields a cylinder at
    distance exactly w(1) = r, so eps0 = r holds at every degree n (and it
    is the best n-independent constant: at n = 1 no pair does better).
    """
    check_alphabet(m)
    if n < 1:
        raise ValueError("separation degree must be >= 1")
    eps0 = weight(1, p.r)
    base = (1,) * n
    partner = flip_first(base, m)
    achieved = set_distance(future_cylinder(base), future_cylinder(partner), p)
    if not achieved >= eps0:
        raise AssertionError("separation witness fell below the certified bound")
    return {"eps0": eps0, "witness_words": [[*base], [*partner]], "witness_distance": achieved}


def separation_holds_everywhere(m: int, p: MetricParams, n: int, eps0: float) -> bool:
    """Oracle: for every depth-n word some word achieves distance >= eps0,
    by exhaustive enumeration of all pairs."""
    words = list(all_words(m, n))
    cyls = [future_cylinder(w) for w in words]
    for c1 in cyls:
        if not any(set_distance(c1, c2, p) >= eps0 for c2 in cyls):
            return False
    return True
