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

Distances are exact (error 0) whenever both sequences have periodic tails
on each side; otherwise the sum is truncated with a certified two-sided
error bound below the requested tolerance.

Each side is summed in C from the sequences' byte (or tuple) `span`s.  At
r = 2**-q, 1 <= q <= 5, a side's mismatch digits (1 where the spans
differ, found by one XOR of two byte spans), read by depth with the past
reversed, are a base-2**q numeral W that one `int(text, 2**q)` parses:
the sum over depths 1..k is W / 2**(q*k), and over E explicit depths then
a periodic block of P it is (W - (W >> q*P)) / (2**(q*E) * (2**(q*P) - 1)).
One `int / int` over a common denominator, which CPython rounds
correctly, gives the correctly rounded exact (or truncated) sum.  Every
other r adds float weights r**j from a cached table one by one from 0.0
(block weights divided by 1 - r**period): the future in increasing j, the
past over its explicit positions in increasing j, then over the block from
its start downwards.  That fixes every rounding step on every Python
version (the builtin `sum` compensates float sums from Python 3.12 on).

`orbit_distances` returns the rows d(shift^n s, s), n = 0..steps, of
`distance` bit for bit.  When s has a constant past (s(j) = c for j <= b,
b <= 0) and r = 2**-q, q <= 5, the deep positions b - n + 1..b of row n,
where the shifted sequence reads s(j + n) against c, are the low n digits
of one numeral F of s(b + 1), s(b + 2), .. against c, s(b + 1) least
significant: F & (2**(q*n) - 1).  The shallow positions b + 1..0 and the
future are read per row.  Other r, other pasts, and rows past the exact
span cap (where `distance` truncates the past) call `distance` per row.

`pair_values` returns the values of the rows d(shift^n s, shift^n t),
n = 1..horizon, bit for bit, for a pair that agrees at positions <= 0 and
beyond need = horizon + 80.  At r = 2**-q, q <= 5, it builds two numerals
of the pair's mismatch digits at positions 1..need once: D, position 1
most significant, and R, position 1 least.  Row n's future (depth i at
position n + i) is D & (2**(q*(need - n)) - 1) over 2**(q*(need - n)), its
past (depth i at position n + 1 - i) is R & (2**(q*n) - 1) over 2**(q*n),
and one `int / int` rounds their sum.  Other r, and rows where `distance`
truncates a side, call `distance`: both sweeps find those rows with
`_exact_span`, the one test of whether `distance` truncates a side.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import chain, compress, repeat
from operator import add, ne, truediv
from typing import Callable, NamedTuple

from .cylinders import CylinderSet, all_words, future_cylinder
from .sequences import Alphabet, BiSequence, FrozenValue

# Exact summation is abandoned beyond this many explicitly compared
# positions per side (huge shifts of universal members); the certified
# truncated path takes over.
_EXACT_SPAN_CAP = 20_000

# Byte spans up to this long are compared symbol by symbol, which costs
# less there than converting them to integers.
_SHORT_SPAN = 8

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


def agreement_bound(lo, hi: int, p: MetricParams, tol: float) -> float:
    """The most `distance(s, t, p, tol)` can report as value + error when s
    and t agree on positions lo..hi (lo <= 0 < hi; lo may be -inf), whatever
    they are: the weight outside both [lo, hi] and the truncation window
    [1 - k, k], since a truncated side reports its tail beyond k as error."""
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


def _mismatches(sw, tw):
    """Nonzero at each position where the spans sw and tw differ and zero
    elsewhere: the bytes of one XOR for two byte spans longer than
    `_SHORT_SPAN`, else the booleans of `map(ne, ...)`."""
    if len(sw) > _SHORT_SPAN and sw.__class__ is bytes is tw.__class__:
        diff = int.from_bytes(sw, "big") ^ int.from_bytes(tw, "big")
        return diff.to_bytes(len(sw), "big")
    return map(ne, sw, tw)


def _mismatch_sum(terms, sw, tw) -> float:
    """Add the terms at the positions where the spans sw and tw differ, left
    to right from 0.0.  (Not `sum`, which compensates float sums on Python
    3.12+.)"""
    if sw == tw:
        return 0.0
    return reduce(add, compress(terms, _mismatches(sw, tw)), 0.0)


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
    digits = bytes(_mismatches(sw, tw))
    if reverse:
        digits = digits[::-1]
    return int(digits.translate(_DIGITS), 1 << q)


def _quotient(right: tuple[int, int, int], left: tuple[int, int, int]) -> float:
    """The correctly rounded sum of two sides (n, a, g), each n / (g << a)."""
    (nr, ar, gr), (nl, al, gl) = right, left
    a = max(ar, al)
    return ((nr * gl << (a - ar)) + (nl * gr << (a - al))) / (gr * gl << a)


def _exact_span(s: BiSequence, t: BiSequence, future: bool) -> tuple[int, int] | None:
    """(explicit, period) when `distance` sums the future (or past) side of s
    and t exactly, depths 1..explicit then a repeating block; None when it
    truncates it: a tail with no finite description, or a span past the cap."""
    ts, tt = (s.right_tail(), t.right_tail()) if future else (s.left_tail(), t.left_tail())
    if ts is None or tt is None:
        return None
    explicit = max(ts[0], tt[0], 1) - 1 if future else -min(ts[0], tt[0], 0)
    period = math.lcm(ts[1], tt[1])
    return (explicit, period) if explicit + period <= _EXACT_SPAN_CAP else None


def _exact_end(pair, future: bool, lo: int, hi: int) -> int:
    """The first row n in lo..hi from which `distance(*pair(n))` sums the
    future side exactly (hi + 1 if none), or the last up to which it sums
    the past exactly (lo - 1 if none): that side's explicit depth moves one
    way row by row.  Bisection finds it, after a first probe for all rows."""
    a, b, mid = lo, hi + 1, lo if future else hi
    while a < b:  # the least row from which (the side is exact) == future
        if (_exact_span(*pair(mid), future) is not None) == future:
            b = mid
        else:
            a = mid + 1
        mid = (a + b) // 2
    return a if future else a - 1


def _side(s: BiSequence, t: BiSequence, r: float, tol: float, q: int, future: bool):
    """(value, error) of one side: the future (depth i = j at position j >= 1)
    or the past (i = 1 - j at j <= 0), where position j weighs r**i.  The
    value is a float, or at r = 2**-q the triple (n, a, g) of n / (g << a)."""
    explicit, period = _exact_span(s, t, future) or (check_tolerance(r, tol), 0)
    depth = explicit + period
    lo, hi = (1, depth) if future else (1 - depth, 0)
    sw, tw = s.span(lo, hi), t.span(lo, hi)
    error = 0.0 if period else r ** (depth + 1) / (1 - r)  # the dropped tail
    if q:
        n = _numeral(sw, tw, q, not future)
        if period:  # the repeating block is worth its numeral / (2**(q*period) - 1)
            return (n - (n >> q * period), q * explicit, (1 << q * period) - 1), error
        return (n, q * depth, 1), error
    table = _powers(r, depth)
    terms = table[1 : explicit + 1] if future else table[explicit:0:-1]
    if period:
        block = map(truediv, table[explicit + 1 : depth + 1], repeat(1.0 - r ** period))
        terms = chain(terms, block)
        if not future:  # the past's block runs from position -explicit downwards
            sw, tw = sw[period:] + sw[period - 1 :: -1], tw[period:] + tw[period - 1 :: -1]
    return _mismatch_sum(terms, sw, tw), error


def distance(
    s: BiSequence, t: BiSequence, p: MetricParams, tol: float = 1e-12
) -> DistanceBound:
    """Evaluate the weighted mismatch metric with a certified error bound.

    The error is 0 whenever both sides of both sequences are eventually
    periodic; universal futures fall back to truncation at depth chosen
    from `tol`.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if s == t:
        return DistanceBound(0.0, 0.0)
    q = _dyadic(p.r)
    vr, er = _side(s, t, p.r, tol, q, True)
    vl, el = _side(s, t, p.r, tol, q, False)
    return DistanceBound(_quotient(vr, vl) if q else vr + vl, er + el)


def orbit_distances(
    s: BiSequence, p: MetricParams, steps: int, tol: float = 1e-12
) -> list[DistanceBound]:
    """The rows distance(s.shift(n), s, p, tol) for n = 0..steps, bit for bit.

    When the past of s is constant and r = 2**-q with q <= 5, the deep part
    of each row's left numerator is read off one integer built once (see
    the module docstring); otherwise each row calls `distance`."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    r, q = p.r, _dyadic(p.r)
    tail, last = s.left_tail(), -1  # the sweep's rows are 0..last
    if tail is not None and tail[1] == 1 and q:
        last = _exact_end(lambda n: (s.shift(n), s), False, 0, steps)
    if last < 0:
        return [distance(s.shift(n), s, p, tol) for n in range(steps + 1)]
    b, c = min(tail[0], 0), s.symbol_at(tail[0])
    # sources[i] = s(b + 1 + i); row n compares s(n + j) with s(j), and its
    # deep positions j = b - n + 1..b read sources 0..n - 1 against c, the
    # source i at depth n - b - i: digit i of `deep` from the least
    sources, run = s.span(b + 1, last), (c,) * (last - b)
    deep, past = _numeral(sources, bytes(run) if c < 256 else run, q, True), sources[:-b]
    rows = []
    for n in range(last + 1):
        sn = s.shift(n)
        if sn == s:
            rows.append(DistanceBound(0.0, 0.0))
            continue
        right, er = _side(sn, s, r, tol, q, True)
        # depths 1..-b are the shallow positions b + 1..0, then n deep ones;
        # the block below them agrees
        shallow = _numeral(sources[n : n - b], past, q, True)
        left = ((shallow << q * n) | (deep & ((1 << q * n) - 1)), q * (n - b), 1)
        rows.append(DistanceBound(_quotient(right, left), er))
    rows.extend(distance(s.shift(n), s, p, tol) for n in range(last + 1, steps + 1))
    return rows


def pair_values(
    s: BiSequence, t: BiSequence, horizon: int, p: MetricParams, tol: float = 1e-12
) -> list[float]:
    """The values distance(s.shift(n), t.shift(n), p, tol).value for
    n = 1..horizon, bit for bit, where s and t agree at every position <= 0
    and beyond horizon + 80 (the sweep is in the module docstring)."""
    q, need = _dyadic(p.r), horizon + 80

    def pair(n: int) -> tuple[BiSequence, BiSequence]:
        return s.shift(n), t.shift(n)

    first = last = 0  # the rows first..last are read off two numerals
    if q:
        sw, tw = s.span(1, need), t.span(1, need)
        future, past = _numeral(sw, tw, q, False), _numeral(sw, tw, q, True)
        first, last = _exact_end(pair, True, 1, horizon), _exact_end(pair, False, 1, horizon)
    values = []
    for n in range(1, horizon + 1):
        if not first <= n <= last:
            values.append(distance(*pair(n), p, tol).value)
            continue
        a, top = need - n, max(need - n, n)  # digits of the future, of the larger side
        num = ((future & ((1 << q * a) - 1)) << q * (top - a)) + (
            (past & ((1 << q * n) - 1)) << q * (top - n))
        values.append(num / (1 << q * top))
    return values


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


class DiameterRow(FrozenValue):
    __slots__ = _fields = ("k", "n", "diameter", "predicted")

    def __init__(self, k: int, n: int, diameter: float, predicted: float) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diameter", diameter)
        object.__setattr__(self, "predicted", predicted)


class DiameterReport(FrozenValue):
    __slots__ = _fields = ("rows", "strictly_decreasing", "matches_prediction")

    def __init__(
        self, rows: tuple[DiameterRow, ...], strictly_decreasing: bool, matches_prediction: bool
    ) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "strictly_decreasing", strictly_decreasing)
        object.__setattr__(self, "matches_prediction", matches_prediction)

    @property
    def passed(self) -> bool:
        return self.strictly_decreasing and self.matches_prediction


def diameter_table(
    diam_fn: Callable[[int, int], float],
    predict_fn: Callable[[int, int], float],
    max_depth: int,
) -> DiameterReport:
    """Tabulate window diameters along k = n = 1..max_depth and check strict
    decrease plus agreement with the closed-form prediction."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = tuple(
        DiameterRow(d, d, diam_fn(d, d), predict_fn(d, d)) for d in range(1, max_depth + 1)
    )
    decreasing = all(a.diameter > b.diameter for a, b in zip(rows, rows[1:]))
    matches = all(
        math.isclose(row.diameter, row.predicted, rel_tol=1e-12, abs_tol=0.0)
        for row in rows
    )
    return DiameterReport(rows, decreasing, matches)


def check_diameter_condition(
    alphabet: Alphabet, p: MetricParams, max_depth: int
) -> DiameterReport:
    """Diameters of two-sided windows [-k, n], k = n = 1..max_depth, checked
    against the geometric prediction (r/(1-r)) * (r**n + r**(k+1))."""

    def diam(k: int, n: int) -> float:
        word = (1,) * (k + 1 + n)
        return cylinder_diameter(CylinderSet(word, -k), p)

    def predict(k: int, n: int) -> float:
        return (p.r / (1 - p.r)) * (p.r ** n + p.r ** (k + 1))

    return diameter_table(diam, predict, max_depth)


class SeparationResult(NamedTuple):
    eps0: float
    witness: tuple[CylinderSet, CylinderSet]
    degree: int


def flip_first(word: tuple[int, ...], m: int) -> tuple[int, ...]:
    """The witness family: increment the first symbol mod m."""
    return (word[0] % m + 1,) + word[1:]


def check_separation(alphabet: Alphabet, p: MetricParams, n: int) -> SeparationResult:
    """Uniform separation of depth-n future cylinders.

    For every word i_1..i_n, flipping the first symbol yields a cylinder at
    distance exactly w(1) = r, so eps0 = r holds at every degree n (and it
    is the best n-independent constant: at n = 1 no pair does better).
    """
    if n < 1:
        raise ValueError("separation degree must be >= 1")
    eps0 = weight(1, p.r)
    base = (1,) * n
    partner = flip_first(base, alphabet.m)
    witness = (future_cylinder(base), future_cylinder(partner))
    achieved = set_distance(witness[0], witness[1], p)
    if not achieved >= eps0:
        raise AssertionError("separation witness fell below the certified bound")
    return SeparationResult(eps0, witness, n)


def separation_holds_everywhere(
    alphabet: Alphabet, p: MetricParams, n: int, eps0: float
) -> bool:
    """Oracle: for every depth-n word some word achieves distance >= eps0,
    by exhaustive enumeration of all pairs."""
    words = list(all_words(alphabet, n))
    cyls = [future_cylinder(w) for w in words]
    for c1 in cyls:
        if not any(set_distance(c1, c2, p) >= eps0 for c2 in cyls):
            return False
    return True
