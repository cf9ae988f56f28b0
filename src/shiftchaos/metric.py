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

Each side is summed by one pass in C: the weights come from a cached table
of r**j per weight base, periodic-block weights are divided by
1 - r**period, and `reduce(add, compress(weights, mismatches), 0.0)` adds
the weights at mismatched positions one by one from 0.0.  The future side
runs in increasing j; the past side runs over the explicit positions in
increasing j, then over the periodic block from its start downwards.  This
fixes every rounding step, so values are the same on every Python version
(the builtin `sum` compensates float sums from Python 3.12 on).

`orbit_distances` tabulates d(shift^n s, s) for n = 0..steps in one pass
and returns the rows `distance` gives, bit for bit.  When s has a constant
past (left tail of period 1: s(j) = c for j <= b, b <= 0), row n's exact
left sum starts with the deep positions b - n + 1..b, where s(j) = c and the
shifted sequence reads s(j + n).  Their sum obeys the Horner step
D(n) = r * D(n - 1) + [s(b + n) != c] * r**(1 - b), which repeats the
left-to-right additions exactly when r is a power of two, as long as every
deep weight of the row is a nonzero float: r**(n - b) >= 2**-1074.  The
shallow positions b + 1..0 and the future side are added per row as in
`distance`.  The rows call `distance` for other r, for pasts of longer
period, and from the first row whose deepest weight underflows to 0.0 (row
1075 + b at r = 1/2).  That row comes long before the exact span cap, past
which `distance` truncates the past.
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


def _truncation_depth(r: float, half_tol: float) -> int:
    """The smallest k >= 1 whose dropped tail r**(k+1)/(1-r), the error the
    truncated sums report, is at most half_tol.  A logarithm gives k up to
    rounding, and one step each way fixes it.  ValueError when k exceeds
    `_MAX_TRUNCATION_DEPTH` (or half_tol is not a positive float)."""

    geo = 1 - r
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
            f"truncation depth {k} at r={r!r}, tol={2 * half_tol!r} exceeds "
            f"{_MAX_TRUNCATION_DEPTH}"
        )
    return k


def check_tolerance(r: float, tol: float) -> int:
    """The truncation depth of `distance` at weight base r and tolerance tol;
    ValueError when it would exceed `_MAX_TRUNCATION_DEPTH`."""
    return _truncation_depth(r, tol / 2)


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


def _mismatch_sum(terms, sw, tw) -> float:
    """Add the terms at the positions where sw and tw differ, left to right
    from 0.0.  (Not `sum`, which compensates float sums on Python 3.12+.)"""
    return reduce(add, compress(terms, map(ne, sw, tw)), 0.0)


def _right_sum(s: BiSequence, t: BiSequence, r: float, tol: float) -> tuple[float, float]:
    ts, tt = s.right_tail(), t.right_tail()
    if ts is not None and tt is not None:
        start = max(ts[0], tt[0], 1)
        period = math.lcm(ts[1], tt[1])
        if start - 1 + period <= _EXACT_SPAN_CAP:
            hi = start + period - 1
            table = _powers(r, hi)
            geo = 1.0 - r ** period
            # positions 1..start-1, then the periodic block start..hi
            terms = chain(table[1:start], map(truediv, table[start : hi + 1], repeat(geo)))
            return _mismatch_sum(terms, s.window(1, hi), t.window(1, hi)), 0.0
    k = _truncation_depth(r, tol / 2)
    table = _powers(r, k)
    return _mismatch_sum(table[1 : k + 1], s.window(1, k), t.window(1, k)), r ** (k + 1) / (1 - r)


def _left_sum(s: BiSequence, t: BiSequence, r: float, tol: float) -> tuple[float, float]:
    ts, tt = s.left_tail(), t.left_tail()
    if ts is not None and tt is not None:
        start = min(ts[0], tt[0], 0)
        period = math.lcm(ts[1], tt[1])
        if -start + period <= _EXACT_SPAN_CAP:
            lo = start - period + 1
            table = _powers(r, 1 - lo)
            geo = 1.0 - r ** period
            # positions start+1..0 left to right, then the periodic block
            # from start down to lo; position j weighs table[1 - j]
            terms = chain(table[-start:0:-1], map(truediv, table[1 - start : 2 - lo], repeat(geo)))
            sw, tw = s.window(lo, 0), t.window(lo, 0)
            return _mismatch_sum(terms, sw[period:] + sw[period - 1 :: -1],
                                 tw[period:] + tw[period - 1 :: -1]), 0.0
    k = _truncation_depth(r, tol / 2)
    lo = 1 - k  # positions lo..0 explicit; dropped tail is j <= -k
    table = _powers(r, k)
    return _mismatch_sum(table[k:0:-1], s.window(lo, 0), t.window(lo, 0)), r ** (k + 1) / (1 - r)


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
    vr, er = _right_sum(s, t, p.r, tol)
    vl, el = _left_sum(s, t, p.r, tol)
    return DistanceBound(vr + vl, er + el)


def orbit_distances(
    s: BiSequence, p: MetricParams, steps: int, tol: float = 1e-12
) -> list[DistanceBound]:
    """The rows distance(s.shift(n), s, p, tol) for n = 0..steps, bit for bit.

    When the past of s is constant and r is a power of two, the deep part of
    each row's exact left sum follows from the previous row's by one Horner
    step, until its deepest weight underflows (see the module docstring)."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    r = p.r
    tail = s.left_tail()
    b = 0 if tail is None else min(tail[0], 0)
    mantissa, exponent = math.frexp(r)
    # r = 2**-q, and r**k is a nonzero float exactly while q*k <= 1074; row
    # n's deepest weight is r**(n - b), and shift(n) moves the start of the
    # past to tail[0] - n, past the span cap from row _EXACT_SPAN_CAP + b on
    last = min(steps, 1074 // (1 - exponent) + b, _EXACT_SPAN_CAP - 1 + b)
    if tail is None or tail[1] != 1 or mantissa != 0.5 or last < 0:
        return [distance(s.shift(n), s, p, tol) for n in range(steps + 1)]
    c = s.symbol_at(tail[0])
    # sources[i] = s(b + 1 + i); row n compares s(n + j) with s(j), and its
    # deep positions j = b - n + 1..b read sources b + 1..b + n against c
    sources = s.window(b + 1, last)
    table = _powers(r, 1 - b)
    shallow, past, top = table[-b:0:-1], sources[:-b], table[1 - b]
    deep = 0.0
    rows = []
    for n in range(last + 1):
        if n:
            # row n's deep weights are r times row n - 1's, plus r**(1 - b)
            deep = deep * r + top if sources[n - 1] != c else deep * r
        sn = s.shift(n)
        if sn == s:
            rows.append(DistanceBound(0.0, 0.0))
            continue
        vr, er = _right_sum(sn, s, r, tol)
        # the exact left path: the deep positions, then b + 1..0, from `deep`
        vl = reduce(add, compress(shallow, map(ne, sources[n : n - b], past)), deep)
        rows.append(DistanceBound(vr + vl, er))
    rows.extend(distance(s.shift(n), s, p, tol) for n in range(last + 1, steps + 1))
    return rows


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
