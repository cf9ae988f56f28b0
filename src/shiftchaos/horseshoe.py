"""An affine two-branch horseshoe on the unit square.

The map stretches the square vertically by mu > 2, contracts it
horizontally by lambda < 1/2, and lays the two horizontal strips

    H1 = [0,1] x [0, 1/mu],      H2 = [0,1] x [1 - 1/mu, 1]

onto the vertical strips V1 = [0, lambda] x [0,1] and
V2 = [1 - lambda, 1] x [0,1] (both branches orientation-preserving):

    branch 1:  (x, y) -> (lambda * x,              mu * y)
    branch 2:  (x, y) -> (lambda * x + 1 - lambda, mu * y - (mu - 1))

Points of the middle gaps escape and carry no symbol.  Points whose full
forward and backward orbits stay in the strips are coded by the branch
each iterate visits: position j >= 1 of the itinerary records the branch
of the (j-1)-th forward image, position j <= 0 the branch of backward
images.  Coding is a bijection onto the bi-infinite 2-symbol sequences,
with closed-form inverse

    y = (mu - 1) * sum_{j>=1} a_j / mu**j,
    x = (1 - lambda) * sum_{i>=0} a_{-i} * lambda**i,      a_j = s(j) - 1,

truncated here at finite depth with exact tail bounds (lambda**depth and
mu**-depth per axis).  Finite windows of symbols correspond to rectangles
of width lambda**(k+1) and height mu**-n, which shrink geometrically (the
diameter condition) and keep Euclidean gaps of at least 1 - 2/mu between
rectangles whose first future symbol differs (the separation condition).
A rectangle's x-interval depends only on its past digits and its
y-interval only on its future digits, so the level-(k, n) grid of
2**(k+1+n) rectangles is held as the product of 2**(k+1) past x-intervals
and 2**n future y-intervals (`rectangle_lattice`), whose ends are integers
over one denominator per factor.  This lattice is the one model of the
rectangles: the hyperbolic report's gaps and the CLI's exports alike are
read from its factors.

There is one arithmetic for every parameter type and every point.  A float
lambda, mu or point coordinate is the dyadic rational it holds, so int,
`fractions.Fraction` and float inputs alike enter as integer ratios, among
them lambda = a/b and mu = c/e (`as_integer_ratio`), and every interval,
itinerary point, orbit row and conjugacy defect below is the exact value
of those inputs (the default lambda = 1/3, mu = 3).  The digit sums run
over integers: one Horner pass keeps a sum over the common denominator
b**len (mu**-j likewise over a power of c), and at most one `Fraction` is
normalised per sum.  Squared defects, diagonals and gaps are compared
exactly, as integer cross products.  Reported floats, square roots
included (diagonals, conjugacy defects and bounds), are the correctly
rounded values of the exact ones.

The CLI writes the rectangles one past at a time into a template of future
texts, with no Python code per row.  A planar orbit (`orbit_rows`) moves y
as an integer pair, whose denominator grows at most e-fold a row, and x as
an integer interval that lambda contracts, with one byte of branch history
a row for the rare exact rebuild.  On a 2-vCPU VM (Python 3.11.7) the
2**20 rectangle cap's 204 MB take about 0.35 s of CPU time at 17.2 MB
peak RSS, and the 2**20-step orbit cap about 3 s, exact start or float.

The payloads of the CLI's two horseshoe reports, the hyperbolic-condition
and the conjugacy report, are built here (`hyperbolic_payload`,
`conjugacy_payload`), by the writer and by `certify.verify_certificate`
alike, so that writing them loads no certificate code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .metric import diameter_table
from .schema import (
    MAX_CONJUGACY_DEPTH,
    MAX_CONJUGACY_SAMPLES,
    MAX_METRIC_DEPTH,
    bounded,
    check_grid,
    parse_number,
)
from .sequences import BiSequence, FiniteWord, FrozenValue, periodic_point


class EscapeError(ValueError):
    """An iterate left the horseshoe strips; the point carries no symbol."""

    def __init__(self, step: int, axis: str):
        self.step = step
        self.axis = axis
        super().__init__(f"iterate {step} escaped through the {axis} gap")


# bound the powers a conjugacy check takes at its caps: an exact value may
# have 16 bits in each term, a float's dyadic ratio (its mantissa and
# exponent) 64
MAX_EXACT_BITS = 16
MAX_FLOAT_BITS = 64

_X_BITS = 1140  # x's scale in `orbit_rows`: 66 bits below the least subnormal, 2**-1074


class HorseshoeParams(FrozenValue):
    """Contraction lambda in (0, 1/2) and finite expansion mu > 2.

    Values may be ints, `Fraction`s of at most `MAX_EXACT_BITS` bits above
    and below the line, or floats whose integer ratio has terms of at most
    `MAX_FLOAT_BITS` bits; defaults are exact.  `ratios` is (a, b, c, e) in
    lowest terms with lambda = a / b and mu = c / e.
    """

    _fields = ("lam", "mu")
    __slots__ = (*_fields, "ratios")

    def __init__(self, lam=Fraction(1, 3), mu=Fraction(3)) -> None:
        if not (0 < lam) or not (lam < Fraction(1, 2)):
            raise ValueError(f"lambda must lie in (0, 1/2), got {lam}")
        if not (2 < mu < math.inf):
            raise ValueError(f"mu must be a finite number above 2, got {mu}")
        a, b, c, e = ratios = (*lam.as_integer_ratio(), *mu.as_integer_ratio())
        for name, value, terms in (("lambda", lam, (a, b)), ("mu", mu, (c, e))):
            kind = "float" if isinstance(value, float) else "exact"
            bits = MAX_FLOAT_BITS if kind == "float" else MAX_EXACT_BITS
            if max(terms) >> bits:
                raise ValueError(f"{kind} {name} {value} has a term of more than {bits} bits")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "ratios", ratios)


class PlanePoint(FrozenValue):
    """A point of the unit square, exact: a float coordinate is the dyadic it holds."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x, y) -> None:
        if not (0 <= x <= 1 and 0 <= y <= 1):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        object.__setattr__(self, "x", Fraction(x))
        object.__setattr__(self, "y", Fraction(y))


def _strip(num: int, den: int, part: int, whole: int, step=0, axis="horizontal") -> int:
    """The strip, 1 or 2, holding the coordinate num / den, for strips of
    width part / whole at either end of [0, 1]; EscapeError in the gap."""
    if num * whole <= part * den:
        return 1
    if num * whole >= (whole - part) * den:
        return 2
    raise EscapeError(step, axis)


def branch_of(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> int:
    """Which horizontal strip holds q: 1, 2, or an escape."""
    _, _, c, e = hp.ratios
    return _strip(*q.y.as_integer_ratio(), e, c, step)  # the strips of height 1 / mu


def horseshoe_map(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> PlanePoint:
    a, b, c, e = hp.ratios
    t = branch_of(q, hp, step) - 1
    return PlanePoint((a * q.x + t * (b - a)) / b, (c * q.y - t * (c - e)) / e)


def horseshoe_inverse(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> PlanePoint:
    """Inverse branches, selected by the vertical strip holding q."""
    a, b, c, e = hp.ratios
    t = _strip(*q.x.as_integer_ratio(), a, b, step, "vertical") - 1  # width lambda
    return PlanePoint((b * q.x - t * (b - a)) / a, (e * q.y + t * (c - e)) / c)


def orbit_rows(q: PlanePoint, hp: HorseshoeParams, steps: int):
    """The rows (x, y, branch) of q's forward orbit, n = 0..steps: the exact
    iterate's correctly rounded floats and its strip; a gap row, branch None,
    ends them.  y moves exactly, as an integer pair, and x as an integer lo
    with lo <= x * 2**_X_BITS < lo + 2 (rounding lo down keeps that, as
    lambda < 1/2).  A row whose two ends round apart rebuilds x exactly from
    q.x and the branch digits so far (`_x_ends`), kept one byte a row."""
    a, b, c, e = hp.ratios
    (x0, x0_den), (y, y_den) = q.x.as_integer_ratio(), q.y.as_integer_ratio()
    one = 1 << _X_BITS
    lo = (x0 << _X_BITS) // x0_den
    lift = (b - a) << _X_BITS  # (1 - lambda) * b on x's scale
    history = bytearray()
    for _ in range(steps + 1):
        x = lo / one
        if (lo + 2) / one != x:
            past_lo, past_hi, den = _x_ends(history, hp)  # x = past_lo / den + lam**n x0
            x = (past_lo * x0_den + (past_hi - past_lo) * x0) / (den * x0_den)
        try:
            branch = _strip(y, y_den, e, c)
        except EscapeError:
            yield x, y / y_den, None
            return
        yield x, y / y_den, branch
        history.append(branch)
        t = branch - 1
        lo = (a * lo + t * lift) // b
        y = c * y - t * (c - e) * y_den
        if e != 1:  # y's denominator grows e-fold: reduce it
            g = math.gcd(y, y_den * e)
            y, y_den = y // g, y_den * e // g


def itinerary(q: PlanePoint, hp: HorseshoeParams, back: int, fwd: int) -> FiniteWord:
    """Branch symbols of the orbit: positions 1-back..fwd, where position
    j records the strip containing the (j-1)-th image of q."""
    if back < 0 or fwd < 0 or back + fwd == 0:
        raise ValueError("need back >= 0, fwd >= 0, and at least one symbol")
    forward = [branch for _, _, branch in orbit_rows(q, hp, fwd - 1)]
    if None in forward:
        raise EscapeError(len(forward) - 1, "horizontal")
    backward, pt = [], q
    for step in range(1, back + 1):
        pt = horseshoe_inverse(pt, hp, -step)
        backward.append(branch_of(pt, hp, -step))
    return FiniteWord(tuple(reversed(backward)) + tuple(forward))


def point_from_itinerary(
    s: BiSequence, hp: HorseshoeParams, depth: int
) -> tuple[PlanePoint, float]:
    """Reconstruct the coded point from `depth` symbols per side.

    Returns the truncated point, as exact `Fraction`s, and a bound on its
    Euclidean distance to the true coded point: the float just above the
    diagonal of the level-(depth - 1, depth) rectangle both points lie in
    (tails lambda**depth and mu**-depth per axis), which the all-2 point
    attains.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x, _, x_den = _x_ends(s.span(1 - depth, 0), hp)
    y, _, y_den = _y_ends(s.span(1, depth), hp)
    err = math.nextafter(rectangle_diagonal(hp, depth - 1, depth), math.inf)
    return PlanePoint(Fraction(x, x_den), Fraction(y, y_den)), err


def conjugacy_check(s: BiSequence, hp: HorseshoeParams, depth: int) -> dict:
    """Compare the horseshoe image of the reconstructed point against the
    reconstruction of the shifted sequence: the defect of map-then-code
    against shift-then-code, as {"defect", "bound", "passed"}.

    The defect must stay within hypot((1+lambda)*lambda**depth,
    (1+mu)*mu**-depth).  The comparison is exact (squared defect against
    squared bound), on the integer numerators of the two points over their
    common denominators.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return next(_conjugacy_rows([s], hp, depth))


def _conjugacy_rows(seqs, hp: HorseshoeParams, depth: int):
    """`conjugacy_check` of each sequence of `seqs`, against one bound."""
    a, b, c, e = hp.ratios
    # (1 + lam) * lam**depth = (b + a) * a**depth / b**(depth + 1) and
    # (1 + mu) * mu**-depth = (e + c) * e**(depth - 1) / c**depth
    bound_num, bound_den = _sum_of_squares((b + a) * a ** depth, b ** (depth + 1),
                                           (e + c) * e ** (depth - 1), c ** depth)
    bound = _exact_root(bound_num, bound_den)
    for s in seqs:
        w = s.span(1 - depth, depth + 1)
        x, _, xd = _x_ends(w[:depth], hp)  # the point: x / xd, y / yd
        y, _, yd = _y_ends(w[depth : 2 * depth], hp)
        x_next = _x_ends(w[1 : depth + 1], hp)[0]  # the shifted sequence's point
        y_next = _y_ends(w[depth + 1 :], hp)[0]
        t = _strip(y, yd, e, c) - 1
        # image (lam x + t (1 - lam), mu y - t (mu - 1)) minus the next point,
        # over the denominators b xd and e yd
        dx = a * x + t * (b - a) * xd - b * x_next
        dy = c * y - t * (c - e) * yd - e * y_next
        defect_num, defect_den = _sum_of_squares(dx, b * xd, dy, e * yd)
        yield {
            "defect": _exact_root(defect_num, defect_den),
            "bound": bound,
            "passed": defect_num * bound_den <= bound_num * defect_den,
        }


def _sum_of_squares(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int]:
    """(xn / xd)**2 + (yn / yd)**2 as an unreduced (numerator, denominator)."""
    return (xn * yd) ** 2 + (yn * xd) ** 2, (xd * yd) ** 2


def _exact_root(num: int, den: int) -> float:
    """The correctly rounded square root of num / den (num >= 0, den > 0).

    The integer square root of num / den, scaled by 2**-q to at least 55
    bits, has its last bit set when it is inexact (round to odd), so the one
    rounding of the final int / int division is the correct one.
    """
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


# ---------------------------------------------------------------------------
# Level rectangles: the planar realization of two-sided cylinders
# ---------------------------------------------------------------------------

class Interval(NamedTuple):
    """One factor of a level rectangle: the digits of one side of the dot
    and the interval [lo / den, hi / den] they cut out on that side's axis,
    unreduced, as `_x_ends` or `_y_ends` computes it.  CPython rounds
    int / int correctly, so lo / den is bit for bit float(Fraction(lo, den))."""

    digits: tuple[int, ...]
    lo: int
    hi: int
    den: int


def _x_ends(past, hp: HorseshoeParams) -> tuple[int, int, int]:
    """Integers (lo, hi, den): the x-interval [lo / den, hi / den] of the
    past digits at positions -k..0 (in word order), for lambda = a / b.

    One Horner pass over the common denominator b**len(past): after the
    digits d_0..d_j (word order) num / den holds
    sum_i (d_i - 1) * lam**(j - i) / b, and (1 - lam) = (b - a) / b.  The
    width is lam**len(past) = a**len / den.
    """
    a, b, _, _ = hp.ratios
    num, den = 0, 1
    for digit in past:
        num = num * a + (digit - 1) * den
        den *= b
    lo = num * (b - a)
    return lo, lo + a ** len(past), den


def _y_ends(future, hp: HorseshoeParams) -> tuple[int, int, int]:
    """Integers (lo, hi, den): the y-interval [lo / den, hi / den] of the
    future digits at positions 1..n, for mu = c / e.

    Over the common denominator e * c**n the digit at position j weighs
    e**j * c**(n - j), and (mu - 1) = (c - e) / e.  The height is
    mu**-n = e**(n+1) / den.
    """
    _, _, c, e = hp.ratios
    num, epow = 0, e
    for digit in future:
        num = num * c + (digit - 1) * epow
        epow *= e
    lo = num * (c - e)
    return lo, lo + epow, e * c ** len(future)


def rectangle_lattice(
    hp: HorseshoeParams, k: int, n: int
) -> tuple[list[Interval], list[Interval]]:
    """The two factors of the level-(k, n) grid, each in word order.

    The rectangle of window [-k, n] carrying past digits p and future
    digits f is (x-interval of p) x (y-interval of f), so the 2**(k+1+n)
    rectangles are the product of the 2**(k+1) `pasts` and the 2**n
    `futures`, past outermost.
    """
    check_grid(k, n)
    pasts = [Interval(p, *_x_ends(p, hp)) for p in product((1, 2), repeat=k + 1)]
    futures = [Interval(f, *_y_ends(f, hp)) for f in product((1, 2), repeat=n)]
    return pasts, futures


# ---------------------------------------------------------------------------
# Hyperbolic-condition report: the same diameter/separation checks as the
# symbolic metric, run against the Euclidean rectangle geometry
# ---------------------------------------------------------------------------


def _width(hp: HorseshoeParams, k: int) -> tuple[int, int]:
    """Width of a level-k past interval, from the ends of the all-ones one."""
    lo, hi, den = _x_ends((1,) * (k + 1), hp)
    return hi - lo, den


def _height(hp: HorseshoeParams, n: int) -> tuple[int, int]:
    """Height of a level-n future interval, from the ends of the all-ones one."""
    lo, hi, den = _y_ends((1,) * n, hp)
    return hi - lo, den


def _gap(u: Interval, v: Interval) -> int:
    """Gap between two intervals of one factor, over their common den."""
    return max(u.lo - v.hi, v.lo - u.hi, 0)


def rectangle_diagonal(hp: HorseshoeParams, k: int, n: int) -> float:
    """Diagonal of any level-(k, n) rectangle, from constructed intervals."""
    return _exact_root(*_sum_of_squares(*_width(hp, k), *_height(hp, n)))


def _predicted_sq(hp: HorseshoeParams, k: int, n: int) -> tuple[int, int]:
    """lam**(2(k+1)) + mu**(-2n) as an unreduced (numerator, denominator)."""
    a, b, c, e = hp.ratios
    return _sum_of_squares(a ** (k + 1), b ** (k + 1), e ** n, c ** n)


def predicted_diagonal(hp: HorseshoeParams, k: int, n: int) -> float:
    return _exact_root(*_predicted_sq(hp, k, n))


def verify_hyperbolic_conditions(hp: HorseshoeParams, max_depth: int) -> dict:
    """Check that rectangle diagonals shrink along the predicted closed form
    and that first-symbol separation certifies eps0 = 1 - 2/mu: the report
    as stored less lambda, mu and max_depth, its rows keyed "diagonal".
    `passed` also requires the diagonals to match their prediction, which
    the report does not store."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    check_grid(max_depth, max_depth)
    # every cell's diagonal from the 2 * max_depth factor sides, built once
    depths = range(1, max_depth + 1)
    widths = {k: _width(hp, k) for k in depths}
    heights = {n: _height(hp, n) for n in depths}
    diagonal_sq = {
        (k, n): _sum_of_squares(*widths[k], *heights[n]) for k in depths for n in depths
    }
    report = diameter_table(
        lambda k, n: _exact_root(*diagonal_sq[k, n]),
        lambda k, n: predicted_diagonal(hp, k, n),
        max_depth,
        "diagonal",
    )
    matches = report.pop("matches_prediction")
    grid_exact = True
    for (k, n), (num, den) in diagonal_sq.items():
        want_num, want_den = _predicted_sq(hp, k, n)
        grid_exact = grid_exact and num * want_den == want_num * den
    a, b, c, e = hp.ratios
    # brute force at depth 1: minimum squared gap between the window-[0,1]
    # rectangles p x f and q x g whose future symbols differ, over the
    # common denominator of each factor
    pasts, futures = rectangle_lattice(hp, 0, 1)
    gap_num, gap_den = min(
        _sum_of_squares(_gap(p, q), p.den, _gap(f, g), f.den)
        for p, q in product(pasts, repeat=2)
        for f, g in product(futures, repeat=2)
        if f.digits[0] != g.digits[0]
    )
    return {
        **report,
        "grid_exact": grid_exact,
        "eps0": (c - 2 * e) / c,  # 1 - 2/mu, correctly rounded
        "eps0_horizontal": (b - 2 * a) / b,
        "witness_words": [[1, 2], [2, 1]],
        "brute_min_gap": _exact_root(gap_num, gap_den),
        "passed": (report["strictly_decreasing"] and matches and grid_exact
                   and gap_num * c * c == (c - 2 * e) ** 2 * gap_den),
    }


# ---------------------------------------------------------------------------
# Reports: the payloads of the CLI's hyperbolic-condition and conjugacy
# files, built from a few inputs by the writer and the verifier alike
# ---------------------------------------------------------------------------


def stored_params(d: dict) -> HorseshoeParams:
    """The parameters of a stored report: lambda and mu as number strings."""
    if not (isinstance(d["lambda"], str) and isinstance(d["mu"], str)):
        raise TypeError("lambda and mu must be stored as strings")
    return HorseshoeParams(parse_number(d["lambda"]), parse_number(d["mu"]))


def hyperbolic_payload(hp: HorseshoeParams, max_depth: int) -> dict:
    report = verify_hyperbolic_conditions(hp, bounded("max_depth", max_depth, 1, MAX_METRIC_DEPTH))
    return {"lambda": str(hp.lam), "mu": str(hp.mu), "max_depth": max_depth, **report}


def conjugacy_payload(hp: HorseshoeParams, depth: int, seed: int, samples: int) -> dict:
    """Conjugacy defects at `samples` periodic points drawn from `seed`."""
    bounded("depth", depth, 2, MAX_CONJUGACY_DEPTH)
    rng = random.Random(bounded("seed", seed, -math.inf, math.inf))
    words = [[rng.randint(1, 2) for _ in range(rng.randint(1, 12))]
             for _ in range(bounded("samples", samples, 0, MAX_CONJUGACY_SAMPLES))]
    checks = _conjugacy_rows(map(periodic_point, words), hp, depth)
    rows = [{"word": word, **check} for word, check in zip(words, checks)]
    return {
        "lambda": str(hp.lam),
        "mu": str(hp.mu),
        "depth": depth,
        "seed": seed,
        "samples": samples,
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }
