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
2**(k+1+n) rectangles is the product of 2**(k+1) past x-intervals and 2**n
future y-intervals (`rectangle_lattice`); the CLI streams its CSV and SVG
rows from the two factors, and even the 2**20 cap takes seconds.

With exact parameters (`fractions.Fraction` or int, the default lambda =
1/3, mu = 3) every interval, itinerary, and conjugacy defect below is
exact.  The digit sums then run over integers: for lambda = a/b one Horner
pass keeps the sum over the common denominator b**len (mu**-j likewise over
a power of mu's numerator), and one `Fraction` is normalised per sum
instead of one per digit.  Squared defects and diagonals are compared as
integer cross products.  Float parameters take a separate float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .metric import DiameterReport, diameter_table
from .sequences import BiSequence, FiniteWord, as_word


class EscapeError(ValueError):
    """An iterate left the horseshoe strips; the point carries no symbol."""

    def __init__(self, step: int, axis: str):
        self.step = step
        self.axis = axis
        super().__init__(f"iterate {step} escaped through the {axis} gap")


MAX_EXACT_BITS = 16  # bounds the exact powers a conjugacy check takes at its caps


@dataclass(frozen=True)
class HorseshoeParams:
    """Contraction lambda in (0, 1/2) and finite expansion mu > 2.

    Values may be floats or exact rationals of at most `MAX_EXACT_BITS`
    bits above and below the line; defaults are exact.
    """

    lam: object = Fraction(1, 3)
    mu: object = Fraction(3)

    def __post_init__(self) -> None:
        if not (0 < self.lam) or not (self.lam < Fraction(1, 2)):
            raise ValueError(f"lambda must lie in (0, 1/2), got {self.lam}")
        if not (2 < self.mu < math.inf):
            raise ValueError(f"mu must be a finite number above 2, got {self.mu}")
        for name, value in (("lambda", self.lam), ("mu", self.mu)):
            if isinstance(value, (int, Fraction)) and max(value.numerator, value.denominator) >> MAX_EXACT_BITS:
                raise ValueError(f"exact {name} {value} has a term of more than {MAX_EXACT_BITS} bits")

    @cached_property
    def exact(self) -> bool:
        return isinstance(self.lam, (int, Fraction)) and isinstance(self.mu, (int, Fraction))


@dataclass(frozen=True)
class PlanePoint:
    x: object
    y: object

    def __post_init__(self) -> None:
        if not (0 <= self.x <= 1 and 0 <= self.y <= 1):
            raise ValueError(f"point ({self.x}, {self.y}) outside the unit square")


def _one(hp: HorseshoeParams):
    return Fraction(1) if hp.exact else 1.0


def branch_of(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> int:
    """Which horizontal strip holds q: 1, 2, or an escape."""
    gap_lo = _one(hp) / hp.mu
    if q.y <= gap_lo:
        return 1
    if q.y >= 1 - gap_lo:
        return 2
    raise EscapeError(step, "horizontal")


def horseshoe_map(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> PlanePoint:
    branch = branch_of(q, hp, step)
    if branch == 1:
        return PlanePoint(hp.lam * q.x, hp.mu * q.y)
    return PlanePoint(hp.lam * q.x + 1 - hp.lam, hp.mu * q.y - (hp.mu - 1))


def horseshoe_inverse(q: PlanePoint, hp: HorseshoeParams, step: int = 0) -> PlanePoint:
    """Inverse branches, selected by the vertical strip holding q."""
    if q.x <= hp.lam:
        return PlanePoint(q.x / hp.lam, q.y / hp.mu)
    if q.x >= 1 - hp.lam:
        return PlanePoint((q.x - (1 - hp.lam)) / hp.lam, (q.y + hp.mu - 1) / hp.mu)
    raise EscapeError(step, "vertical")


def itinerary(q: PlanePoint, hp: HorseshoeParams, back: int, fwd: int) -> FiniteWord:
    """Branch symbols of the orbit: positions 1-back..fwd, where position
    j records the strip containing the (j-1)-th image of q."""
    if back < 0 or fwd < 0 or back + fwd == 0:
        raise ValueError("need back >= 0, fwd >= 0, and at least one symbol")
    forward = []
    pt = q
    for step in range(fwd):
        forward.append(branch_of(pt, hp, step))
        if step + 1 < fwd:
            pt = horseshoe_map(pt, hp, step)
    backward = []
    pt = q
    for step in range(1, back + 1):
        pt = horseshoe_inverse(pt, hp, -step)
        backward.append(branch_of(pt, hp, -step))
    return FiniteWord(tuple(reversed(backward)) + tuple(forward))


def point_from_itinerary(
    s: BiSequence, hp: HorseshoeParams, depth: int
) -> tuple[PlanePoint, float]:
    """Reconstruct the coded point from `depth` symbols per side.

    Returns the truncated point and the Euclidean bound on its distance to
    the true coded point (tails lambda**depth and mu**-depth per axis).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = _x_lo(s.window(1 - depth, 0), hp)
    y = _y_lo(s.window(1, depth), hp)
    if not hp.exact:
        # the exact sums lie in [0, 1); only float rounding can overshoot
        x, y = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
    err = math.hypot(float(hp.lam) ** depth, float(hp.mu) ** (-depth))
    return PlanePoint(x, y), err


@dataclass(frozen=True)
class ConjugacyReport:
    """Defect of map-then-code versus shift-then-code at finite depth."""

    defect: float
    bound: float
    exact: bool
    passed: bool


def conjugacy_check(s: BiSequence, hp: HorseshoeParams, depth: int) -> ConjugacyReport:
    """Compare the horseshoe image of the reconstructed point against the
    reconstruction of the shifted sequence.

    The defect must stay within hypot((1+lambda)*lambda**depth,
    (1+mu)*mu**-depth).  With exact parameters the comparison is exact
    (squared defect against squared bound); with floats a machine-epsilon
    allowance is added.
    """
    if depth < 2:
        raise ValueError("depth must be >= 2")
    p_here, _ = point_from_itinerary(s, hp, depth)
    p_next, _ = point_from_itinerary(s.shift(1), hp, depth)
    image = horseshoe_map(p_here, hp)
    dx = image.x - p_next.x
    dy = image.y - p_next.y
    if hp.exact:
        # squares as integer fractions: (1 + lam) * lam**depth =
        # (b + a) * a**depth / b**(depth + 1) and (1 + mu) * mu**-depth =
        # (e + c) * e**(depth - 1) / c**depth, for lam = a / b and mu = c / e
        a, b = hp.lam.numerator, hp.lam.denominator
        c, e = hp.mu.numerator, hp.mu.denominator
        defect_num, defect_den = _sum_of_squares(dx.numerator, dx.denominator,
                                                 dy.numerator, dy.denominator)
        bound_num, bound_den = _sum_of_squares((b + a) * a ** depth, b ** (depth + 1),
                                               (e + c) * e ** (depth - 1), c ** depth)
        return ConjugacyReport(
            math.sqrt(defect_num / defect_den),  # int / int rounds correctly
            math.sqrt(bound_num / bound_den),
            True,
            defect_num * bound_den <= bound_num * defect_den,
        )
    defect_sq = dx * dx + dy * dy
    bx = (1 + hp.lam) * hp.lam ** depth
    by = (1 + hp.mu) * float(hp.mu) ** (-depth)
    bound_sq = bx * bx + by * by
    passed = float(defect_sq) <= float(bound_sq) * (1 + 1e-9) + 1e-30
    return ConjugacyReport(
        math.sqrt(float(defect_sq)), math.sqrt(float(bound_sq)), False, passed
    )


def _sum_of_squares(xn: int, xd: int, yn: int, yd: int) -> tuple[int, int]:
    """(xn / xd)**2 + (yn / yd)**2 as an unreduced (numerator, denominator)."""
    return (xn * yd) ** 2 + (yn * xd) ** 2, (xd * yd) ** 2


# ---------------------------------------------------------------------------
# Level rectangles: the planar realization of two-sided cylinders
# ---------------------------------------------------------------------------

RECTANGLE_CAP = 1 << 20


@dataclass(frozen=True)
class SymbolicRectangle:
    """All points whose itinerary carries `word` on window [start, end]."""

    word: FiniteWord
    start: int
    x_lo: object
    x_hi: object
    y_lo: object
    y_hi: object

    @property
    def end(self) -> int:
        return self.start + len(self.word) - 1

    def width(self):
        return self.x_hi - self.x_lo

    def height(self):
        return self.y_hi - self.y_lo

    def diagonal_sq(self):
        return self.width() ** 2 + self.height() ** 2

    def diagonal(self) -> float:
        return math.sqrt(float(self.diagonal_sq()))

    def gap_sq_to(self, other: "SymbolicRectangle"):
        """Squared Euclidean distance between the two closed boxes."""
        dx = max(self.x_lo - other.x_hi, other.x_lo - self.x_hi, 0)
        dy = max(self.y_lo - other.y_hi, other.y_lo - self.y_hi, 0)
        return dx * dx + dy * dy

    def gap_to(self, other: "SymbolicRectangle") -> float:
        return math.sqrt(float(self.gap_sq_to(other)))


class Interval(NamedTuple):
    """One factor of a level rectangle: the digits of one side of the dot
    and the interval they cut out on that side's axis."""

    digits: tuple[int, ...]
    lo: object
    hi: object


def _x_exact(past, lam) -> tuple[int, int]:
    """Integers (num, den) with x_lo = num / den, for exact lam = a / b.

    One Horner pass over the common denominator b**len(past): after the
    digits d_0..d_j (word order) num / scale holds
    sum_i (d_i - 1) * lam**(j - i) / b, and (1 - lam) = (b - a) / b.
    """
    a, b = lam.numerator, lam.denominator
    num, scale = 0, 1
    for digit in past:
        num = num * a + (digit - 1) * scale
        scale *= b
    return num * (b - a), scale


def _y_exact(future, mu) -> tuple[int, int]:
    """Integers (num, den) with y_lo = num / den, for exact mu = c / e.

    Over the common denominator c**n the digit at position j weighs
    e**j * c**(n - j), and (mu - 1) = (c - e) / e.
    """
    c, e = mu.numerator, mu.denominator
    num, epow = 0, e
    for digit in future:
        num = num * c + (digit - 1) * epow
        epow *= e
    return num * (c - e), e * c ** len(future)


def _x_lo(past, hp: HorseshoeParams):
    """Left end of the x-interval of the past digits at positions -k..0 (in
    word order): the x coordinate they code with zeros beyond."""
    if hp.exact:
        return Fraction(*_x_exact(past, hp.lam))
    x_lo = 0.0
    powlam = 1.0
    for digit in reversed(past):  # positions 0, -1, .., -k
        x_lo += (digit - 1) * powlam
        powlam = powlam * hp.lam
    return x_lo * (1 - hp.lam)


def _y_lo(future, hp: HorseshoeParams):
    """Lower end of the y-interval of the future digits at positions 1..n."""
    if hp.exact:
        return Fraction(*_y_exact(future, hp.mu))
    y_lo = 0.0
    powmu = 1.0
    for digit in future:
        powmu = powmu / hp.mu
        y_lo += (digit - 1) * powmu
    return y_lo * (hp.mu - 1)


def _x_interval(past, hp: HorseshoeParams) -> tuple[object, object]:
    """x-interval of the past digits at positions -k..0 (in word order)."""
    if hp.exact:  # width lam**len(past) = a**len / den
        num, den = _x_exact(past, hp.lam)
        return Fraction(num, den), Fraction(num + hp.lam.numerator ** len(past), den)
    x_lo = _x_lo(past, hp)
    return x_lo, x_lo + hp.lam ** len(past)


def _y_interval(future, hp: HorseshoeParams) -> tuple[object, object]:
    """y-interval of the future digits at positions 1..n."""
    n = len(future)
    if hp.exact:  # height mu**-n = e**(n+1) / den
        num, den = _y_exact(future, hp.mu)
        return Fraction(num, den), Fraction(num + hp.mu.denominator ** (n + 1), den)
    y_lo = _y_lo(future, hp)
    return y_lo, y_lo + float(hp.mu) ** (-n)


def rectangle_for_word(word, start: int, hp: HorseshoeParams) -> SymbolicRectangle:
    """Rectangle of the window [start, end]; needs start <= 0 < end."""
    w = as_word(word)
    end = start + len(w) - 1
    if not (start <= 0 < end):
        raise ValueError("rectangle windows must straddle the dot")
    x_lo, x_hi = _x_interval(w[: 1 - start], hp)
    y_lo, y_hi = _y_interval(w[1 - start :], hp)
    return SymbolicRectangle(w, start, x_lo, x_hi, y_lo, y_hi)


def rectangle_lattice(
    hp: HorseshoeParams, k: int, n: int
) -> tuple[list[Interval], list[Interval]]:
    """The two factors of the level-(k, n) grid, each in word order.

    The rectangle of window [-k, n] carrying past digits p and future
    digits f is (x-interval of p) x (y-interval of f), so the 2**(k+1+n)
    rectangles are the product of the 2**(k+1) `pasts` and the 2**n
    `futures`, past outermost.
    """
    if k < 0 or n < 1:
        raise ValueError("need k >= 0 and n >= 1")
    if 2 ** (k + 1 + n) > RECTANGLE_CAP:
        raise ValueError(f"rectangle cap exceeded: 2**{k + 1 + n} > 2**20")
    pasts = [Interval(p, *_x_interval(p, hp)) for p in product((1, 2), repeat=k + 1)]
    futures = [Interval(f, *_y_interval(f, hp)) for f in product((1, 2), repeat=n)]
    return pasts, futures


def level_rectangles(hp: HorseshoeParams, k: int, n: int) -> list[SymbolicRectangle]:
    """All 2**(k+1+n) rectangles of window [-k, n], in word order."""
    pasts, futures = rectangle_lattice(hp, k, n)
    return [
        SymbolicRectangle(FiniteWord(p.digits + f.digits), -k, p.lo, p.hi, f.lo, f.hi)
        for p in pasts
        for f in futures
    ]


# ---------------------------------------------------------------------------
# Hyperbolic-condition report: the same diameter/separation checks as the
# symbolic metric, run against the Euclidean rectangle geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicReport:
    diameter: DiameterReport
    grid_exact: bool
    eps0: float
    eps0_horizontal: float
    witness_words: tuple[tuple[int, ...], tuple[int, ...]]
    brute_min_gap: float
    passed: bool


def rectangle_diagonal(hp: HorseshoeParams, k: int, n: int) -> float:
    """Diagonal of any level-(k, n) rectangle, from a constructed instance."""
    rect = rectangle_for_word((1,) * (k + 1 + n), -k, hp)
    return rect.diagonal()


def _predicted_sq(hp: HorseshoeParams, k: int, n: int) -> tuple[int, int]:
    """lam**(2(k+1)) + mu**(-2n) at exact parameters, as an unreduced
    (numerator, denominator)."""
    a, b = hp.lam.numerator, hp.lam.denominator
    c, e = hp.mu.numerator, hp.mu.denominator
    return _sum_of_squares(a ** (k + 1), b ** (k + 1), e ** n, c ** n)


def predicted_diagonal(hp: HorseshoeParams, k: int, n: int) -> float:
    if hp.exact:
        num, den = _predicted_sq(hp, k, n)
        return math.sqrt(num / den)
    return math.sqrt(float(hp.lam ** (2 * (k + 1)) + float(hp.mu) ** (-2 * n)))


def verify_hyperbolic_conditions(hp: HorseshoeParams, max_depth: int) -> HyperbolicReport:
    """Check that rectangle diagonals shrink along the predicted closed form
    and that first-symbol separation certifies eps0 = 1 - 2/mu."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if 2 ** (2 * max_depth + 1) > RECTANGLE_CAP:
        raise ValueError("max_depth exceeds the rectangle cap")
    report = diameter_table(
        lambda k, n: rectangle_diagonal(hp, k, n),
        lambda k, n: predicted_diagonal(hp, k, n),
        max_depth,
    )
    grid_exact = True
    for k in range(1, max_depth + 1):
        for n in range(1, max_depth + 1):
            rect = rectangle_for_word((1,) * (k + 1 + n), -k, hp)
            if hp.exact:
                w, h = rect.width(), rect.height()
                lhs_num, lhs_den = _sum_of_squares(w.numerator, w.denominator,
                                                   h.numerator, h.denominator)
                rhs_num, rhs_den = _predicted_sq(hp, k, n)
                ok = lhs_num * rhs_den == rhs_num * lhs_den
            else:
                rhs = hp.lam ** (2 * (k + 1)) + float(hp.mu) ** (-2 * n)
                ok = math.isclose(float(rect.diagonal_sq()), float(rhs), rel_tol=1e-12)
            grid_exact = grid_exact and ok
    eps0 = float(1 - 2 * _one(hp) / hp.mu)
    eps0_horizontal = float(1 - 2 * hp.lam)
    # brute force at depth 1: minimum gap between the 4 window-[0,1]
    # rectangles whose future symbols differ
    rects = level_rectangles(hp, 0, 1)
    gaps = [
        a.gap_to(b)
        for i, a in enumerate(rects)
        for b in rects[i + 1 :]
        if a.word[1] != b.word[1]
    ]
    brute = min(gaps)
    passed = report.passed and grid_exact and math.isclose(brute, eps0, abs_tol=1e-12)
    return HyperbolicReport(
        diameter=report,
        grid_exact=grid_exact,
        eps0=eps0,
        eps0_horizontal=eps0_horizontal,
        witness_words=((1, 2), (2, 1)),
        brute_min_gap=brute,
        passed=passed,
    )
