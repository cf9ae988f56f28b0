"""Affine horseshoe: branches, coding, geometry, conjugacy."""

import math
import operator
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product, repeat

import pytest

from shiftchaos import (
    EscapeError,
    FiniteWord,
    HorseshoeParams,
    PlanePoint,
    SplicedSeq,
    conjugacy_check,
    horseshoe_inverse,
    horseshoe_map,
    itinerary,
    periodic_point,
    point_from_itinerary,
    rectangle_lattice,
    verify_hyperbolic_conditions,
)
from shiftchaos import horseshoe
from shiftchaos.horseshoe import _x_ends, _y_ends, branch_of
from shiftchaos.schema import MAX_CONJUGACY_DEPTH, MAX_CONJUGACY_SAMPLES, check_grid
from shiftchaos.sequences import EventuallyPeriodicSeq

from conftest import ROOT_IDS, ROOT_PARAMS, _is_correctly_rounded_root, _pull_back, planar_orbit_csv

HP = HorseshoeParams()  # exact lambda = 1/3, mu = 3
HPF = HorseshoeParams(1 / 3, 3.0)  # float twin


def test_params_validation():
    with pytest.raises(ValueError):
        HorseshoeParams(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        HorseshoeParams(Fraction(1, 3), 2)
    with pytest.raises(ValueError):
        HorseshoeParams(-0.1, 3)


def test_plane_point_validation():
    with pytest.raises(ValueError):
        PlanePoint(1.5, 0.0)


def test_fixed_points_of_both_branches():
    assert horseshoe_map(PlanePoint(0, 0), HP) == PlanePoint(0, 0)
    # branch 2 fixed point solves x = x/3 + 2/3, y = 3y - 2
    assert horseshoe_map(PlanePoint(1, 1), HP) == PlanePoint(1, 1)


def test_gap_points_escape():
    with pytest.raises(EscapeError):
        horseshoe_map(PlanePoint(0.5, 0.5), HP)
    with pytest.raises(EscapeError):
        horseshoe_inverse(PlanePoint(0.5, 0.5), HP)


def test_inverse_of_affine_image():
    q = PlanePoint(Fraction(1, 3) * Fraction(1, 4), Fraction(1, 5))
    inv = horseshoe_inverse(q, HP)
    assert inv == PlanePoint(Fraction(1, 4), Fraction(1, 15))


def test_inverse_composes_to_identity_on_random_strip_points():
    rng = random.Random(11)
    count = 0
    while count < 1000:
        x = rng.random()
        y = rng.random()
        try:
            q = PlanePoint(x, y)
            image = horseshoe_map(q, HPF)
            back = horseshoe_inverse(image, HPF)
        except EscapeError:
            continue
        count += 1
        assert back == q and (back.x, back.y) == (x, y)  # exact on the dyadic values


def test_itinerary_of_fixed_points():
    assert tuple(itinerary(PlanePoint(0, 0), HP, back=3, fwd=3)) == (1,) * 6
    assert tuple(itinerary(PlanePoint(1, 1), HP, back=3, fwd=3)) == (2,) * 6


def test_itinerary_escape_names_the_step():
    # lands in the gap after one application
    q = PlanePoint(0, Fraction(1, 6))
    with pytest.raises(EscapeError) as exc:
        itinerary(q, HP, back=0, fwd=3)
    assert exc.value.step == 1


def test_point_from_constant_itineraries():
    pt, err = point_from_itinerary(periodic_point((1,)), HP, 20)
    assert pt == PlanePoint(0, 0)
    pt, err = point_from_itinerary(periodic_point((2,)), HP, 20)
    assert abs(float(pt.x) - 1) <= err and abs(float(pt.y) - 1) <= err


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
def test_point_error_bounds_the_all_two_point_exactly(lam, mu):
    # the all-2 point codes (1, 1), and its truncation sits at the far corner
    # of the depth's rectangle: the distance is the diagonal itself, so a
    # bound rounded down, or underflowed to 0, fails here
    hp = HorseshoeParams(lam, mu)
    for depth in (1, 2, 5, 45, 300, 700):
        pt, err = point_from_itinerary(periodic_point((2,)), hp, depth)
        assert err > 0
        assert (1 - pt.x) ** 2 + (1 - pt.y) ** 2 <= Fraction(err) ** 2, depth


def test_point_from_period_two_matches_series_and_iteration_oracle():
    seq = periodic_point((1, 2))
    pt, err = point_from_itinerary(seq, HP, 30)
    # digits: future 0,1,0,1,... from position 1; past 1,0,1,0,... from position 0
    y_expected = 2 * Fraction(3) ** -2 / (1 - Fraction(3) ** -2)  # = 1/4
    x_expected = Fraction(2, 3) / (1 - Fraction(1, 9))  # = 3/4
    assert abs(float(pt.y) - float(y_expected)) <= err
    assert abs(float(pt.x) - float(x_expected)) <= err
    # oracle: iterate the map forward and confirm the branch sequence
    cur = pt
    for j in range(1, 9):
        assert branch_of(cur, HP) == seq.symbol_at(j)
        cur = horseshoe_map(cur, HP)


def test_round_trip_words_of_length_up_to_twelve():
    rng = random.Random(2)
    for _ in range(60):
        length = rng.randint(1, 12)
        word = tuple(rng.randint(1, 2) for _ in range(length))
        seq = periodic_point(word)
        pt, _ = point_from_itinerary(seq, HP, 3 * length + 12)
        back = length // 2
        fwd = length - back
        got = itinerary(pt, HP, back=back, fwd=fwd)
        assert tuple(got) == seq.window(1 - back, fwd)


def test_conjugacy_fixed_point_defect_zero():
    rep = conjugacy_check(periodic_point((1,)), HP, 10)
    assert rep["defect"] == 0.0 and rep["passed"]


def test_conjugacy_period_two_depth_twenty():
    rep = conjugacy_check(periodic_point((1, 2)), HP, 20)
    assert rep["passed"]
    assert rep["defect"] < 1e-8


def test_conjugacy_float_params_pass_without_an_allowance():
    assert conjugacy_check(periodic_point((2, 1, 1)), HPF, 20)["passed"]
    # float rounding refuted these before floats were summed as the dyadic
    # rationals they are: a defect of 1.0 at mu = 1e6, and at depth 512 a
    # rounding defect against a bound that underflows to 0.0
    rng = random.Random(5)
    for hp, depth in ((HorseshoeParams(0.3, 1e6), 20), (HorseshoeParams(0.3, 3.5), 512)):
        for _ in range(20):
            word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 12)))
            rep = conjugacy_check(periodic_point(word), hp, depth)
            assert rep["passed"] and rep["defect"] <= rep["bound"]


# dyadic extremes under the 64-bit cap: one-bit and full-mantissa terms, the
# smallest full-mantissa lambda, the largest mu, and both just inside (0, 1/2)
# and (2, inf)
FLOAT_EXTREMES = (
    (2.0 ** -20, 3.5),
    (2.0 ** -63, 2.0 ** 64 - 2.0 ** 11),
    ((2 ** 52 + 1) / 2.0 ** 63, 2.0 ** 63),
    (0.5 - 2.0 ** -54, 2.0 + 2.0 ** -51),
)


@pytest.mark.parametrize("lam, mu", [(1e-5, 3.0), (0.3, 1e20), (1 / 3, 2.0 ** 64),
                                     (5e-324, 1.7976931348623157e308)])
def test_float_params_with_a_term_past_64_bits_are_refused(lam, mu):
    with pytest.raises(ValueError, match="float .* has a term of more than 64 bits"):
        HorseshoeParams(lam, mu)


@pytest.mark.parametrize("lam, mu", FLOAT_EXTREMES)
def test_float_params_at_the_64_bit_cap_are_accepted(lam, mu):
    hp = HorseshoeParams(lam, mu)
    assert hp.ratios == (*lam.as_integer_ratio(), *mu.as_integer_ratio())
    assert verify_hyperbolic_conditions(hp, 4)["passed"]
    for word in ((1,), (2,), (1, 2), (2, 2, 1)):
        assert conjugacy_check(periodic_point(word), hp, 64)["passed"]


def test_conjugacy_random_periodic_depth_thirty():
    rng = random.Random(4)
    for _ in range(30):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 10)))
        rep = conjugacy_check(periodic_point(word), HP, 30)
        assert rep["passed"]
        assert rep["defect"] <= rep["bound"] <= 1e-8


def _fractions(lo, hi, den):
    """An interval's integer ends (`_x_ends`, `_y_ends`) as exact values."""
    return Fraction(lo, den), Fraction(hi, den)


def test_level_rectangles_smallest_level():
    pasts, futures = rectangle_lattice(HP, 0, 1)
    assert len(pasts) * len(futures) == 4
    third = Fraction(1, 3)
    # corner-membership oracle: the x-interval sits in the vertical strip of
    # the position-0 symbol, the y-interval in the horizontal strip of position 1
    for past in pasts:
        x_lo, x_hi = _fractions(*past[1:])
        assert x_hi - x_lo == third
        assert x_hi <= HP.lam if past.digits == (1,) else x_lo >= 1 - HP.lam
    for future in futures:
        y_lo, y_hi = _fractions(*future[1:])
        assert y_hi - y_lo == third
        assert y_hi <= third if future.digits == (1,) else y_lo >= 2 * third


def test_rectangle_width_scales_by_lambda_per_past_level():
    lo1, hi1 = _fractions(*_x_ends((1, 1), HP))
    lo0, hi0 = _fractions(*_x_ends((1,), HP))
    assert (hi1 - lo1) / (hi0 - lo0) == HP.lam


def test_rectangle_heights():
    _, futures = rectangle_lattice(HP, 0, 3)
    assert all(Fraction(f.hi - f.lo, f.den) == Fraction(1, 27) for f in futures)


def test_rectangles_pairwise_disjoint_with_positive_gaps():
    def gap(u, v):
        return max(u[0] - v[1], v[0] - u[1], 0)

    for k, n in ((0, 1), (1, 1), (1, 2), (2, 2)):
        pasts, futures = rectangle_lattice(HP, k, n)
        rects = [(_fractions(*p[1:]), _fractions(*f[1:])) for p in pasts for f in futures]
        for i, (ax, ay) in enumerate(rects):
            for bx, by in rects[i + 1 :]:
                assert gap(ax, bx) ** 2 + gap(ay, by) ** 2 > 0


def test_level_rectangles_cap():
    with pytest.raises(ValueError, match="rectangle cap exceeded"):
        rectangle_lattice(HP, 15, 15)


@pytest.mark.parametrize("k,n", [(-1, 2), (0, 0), (15, 15), (10, 10)])
def test_rectangle_lattice_rejects_what_level_rectangles_rejects(k, n):
    # the lattice refuses each grid the one grid rule refuses, with its message
    with pytest.raises(ValueError) as grid_err:
        check_grid(k, n)
    with pytest.raises(ValueError) as lattice_err:
        rectangle_lattice(HP, k, n)
    assert str(lattice_err.value) == str(grid_err.value)


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
@pytest.mark.parametrize("k,n", [(0, 1), (2, 3), (4, 4)])
def test_lattice_factors_match_the_pull_back_oracle(k, n, lam, mu):
    # each side is the image of [0, 1] under the branches its digits name,
    # a float parameter as the rational it holds: x under
    # x -> lam x + (a - 1)(1 - lam) for a_0, a_-1, .., a_-k, y under the
    # inverse branches y -> (y + (a - 1)(mu - 1)) / mu for a_1..a_n
    pasts, futures = rectangle_lattice(HorseshoeParams(lam, mu), k, n)
    lam, mu = Fraction(lam), Fraction(mu)
    assert [p.digits for p in pasts] == list(product((1, 2), repeat=k + 1))
    assert [f.digits for f in futures] == list(product((1, 2), repeat=n))
    for past in pasts:
        assert _fractions(*past[1:]) == _pull_back(past.digits[::-1], 1 - lam, lam), past
    for future in futures:
        assert _fractions(*future[1:]) == _pull_back(future.digits, (mu - 1) / mu, 1 / mu), future


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
def test_lattice_floats_are_the_exact_ends_correctly_rounded(lam, mu):
    # the writers take each end as one int / int division of the factor's
    # integers: it must equal the exact value's rounding bit for bit, at every
    # past level 0..8 and future level 1..9 (every grid of at most 2**10)
    hp = HorseshoeParams(lam, mu)
    for k in range(9):
        for factor in rectangle_lattice(hp, k, 9 - k):
            for interval in factor:
                assert interval.lo < interval.hi and interval.den > 0
                for end in (interval.lo, interval.hi):
                    want = float(Fraction(end, interval.den))
                    assert (end / interval.den).hex() == want.hex(), (k, interval)


def test_rectangle_lattice_factor_sizes_at_the_cap():
    pasts, futures = rectangle_lattice(HP, 9, 10)
    assert (len(pasts), len(futures)) == (2 ** 10, 2 ** 10)


def test_one_grid_rule_bounds_a_huge_depth_before_any_power():
    check_grid(9, 10)  # 2**20 rectangles: the cap itself
    tracemalloc.start()
    try:
        for refused in (lambda: check_grid(10, 10), lambda: rectangle_lattice(HP, 10 ** 12, 1),
                        lambda: verify_hyperbolic_conditions(HP, 10),
                        lambda: verify_hyperbolic_conditions(HP, 10 ** 12)):
            with pytest.raises(ValueError, match="rectangle cap exceeded"):
                refused()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_hyperbolic_conditions_report():
    report = verify_hyperbolic_conditions(HP, 8)
    assert report["passed"]
    assert report["grid_exact"]
    assert report["eps0"] == float(Fraction(1, 3))
    assert report["eps0_horizontal"] == float(Fraction(1, 3))
    assert math.isclose(report["brute_min_gap"], 1 / 3, abs_tol=1e-12)
    diag = report["rows"][-1]
    assert _is_correctly_rounded_root(diag["diagonal"], Fraction(1, 3) ** 18 + Fraction(3) ** -16)


def test_hyperbolic_conditions_float_params():
    report = verify_hyperbolic_conditions(HorseshoeParams(0.3, 2.5), 4)
    assert report["passed"] and report["grid_exact"] and report["strictly_decreasing"]
    assert report["eps0"] == report["brute_min_gap"] == float(1 - 2 / Fraction(2.5))
    assert report["eps0_horizontal"] == float(1 - 2 * Fraction(0.3))


@pytest.mark.parametrize("lam, mu", [(0.3, 3.5), (Fraction(1, 3), Fraction(7, 2)), (0.25, 2.2)])
def test_brute_min_gap_is_the_correctly_rounded_exact_gap(lam, mu):
    # the gap is 1 - 2/mu exactly; sqrt(float(gap**2)) would give
    # 0.4285714285714286 at mu = 3.5, one ulp above 3/7
    report = verify_hyperbolic_conditions(HorseshoeParams(lam, mu), 2)
    assert report["passed"]
    assert report["brute_min_gap"] == report["eps0"] == float(1 - 2 / Fraction(mu))


def test_exact_root_is_correctly_rounded():
    rng = random.Random(5)
    cases = [(0, 1), (1, 1), (9, 49), (2, 1), (1, 2 ** 2000), (2 ** 2001, 3)]
    cases += [(rng.randrange(1, 10 ** rng.randint(1, 60)), rng.randrange(1, 10 ** rng.randint(1, 60)))
              for _ in range(2000)]
    for num, den in cases:
        x = horseshoe._exact_root(num, den)
        assert x == 0.0 if num == 0 else _is_correctly_rounded_root(x, Fraction(num, den))


def test_escape_points_never_get_symbols():
    rng = random.Random(8)
    for _ in range(200):
        # strictly interior to the gap strip (1/3, 2/3)
        y = 1 / 3 + (0.05 + 0.9 * rng.random()) * (1 / 3 * 0.9)
        q = PlanePoint(rng.random(), y)
        with pytest.raises(EscapeError):
            branch_of(q, HP)
        with pytest.raises(EscapeError):
            horseshoe_inverse(PlanePoint(y, rng.random()), HP)


@pytest.mark.parametrize("bits", [0, 53])
def test_orbit_rows_rebuild_x_exactly_where_its_interval_ends_round_apart(monkeypatch, bits):
    # over 2**-bits the ends of x's interval round to different floats in
    # most rows, and each such row rebuilds x from its branch digits
    rebuilds = []
    monkeypatch.setattr(horseshoe, "_X_BITS", bits)
    monkeypatch.setattr(horseshoe, "_x_ends", lambda past, hp: rebuilds.append(1) or _x_ends(past, hp))
    for lam, mu, x, y in [(Fraction(1, 3), 3, Fraction(1, 7), Fraction(3, 4)),
                          (0.3, 3, 0.1, Fraction(1, 4)),
                          (Fraction(2, 5), Fraction(7, 2), Fraction(1, 7), Fraction(2, 9)),
                          (0.3, 3.5, 0.1, 0.0)]:
        rows = horseshoe.orbit_rows(PlanePoint(x, y), HorseshoeParams(lam, mu), 300)
        text = "".join(f"{n},{u!r},{v!r},{b or 'escape'}\n" for n, (u, v, b) in enumerate(rows))
        assert "n,x,y,symbol\n" + text == planar_orbit_csv(x, y, lam, mu, 300)
    assert len(rebuilds) > 100


def test_mixed_signature_itinerary_against_spliced_window():
    word = (1, 2, 2, 1, 2)
    seq = periodic_point(word)
    pt, _ = point_from_itinerary(seq, HP, 40)
    got = itinerary(pt, HP, back=4, fwd=6)
    assert tuple(got) == seq.window(-3, 6)


def _random_exact_params(rng):
    """An int mu, a small fraction, two terms of up to 16 bits each, random
    full-mantissa floats, or a pair of `FLOAT_EXTREMES`."""
    kind = rng.randrange(5)
    if kind == 3:
        return HorseshoeParams(rng.uniform(0.001, 0.49), rng.uniform(2.001, 1e6))
    if kind == 4:
        return HorseshoeParams(*rng.choice(FLOAT_EXTREMES))
    if kind == 0:
        return HorseshoeParams(Fraction(1, rng.randint(3, 40)), rng.randint(3, 40))
    if kind == 1:
        b = rng.randint(3, 50)
        e = rng.randint(1, 20)
        return HorseshoeParams(Fraction(rng.randint(1, (b - 1) // 2), b),
                               Fraction(rng.randint(2 * e + 1, 60), e))
    b = rng.randint(1 << 15, 65535)
    e = rng.randint(1 << 12, 30000)
    return HorseshoeParams(Fraction(rng.randint(1, (b - 1) // 2), b),
                           Fraction(rng.randint(2 * e + 1, 65535), e))


@lru_cache(maxsize=8)
def _powers(base, n):
    """base**0, ..., base**n."""
    return tuple(accumulate(repeat(base, n), operator.mul, initial=1))


def _x_sum(past, lam):
    """(1 - lam) * sum_i a_{-i} lam**i, term by term over the denominator
    b**len for lam = a / b, past in word order."""
    lam = Fraction(lam)
    n = len(past)
    a, b = _powers(lam.numerator, n), _powers(lam.denominator, n)
    digits = [d - 1 for d in reversed(past)]  # positions 0, -1, ..
    num = sum(d * a[i] * b[n - i] for i, d in enumerate(digits) if d)
    return (1 - lam) * Fraction(num, b[n])


def _y_sum(future, mu):
    """(mu - 1) * sum_j a_j mu**-j, term by term over the denominator c**n
    for mu = c / e, positions 1..n."""
    mu = Fraction(mu)
    n = len(future)
    c, e = _powers(mu.numerator, n), _powers(mu.denominator, n)
    num = sum((d - 1) * e[j] * c[n - j] for j, d in enumerate(future, 1) if d != 1)
    return (mu - 1) * Fraction(num, c[n])


def _conjugacy_squares(seq, lam, mu, depth):
    """The squared defect and bound that `conjugacy_check` compares, from the
    branch formulas in Fractions."""
    here = PlanePoint(_x_sum(seq.window(1 - depth, 0), lam), _y_sum(seq.window(1, depth), mu))
    after = PlanePoint(_x_sum(seq.window(2 - depth, 1), lam),
                       _y_sum(seq.window(2, depth + 1), mu))
    t = 0 if here.y <= 1 / mu else 1
    image = PlanePoint(lam * here.x + t * (1 - lam), mu * here.y - t * (mu - 1))
    defect_sq = (image.x - after.x) ** 2 + (image.y - after.y) ** 2
    bound_sq = ((1 + lam) * lam ** depth) ** 2 + ((1 + mu) * mu ** -depth) ** 2
    return defect_sq, bound_sq


def test_exact_intervals_and_points_match_the_digit_sums():
    rng = random.Random(17)
    for _ in range(150):
        hp = _random_exact_params(rng)
        lam, mu = Fraction(hp.lam), Fraction(hp.mu)  # exact, floats too
        past = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 64)))
        future = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 64)))
        x_ends, y_ends = _x_ends(past, hp), _y_ends(future, hp)
        assert all(type(v) is int for v in x_ends + y_ends)
        x_lo, x_hi = _fractions(*x_ends)
        y_lo, y_hi = _fractions(*y_ends)
        assert x_lo == _x_sum(past, lam) and x_hi == x_lo + lam ** len(past)
        assert y_lo == _y_sum(future, mu) and y_hi == y_lo + mu ** -len(future)

        seq = EventuallyPeriodicSeq((rng.randint(1, 2),), past + future, 1 - len(past),
                                    tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 5))))
        depth = rng.randint(1, 64)
        pt, _ = point_from_itinerary(seq, hp, depth)
        assert pt.x == _x_sum([seq.symbol_at(j) for j in range(1 - depth, 1)], lam)
        assert pt.y == _y_sum([seq.symbol_at(j) for j in range(1, depth + 1)], mu)
        assert type(pt.x) is Fraction and type(pt.y) is Fraction


def test_exact_conjugacy_check_matches_fraction_arithmetic():
    rng = random.Random(23)
    for _ in range(60):
        hp = _random_exact_params(rng)
        lam, mu = Fraction(hp.lam), Fraction(hp.mu)  # exact, floats too
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 12)))
        depth = rng.randint(2, 80)
        seq = periodic_point(word)
        defect_sq, bound_sq = _conjugacy_squares(seq, lam, mu, depth)
        rep = conjugacy_check(seq, hp, depth)
        assert rep["passed"] == (defect_sq <= bound_sq)
        assert _is_correctly_rounded_root(rep["defect"], defect_sq)
        assert _is_correctly_rounded_root(rep["bound"], bound_sq)


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
@pytest.mark.parametrize(
    "max_depth, depth, samples",
    [(8, 20, 25), (9, MAX_CONJUGACY_DEPTH, MAX_CONJUGACY_SAMPLES)],
    ids=["cli", "caps"],
)
def test_every_stored_root_is_correctly_rounded(lam, mu, max_depth, depth, samples):
    # the sizes the CLI writes at --k + --n >= 8 with its default conjugacy
    # settings, and every cap: max_depth 9 is the rectangle cap's
    hp = HorseshoeParams(lam, mu)
    lam, mu = Fraction(hp.lam), Fraction(hp.mu)
    report = horseshoe.hyperbolic_payload(hp, max_depth)
    assert len(report["rows"]) == max_depth
    for row in report["rows"]:
        diagonal_sq = lam ** (2 * row["k"] + 2) + mu ** (-2 * row["n"])
        assert _is_correctly_rounded_root(row["diagonal"], diagonal_sq)
        assert _is_correctly_rounded_root(row["predicted"], diagonal_sq)
    assert _is_correctly_rounded_root(report["brute_min_gap"], (1 - 2 / mu) ** 2)
    report = horseshoe.conjugacy_payload(hp, depth, 5, samples)
    assert len(report["rows"]) == samples
    for row in report["rows"]:
        defect_sq, bound_sq = _conjugacy_squares(periodic_point(row["word"]), lam, mu, depth)
        assert _is_correctly_rounded_root(row["defect"], defect_sq)
        assert _is_correctly_rounded_root(row["bound"], bound_sq)


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
def test_hyperbolic_payload_is_its_inputs_and_the_check(lam, mu):
    hp = HorseshoeParams(lam, mu)
    report = verify_hyperbolic_conditions(hp, 8)
    assert horseshoe.hyperbolic_payload(hp, 8) == {
        "lambda": str(hp.lam), "mu": str(hp.mu), "max_depth": 8, **report,
    }
    assert "matches_prediction" not in report and report["passed"]
    assert [row["k"] for row in report["rows"]] == list(range(1, 9))


def test_hyperbolic_report_fails_diagonals_off_their_prediction(monkeypatch):
    # `passed` needs matches_prediction, which the stored report leaves out
    true_prediction = horseshoe.predicted_diagonal
    monkeypatch.setattr(horseshoe, "predicted_diagonal",
                        lambda hp, k, n: 2 * true_prediction(hp, k, n))
    report = verify_hyperbolic_conditions(HP, 3)
    assert report["strictly_decreasing"] and report["grid_exact"] and not report["passed"]


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
def test_conjugacy_payload_is_its_inputs_and_the_check(lam, mu):
    hp, depth, rng = HorseshoeParams(lam, mu), 20, random.Random(5)
    words = [[rng.randint(1, 2) for _ in range(rng.randint(1, 12))] for _ in range(25)]
    rows = [{"word": word, **conjugacy_check(periodic_point(word), hp, depth)} for word in words]
    assert horseshoe.conjugacy_payload(hp, depth, 5, 25) == {
        "lambda": str(hp.lam), "mu": str(hp.mu), "depth": depth, "seed": 5, "samples": 25,
        "rows": rows, "passed": all(row["passed"] for row in rows),
    }


def _nudge_x_lo(monkeypatch, delta):
    """Move the left end of every x-interval the integer kernel builds by delta."""
    true_ends = horseshoe._x_ends
    p, q = delta.numerator, delta.denominator

    def nudged(past, hp):
        lo, hi, den = true_ends(past, hp)
        return lo * q + p * den, hi * q, den * q

    monkeypatch.setattr(horseshoe, "_x_ends", nudged)


def test_exact_checks_flag_a_geometry_off_by_a_little(monkeypatch):
    depth = 12
    bound = math.hypot(float(Fraction(4, 3) * Fraction(1, 3) ** depth),
                       float(4 * Fraction(1, 3) ** depth))
    # the fixed point (0, 0) and its shift both move to x = nudge, whose
    # image lam * nudge misses it by (1 - lam) * nudge: past the bound,
    # short of sqrt(2) times it
    nudge = Fraction(9, 5) * Fraction(bound)
    with monkeypatch.context() as m:
        _nudge_x_lo(m, nudge)
        rep = conjugacy_check(periodic_point((1,)), HP, depth)
    assert not rep["passed"] and rep["defect"] == float((1 - HP.lam) * nudge)
    assert conjugacy_check(periodic_point((1,)), HP, depth)["passed"]

    assert verify_hyperbolic_conditions(HP, 3)["grid_exact"]
    _nudge_x_lo(monkeypatch, Fraction(1, 10 ** 30))  # every width shrinks by 1e-30
    assert not verify_hyperbolic_conditions(HP, 3)["grid_exact"]


def test_hyperbolic_report_flags_a_separation_off_by_a_little(monkeypatch):
    # lift every y-interval whose first future symbol is 2 by 1e-30: sides
    # and diagonals keep their values, the first-symbol gap grows past 1 - 2/mu
    true_ends = horseshoe._y_ends
    q = 10 ** 30

    def lifted(future, hp):
        lo, hi, den = true_ends(future, hp)
        lift = den if future[:1] == (2,) else 0
        return lo * q + lift, hi * q + lift, den * q

    monkeypatch.setattr(horseshoe, "_y_ends", lifted)
    report = verify_hyperbolic_conditions(HP, 3)
    assert report["grid_exact"] and report["strictly_decreasing"] and not report["passed"]
    assert all(math.isclose(row["diagonal"], row["predicted"], rel_tol=1e-12, abs_tol=0.0)
               for row in report["rows"])
