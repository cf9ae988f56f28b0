"""Affine horseshoe: branches, coding, geometry, conjugacy."""

import math
import random
from fractions import Fraction
from itertools import product

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
    level_rectangles,
    periodic_point,
    point_from_itinerary,
    verify_hyperbolic_conditions,
)
from shiftchaos import horseshoe
from shiftchaos.horseshoe import (
    _x_interval,
    _y_interval,
    branch_of,
    rectangle_for_word,
    rectangle_lattice,
)
from shiftchaos.sequences import EventuallyPeriodicSeq

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
        assert abs(back.x - x) < 1e-12 and abs(back.y - y) < 1e-12


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
    assert rep.defect == 0.0 and rep.passed


def test_conjugacy_period_two_depth_twenty():
    rep = conjugacy_check(periodic_point((1, 2)), HP, 20)
    assert rep.passed
    assert rep.defect < 1e-8


def test_conjugacy_float_params_pass_without_an_allowance():
    assert conjugacy_check(periodic_point((2, 1, 1)), HPF, 20).passed
    # float rounding refuted these before floats were summed as the dyadic
    # rationals they are: a defect of 1.0 at mu = 1e6, and at depth 512 a
    # rounding defect against a bound that underflows to 0.0
    rng = random.Random(5)
    for hp, depth in ((HorseshoeParams(0.3, 1e6), 20), (HorseshoeParams(0.3, 3.5), 512)):
        for _ in range(20):
            word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 12)))
            rep = conjugacy_check(periodic_point(word), hp, depth)
            assert rep.passed and rep.defect <= rep.bound


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
    assert verify_hyperbolic_conditions(hp, 4).passed
    for word in ((1,), (2,), (1, 2), (2, 2, 1)):
        assert conjugacy_check(periodic_point(word), hp, 64).passed


def test_conjugacy_random_periodic_depth_thirty():
    rng = random.Random(4)
    for _ in range(30):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 10)))
        rep = conjugacy_check(periodic_point(word), HP, 30)
        assert rep.passed
        assert rep.defect <= rep.bound <= 1e-8


def test_level_rectangles_smallest_level():
    rects = level_rectangles(HP, 0, 1)
    assert len(rects) == 4
    third = Fraction(1, 3)
    for rect in rects:
        assert rect.width() == third and rect.height() == third
    # corner-membership oracle: x-interval sits in the vertical strip of the
    # position-0 symbol, y-interval in the horizontal strip of position 1
    for rect in rects:
        past, future = rect.word[0], rect.word[1]
        if past == 1:
            assert rect.x_hi <= HP.lam
        else:
            assert rect.x_lo >= 1 - HP.lam
        if future == 1:
            assert rect.y_hi <= Fraction(1, 3)
        else:
            assert rect.y_lo >= Fraction(2, 3)


def test_rectangle_width_scales_by_lambda_per_past_level():
    w1 = rectangle_for_word((1, 1, 2), -1, HP).width()
    w0 = rectangle_for_word((1, 2), 0, HP).width()
    assert w1 / w0 == HP.lam


def test_rectangle_heights():
    rects = level_rectangles(HP, 0, 3)
    assert all(r.height() == Fraction(1, 27) for r in rects)


def test_rectangles_pairwise_disjoint_with_positive_gaps():
    for k, n in ((0, 1), (1, 1), (1, 2), (2, 2)):
        rects = level_rectangles(HP, k, n)
        for i, a in enumerate(rects):
            for b in rects[i + 1 :]:
                assert a.gap_sq_to(b) > 0


def test_level_rectangles_cap():
    with pytest.raises(ValueError):
        level_rectangles(HP, 15, 15)


def _same(a, b) -> bool:
    """Equal values of one type; floats must agree bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


@pytest.mark.parametrize(
    "hp", [HP, HPF, HorseshoeParams(0.3, 3.5)], ids=["exact", "float", "0.3-3.5"]
)
@pytest.mark.parametrize("k,n", [(0, 1), (2, 3), (4, 4)])
def test_level_rectangles_agree_with_rectangle_for_word(hp, k, n):
    rects = level_rectangles(hp, k, n)
    words = list(product((1, 2), repeat=k + 1 + n))
    assert len(rects) == len(words)
    for word, rect in zip(words, rects):
        want = rectangle_for_word(word, -k, hp)
        assert tuple(rect.word) == word == tuple(want.word)
        assert rect.start == want.start == -k
        for field in ("x_lo", "x_hi", "y_lo", "y_hi"):
            assert _same(getattr(rect, field), getattr(want, field)), (word, field)


@pytest.mark.parametrize("k,n", [(-1, 2), (0, 0), (15, 15), (10, 10)])
def test_rectangle_lattice_rejects_what_level_rectangles_rejects(k, n):
    with pytest.raises(ValueError) as lattice_err:
        rectangle_lattice(HP, k, n)
    with pytest.raises(ValueError) as level_err:
        level_rectangles(HP, k, n)
    assert str(lattice_err.value) == str(level_err.value)


def test_rectangle_lattice_factor_sizes_at_the_cap():
    pasts, futures = rectangle_lattice(HP, 9, 10)
    assert (len(pasts), len(futures)) == (2 ** 10, 2 ** 10)


def test_hyperbolic_conditions_report():
    report = verify_hyperbolic_conditions(HP, 8)
    assert report.passed
    assert report.grid_exact
    assert report.eps0 == float(Fraction(1, 3))
    assert report.eps0_horizontal == float(Fraction(1, 3))
    assert math.isclose(report.brute_min_gap, 1 / 3, abs_tol=1e-12)
    diag = report.diameter.rows[-1]
    assert diag.diameter == math.sqrt(float(Fraction(1, 3) ** 18 + Fraction(3) ** -16))


def test_hyperbolic_conditions_float_params():
    report = verify_hyperbolic_conditions(HorseshoeParams(0.3, 2.5), 4)
    assert report.passed and report.grid_exact and report.diameter.strictly_decreasing
    assert report.eps0 == report.brute_min_gap == float(1 - 2 / Fraction(2.5))
    assert report.eps0_horizontal == float(1 - 2 * Fraction(0.3))


@pytest.mark.parametrize("lam, mu", [(0.3, 3.5), (Fraction(1, 3), Fraction(7, 2)), (0.25, 2.2)])
def test_brute_min_gap_is_the_correctly_rounded_exact_gap(lam, mu):
    # the gap is 1 - 2/mu exactly; sqrt(float(gap**2)) would give
    # 0.4285714285714286 at mu = 3.5, one ulp above 3/7
    report = verify_hyperbolic_conditions(HorseshoeParams(lam, mu), 2)
    assert report.passed
    assert report.brute_min_gap == report.eps0 == float(1 - 2 / Fraction(mu))


def _is_correctly_rounded_root(x: float, q: Fraction) -> bool:
    """x is the float nearest sqrt(q): q lies between the squares of the
    midpoints from x to its two neighbours."""
    lo, hi = math.nextafter(x, 0), math.nextafter(x, math.inf)
    return ((Fraction(lo) + Fraction(x)) / 2) ** 2 <= q <= ((Fraction(x) + Fraction(hi)) / 2) ** 2


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


def _x_sum(past, lam):
    """(1 - lam) * sum_i a_{-i} lam**i, term by term, past in word order."""
    digits = [d - 1 for d in reversed(past)]  # positions 0, -1, ..
    return (1 - lam) * sum((Fraction(d) * lam ** i for i, d in enumerate(digits)), Fraction(0))


def _y_sum(future, mu):
    """(mu - 1) * sum_j a_j mu**-j, term by term, positions 1..n."""
    mu = Fraction(mu)
    return (mu - 1) * sum(
        (Fraction(d - 1) * mu ** -j for j, d in enumerate(future, 1)), Fraction(0)
    )


def test_exact_intervals_and_points_match_the_digit_sums():
    rng = random.Random(17)
    for _ in range(150):
        hp = _random_exact_params(rng)
        lam, mu = Fraction(hp.lam), Fraction(hp.mu)  # exact, floats too
        past = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 64)))
        future = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 64)))
        x_lo, x_hi = _x_interval(past, hp)
        y_lo, y_hi = _y_interval(future, hp)
        assert x_lo == _x_sum(past, lam) and x_hi == x_lo + lam ** len(past)
        assert y_lo == _y_sum(future, mu) and y_hi == y_lo + mu ** -len(future)
        assert all(type(v) is Fraction for v in (x_lo, x_hi, y_lo, y_hi))

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
        here = PlanePoint(_x_sum(seq.window(1 - depth, 0), lam), _y_sum(seq.window(1, depth), mu))
        after = PlanePoint(_x_sum(seq.window(2 - depth, 1), lam),
                           _y_sum(seq.window(2, depth + 1), mu))
        t = 0 if here.y <= 1 / mu else 1  # the branch formulas, in Fractions
        image = PlanePoint(lam * here.x + t * (1 - lam), mu * here.y - t * (mu - 1))
        defect_sq = (image.x - after.x) ** 2 + (image.y - after.y) ** 2
        bound_sq = ((1 + lam) * lam ** depth) ** 2 + ((1 + mu) * mu ** -depth) ** 2
        rep = conjugacy_check(seq, hp, depth)
        assert rep.passed == (defect_sq <= bound_sq)
        assert rep.defect == math.sqrt(float(defect_sq))
        assert rep.bound == math.sqrt(float(bound_sq))


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
    assert not rep.passed and rep.defect == math.sqrt(float(((1 - HP.lam) * nudge) ** 2))
    assert conjugacy_check(periodic_point((1,)), HP, depth).passed

    assert verify_hyperbolic_conditions(HP, 3).grid_exact
    _nudge_x_lo(monkeypatch, Fraction(1, 10 ** 30))  # every width shrinks by 1e-30
    assert not verify_hyperbolic_conditions(HP, 3).grid_exact


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
    assert report.grid_exact and report.diameter.passed and not report.passed
