"""The weighted mismatch metric and its cylinder geometry."""

import functools
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftchaos import (
    EventuallyPeriodicSeq,
    FiniteWord,
    FlippedSeq,
    MetricParams,
    SplicedSeq,
    UniversalSeq,
    check_diameter_condition,
    check_separation,
    cylinder_diameter,
    distance,
    flip,
    future_cylinder,
    past_cylinder,
    periodic,
    periodic_point,
    set_distance,
    space_diameter,
    splice,
    two_sided_cylinder,
    whole_space,
    window_padded,
)
from shiftchaos.metric import (
    _MAX_TRUNCATION_DEPTH,
    DistanceBound,
    _clip_depth,
    _mismatches,
    _powers,
    agreement_bound,
    check_tolerance,
    orbit_distances,
    separation_holds_everywhere,
    weight,
    weight_above,
    weight_below,
)

from shiftchaos import sequences
from shiftchaos.sequences import _HEAD, _join

from conftest import _ref_enumeration, brute_distance, random_block, random_sequence

P = MetricParams(0.5)


def test_metric_params_validation():
    with pytest.raises(ValueError):
        MetricParams(0.0)
    with pytest.raises(ValueError):
        MetricParams(1.0)


def test_weights():
    assert weight(1, 0.5) == 0.5
    assert weight(0, 0.5) == 0.5
    assert weight(-1, 0.5) == 0.25
    assert weight_above(1, 0.5) == 1.0
    assert weight_below(0, 0.5) == 1.0
    assert space_diameter(P) == 2.0


def test_distance_to_self_is_exact_zero():
    for s in (periodic_point((1, 2)), UniversalSeq(2), window_padded((2,), 0, 1)):
        d = distance(s, s, P)
        assert d.value == 0.0 and d.error == 0.0


def test_distance_single_future_mismatch():
    s = window_padded((), 1, 1)
    t = window_padded((2,), 1, 1)
    d = distance(s, t, P)
    assert d.value == 0.5 and d.error == 0.0
    assert brute_distance(s, t, 0.5) == 0.5


def test_distance_mismatch_everywhere_sums_geometric_tails():
    s = periodic_point((1,))
    t = periodic_point((2,))
    d = distance(s, t, P)
    assert d.value == 2.0 and d.error == 0.0
    assert abs(brute_distance(s, t, 0.5, depth=64) - 2.0) < 1e-12


def test_distance_jointly_periodic_pair_is_exact():
    s = periodic_point((1, 2))
    t = periodic_point((1, 1, 2))
    d = distance(s, t, P)
    assert d.error == 0.0
    assert abs(d.value - brute_distance(s, t, 0.5, depth=80)) < 1e-15


def test_distance_with_universal_future_is_certified():
    s = UniversalSeq(2)
    t = periodic_point((2, 1))
    d = distance(s, t, P, tol=1e-12)
    assert 0 < d.error <= 1e-12
    assert abs(d.value - brute_distance(s, t, 0.5, depth=80)) <= d.error + 1e-13


def test_distance_requires_positive_tolerance():
    with pytest.raises(ValueError):
        distance(periodic_point((1,)), periodic_point((2,)), P, tol=0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_metric_axioms_on_random_triples(seed):
    rng = random.Random(seed)
    x, y, z = (random_sequence(rng, 2) for _ in range(3))
    dxy = distance(x, y, P)
    dyx = distance(y, x, P)
    assert dxy.value == dyx.value
    dxz = distance(x, z, P)
    dyz = distance(y, z, P)
    slack = dxy.error + dyz.error + dxz.error + 1e-12
    assert dxz.value <= dxy.value + dyz.value + slack


def test_metric_axioms_bulk_sample():
    rng = random.Random(1)
    for _ in range(1000):
        x, y = random_sequence(rng, 3), random_sequence(rng, 3)
        d = distance(x, y, P)
        assert d.value >= 0.0
        assert d.value == distance(y, x, P).value


def test_cylinder_diameter_whole_space():
    assert cylinder_diameter(whole_space(), P) == 2.0


def test_cylinder_diameter_window_closed_form_and_sampled_sup():
    c = two_sided_cylinder((1, 1, 1), -1)
    diam = cylinder_diameter(c, P)
    assert diam == 0.75
    rng = random.Random(7)
    sup = 0.0
    for _ in range(200):
        tails = [tuple(rng.randint(1, 2) for _ in range(20)) for _ in range(2)]
        members = [
            window_padded((1, 1, 1) + tail, -1, rng.randint(1, 2))
            for tail in tails
        ]
        d = distance(members[0], members[1], P)
        assert d.value <= diam + 1e-15
        sup = max(sup, d.value)
    assert sup < diam  # random pairs approach the sup from below
    # adversarial pair: identical window, mismatch at every free position
    adv = distance(
        window_padded((1, 1, 1), -1, 1),
        window_padded((1, 1, 1), -1, 2),
        P,
    )
    assert adv.value == diam


def test_cylinder_diameter_one_sided_windows():
    # future window [1, 2] frees the whole past (weight 1) plus positions > 2
    assert cylinder_diameter(future_cylinder((1, 2)), P) == 1.0 + 0.25
    # past window [-1, 0] frees the whole future plus positions < -1
    assert cylinder_diameter(past_cylinder((1, 2)), P) == 1.0 + 0.25


def test_diameter_condition_report():
    report = check_diameter_condition(P, 10)
    assert report["strictly_decreasing"] and report["matches_prediction"]
    last = report["rows"][-1]
    assert last["diameter"] == 2.0 ** -10 + 2.0 ** -11
    assert report["rows"][0]["diameter"] == 0.75
    values = [row["diameter"] for row in report["rows"]]
    assert values == sorted(values, reverse=True)


def test_diameter_condition_other_base():
    report = check_diameter_condition(MetricParams(0.25), 5)
    assert report["strictly_decreasing"] and report["matches_prediction"]
    expected = 0.25 ** 6 / 0.75 + 0.25 ** 7 / 0.75
    assert math.isclose(report["rows"][-1]["diameter"], expected, rel_tol=1e-12)


def test_set_distance_identical_cylinders():
    c = future_cylinder((1, 2, 1))
    assert set_distance(c, c, P) == 0.0


def test_set_distance_first_symbol_flip_with_sampling_oracle():
    c1, c2 = future_cylinder((1,)), future_cylinder((2,))
    assert set_distance(c1, c2, P) == 0.5
    rng = random.Random(3)
    best = math.inf
    for _ in range(10_000):
        tail1 = tuple(rng.randint(1, 2) for _ in range(12))
        tail2 = tuple(rng.randint(1, 2) for _ in range(12))
        s = window_padded((1,) + tail1, 1, 1)
        t = window_padded((2,) + tail2, 1, 1)
        d = distance(s, t, P)
        assert d.value >= 0.5 - 1e-15
        best = min(best, d.value)
    assert best == 0.5  # the infimum is attained by members agreeing elsewhere


def test_set_distance_disjoint_windows_share_members():
    assert set_distance(past_cylinder((2, 2)), future_cylinder((1, 1)), P) == 0.0


def test_separation_returns_weight_of_first_position():
    result = check_separation(2, P, 1)
    assert result["eps0"] == 0.5
    assert result["witness_words"] == [[1], [2]]
    assert set_distance(future_cylinder((1,)), future_cylinder((2,)), P) == 0.5
    assert result["witness_distance"] == 0.5


def test_separation_degree_three_exhaustive_oracle():
    result = check_separation(2, P, 3)
    assert result["eps0"] == 0.5
    from shiftchaos.cylinders import all_words
    from shiftchaos.metric import flip_first

    cyls = {w: future_cylinder(w) for w in all_words(2, 3)}
    for w, c in cyls.items():
        # every word has a partner at distance >= eps0 (exhaustive max)
        assert max(set_distance(c, other, P) for other in cyls.values()) >= result["eps0"]
        # the flip-first family achieves exactly eps0
        assert set_distance(c, cyls[flip_first(w, 2)], P) == result["eps0"]


def test_separation_other_alphabet_and_base():
    result = check_separation(3, MetricParams(0.25), 2)
    assert result["eps0"] == 0.25
    assert separation_holds_everywhere(3, MetricParams(0.25), 2, 0.25)


def test_separation_eps0_consistent_across_degrees():
    for n in (1, 2, 3, 5):
        result = check_separation(2, P, n)
        assert result["eps0"] == 0.5
        assert result["eps0"] <= space_diameter(P)


def test_stable_pair_converges_under_forward_shifts():
    s = window_padded((1,), 0, 1)
    t = window_padded((2,), 0, 1)  # differ only at position 0
    for n in range(0, 15):
        d = distance(s.shift(n), t.shift(n), P)
        assert d.value == 0.5 ** (n + 1) and d.error == 0.0
    assert distance(s.shift(11), t.shift(11), P).value < 1e-3


def test_unstable_pair_converges_under_backward_shifts():
    s = window_padded((1,), 1, 1)
    t = window_padded((2,), 1, 1)  # differ only at position 1
    for n in range(0, 15):
        d = distance(s.shift(-n), t.shift(-n), P)
        assert d.value == 0.5 ** (n + 1) and d.error == 0.0


def test_huge_shifts_fall_back_to_certified_truncation():
    u = SplicedSeq(periodic_point((1,)), UniversalSeq(2))
    d = distance(u.shift(10_000_000), u, P, tol=1e-9)
    assert d.error <= 1e-9
    assert 0.0 <= d.value <= 2.0


@pytest.mark.parametrize("r", [0.5, 0.3, 0.25, 1 / 3])
def test_a_side_is_exact_up_to_the_clip_depth_and_clipped_past_it(r):
    # explicit depths of twos plus the block of 1 fill the clip depth exactly,
    # or pass it by one; the clipped side drops only a weight 0.0
    p, ones, depth = MetricParams(r), periodic((1,)), _clip_depth(r)
    for at_clip, past_clip in [
        (window_padded((2,) * (depth - 1), 1), window_padded((2,) * depth, 1)),
        (window_padded((2,) * (depth - 1), 2 - depth), window_padded((2,) * depth, 1 - depth)),
    ]:
        exact, clipped = distance(at_clip, ones, p), distance(past_clip, ones, p)
        assert exact.error == 0.0 and exact.value > 0.0
        assert clipped == DistanceBound(exact.value, math.ulp(0.0))
    # a side with no finite description keeps its cut at check_tolerance
    k = check_tolerance(r, 1e-12)
    d = distance(splice(ones, UniversalSeq(2, 3)), ones, p)
    assert d.error == r ** (k + 1) / (1 - r) and k < depth


@pytest.mark.parametrize("r", [0.5, 0.25, 1 / 32, 0.3, 1 / 3, 0.45, 0.9, 0.99])
def test_the_clip_depth_drops_less_than_half_the_least_subnormal(r):
    # r**(L+1)/(1-r) < 2**-1075, but not at L - 3: the margin is at most two
    # depths.  With r = n/d, as integers: n**(L+1) * d * 2**1075 < d**(L+1) * (d - n)
    n, d = r.as_integer_ratio()
    depth = _clip_depth(r)
    assert n ** (depth + 1) * d << 1075 < d ** (depth + 1) * (d - n)
    assert n ** (depth - 2) * d << 1075 >= d ** (depth - 2) * (d - n)


ZERO_RS = (0.5, 0.25, 1 / 32, 0.3, 1 / 3, 0.9)


@pytest.mark.parametrize("r", ZERO_RS)
def test_zero_means_equal_at_every_depth(r):
    # lone and clustered mismatches with the ones sequence at depths around
    # the clip depth and far past it, ahead of the dot and behind it
    p, tol, ones, clip = MetricParams(r), 1e-12, window_padded(()), _clip_depth(r)
    x, half_tol = Fraction(r), tol / 2
    for depth in [*range(clip - 3, clip + 4), 1101, 1200, 19_999, 20_001]:
        for word in [(2,), (2, 2, 2), (2, 1, 2)]:
            depths = [depth + i for i, c in enumerate(word) if c == 2]
            exact = x ** depth * sum(x ** (i - depth) for i in depths)
            for future in (True, False):
                if future:  # positions depth.., agreeing up to depth - 1
                    t, lo, hi = window_padded(word, depth), -math.inf, depth - 1
                else:  # positions 1 - depth downwards, agreeing from 2 - depth on
                    t, lo, hi = window_padded(word, 2 - depth - len(word)), 2 - depth, 1 << 40
                d = distance(ones, t, p, tol)
                assert d != DistanceBound(0.0, 0.0), (depth, word, future)
                assert distance(t, t, p, tol) == DistanceBound(0.0, 0.0)
                if depth > clip:  # all past the clip: the error bounds the sum
                    assert d.value == 0.0 and exact <= Fraction(d.error) <= half_tol
                assert d.value + d.error <= agreement_bound(lo, hi, p, tol)


# ---------------------------------------------------------------------------
# The summation kernels against per-position loops.  Off the powers of two
# the loops add the same float terms in the same order as the float kernel;
# at r = 1/2 they add the exact weights as integer numerators, and the
# integer kernel must give the correctly rounded sum.  Either way the
# comparison is `==`, not a tolerance.
# ---------------------------------------------------------------------------


def weigh(explicit, block, period, r):
    """The weight of the mismatch depths: r**i over the explicit depths, then
    r**i / (1 - r**period) over the block depths, added one by one in the
    order given.  At r = 1/2 the sum is exact instead: each depth adds its
    numerator 2**(top - i) over the one denominator 2**top, and one
    `Fraction` is made at the end."""
    if r == 0.5:
        top = max(explicit + block, default=0)
        total = Fraction(sum(1 << (top - i) for i in explicit), 1 << top)
        if block:
            numerator = sum(1 << (top - i) for i in block) << period
            total += Fraction(numerator, ((1 << period) - 1) << top)
        return total
    total = 0.0
    for i in explicit:
        total += r ** i
    geo = 1.0 - r ** period
    for i in block:
        total += (r ** i) / geo
    return total


def loop_right_sum(s, t, r, tol):
    ts, tt = s.right_tail(), t.right_tail()
    if ts is not None and tt is not None:
        start = max(ts[0], tt[0], 1)
        period = math.lcm(ts[1], tt[1])
        if start - 1 + period <= _clip_depth(r):
            hi = start + period - 1
            sw, tw = s.window(1, hi), t.window(1, hi)
            explicit = [j for j in range(1, start) if sw[j - 1] != tw[j - 1]]
            block = [start + c for c in range(period) if sw[start + c - 1] != tw[start + c - 1]]
            return weigh(explicit, block, period, r), True
    k = check_tolerance(r, tol) if ts is None or tt is None else _clip_depth(r)
    sw, tw = s.window(1, k), t.window(1, k)
    return weigh([j for j in range(1, k + 1) if sw[j - 1] != tw[j - 1]], [], 0, r), False


def loop_left_sum(s, t, r, tol):
    ts, tt = s.left_tail(), t.left_tail()
    if ts is not None and tt is not None:
        start = min(ts[0], tt[0], 0)
        period = math.lcm(ts[1], tt[1])
        if -start + period <= _clip_depth(r):
            lo = start - period + 1
            sw, tw = s.window(lo, 0), t.window(lo, 0)
            explicit = [1 - j for j in range(start + 1, 1) if sw[j - lo] != tw[j - lo]]
            block = [1 - start + c for c in range(period) if sw[start - c - lo] != tw[start - c - lo]]
            return weigh(explicit, block, period, r), True
    k = check_tolerance(r, tol) if ts is None or tt is None else _clip_depth(r)
    lo = 1 - k
    sw, tw = s.window(lo, 0), t.window(lo, 0)
    return weigh([1 - j for j in range(lo, 1) if sw[j - lo] != tw[j - lo]], [], 0, r), False


def loop_distance(s, t, r, tol=1e-12):
    """The value and, per side, whether the exact path was taken.  At r = 1/2
    the value is float() of the exact sum."""
    if s == t:
        return 0.0, None
    vr, exact_r = loop_right_sum(s, t, r, tol)
    vl, exact_l = loop_left_sum(s, t, r, tol)
    return float(vr + vl), (exact_r, exact_l)


KERNEL_RS = (0.5, 0.3, 1 / 3)


def kernel_sequences():
    u = UniversalSeq(2, 5)
    period3 = periodic((1, 2, 2), 1)
    padded = window_padded((2, 1, 2), -3, 1)
    return [
        period3,
        periodic((2, 1, 1, 2, 1, 2, 2), -3),
        periodic((1,) * 149 + (2,), 4),  # lcm with 151 passes the clip depth
        periodic((2,) * 150 + (1,), -7),
        padded,
        window_padded((1, 1, 2, 2, 1), 4, 2),
        EventuallyPeriodicSeq(FiniteWord((1, 2)), FiniteWord((2, 2, 1)), -2, FiniteWord((2, 1, 1))),
        EventuallyPeriodicSeq(FiniteWord((2,)), FiniteWord((1, 2) * 40), -60, FiniteWord((1, 2, 2, 2))),
        u,
        u.shift(-40),
        u.shift(300),
        UniversalSeq(2, 0, 30000),  # left span past the clip depth: clipped past
        SplicedSeq(periodic((2, 1)), padded, 0),
        SplicedSeq(period3, u, 0).shift(17),
        SplicedSeq(u.shift(25000), period3, 0),
        FlippedSeq(padded, 2),
        FlippedSeq(u.shift(3), 2),
        FlippedSeq(SplicedSeq(period3, u.shift(9), 0), 2),
    ]


@pytest.mark.parametrize("r", KERNEL_RS)
def test_kernel_matches_per_position_loops_on_every_kind(r):
    p = MetricParams(r)
    seqs = kernel_sequences()
    paths = set()
    for s in seqs:
        for t in seqs:
            for a, b in ((s, t), (s.shift(5), t), (s, t.shift(-11))):
                expected, path = loop_distance(a, b, r)
                assert distance(a, b, p).value == expected
                paths.add(path)
    # every combination of exact and truncated sides was exercised
    assert {(True, True), (True, False), (False, True), (False, False)} <= paths


@pytest.mark.parametrize("r", KERNEL_RS)
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_kernel_matches_per_position_loops_along_an_orbit(r, seed):
    p = MetricParams(r)
    u = UniversalSeq(2, seed)
    step = 1 if r == 0.5 else 7
    for n in range(0, 1501, step):
        assert distance(u.shift(n), u, p).value == loop_distance(u.shift(n), u, r)[0]


@pytest.mark.parametrize("r", KERNEL_RS + (0.9, 1e-3))
def test_power_table_entries_are_plain_powers(r):
    table = _powers(r, 2500)
    assert len(table) >= 2501
    assert all(x == r ** j for j, x in enumerate(table))
    assert _powers(r, 10) is table  # one table per weight base, grown in place


# ---------------------------------------------------------------------------
# The truncation depth against the per-unit loop it replaced.
# ---------------------------------------------------------------------------


def loop_truncation_depth(r, half_tol):
    k = 1
    tail = r * r / (1 - r)
    while tail > half_tol:
        k += 1
        tail *= r
    return k


def is_truncation_depth(r, half_tol, k):
    """k is the smallest depth whose reported error r**(k+1)/(1-r) fits."""
    return r ** (k + 1) / (1 - r) <= half_tol and (k == 1 or r ** k / (1 - r) > half_tol)


def agrees_with_the_loop(r, half_tol, k):
    """The closed form equals the loop, except at a rounding tie: there the
    loop's running product and r**(k+1)/(1-r) fall on either side of
    half_tol, and the two depths differ by one, the loop's being the one
    that does not meet the error the sums report."""
    old = loop_truncation_depth(r, half_tol)
    return k == old or (abs(k - old) == 1 and not is_truncation_depth(r, half_tol, old))


@pytest.mark.parametrize("r", [0.5, 0.3, 1 / 3, 0.9, 0.99])
@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-6])
def test_truncation_depth_matches_the_loop(r, tol):
    k = check_tolerance(r, tol)
    assert k == loop_truncation_depth(r, tol / 2)
    assert is_truncation_depth(r, tol / 2, k)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.001, 0.999), exponent=st.floats(-15.0, -1.0))
def test_truncation_depth_agrees_with_the_loop_over_a_log_range(r, exponent):
    half_tol = 10.0 ** exponent
    k = check_tolerance(r, 2 * half_tol)
    assert is_truncation_depth(r, half_tol, k)
    assert agrees_with_the_loop(r, half_tol, k)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.01, 0.999), depth=st.integers(1, 3000), ulps=st.integers(-3, 3))
def test_truncation_depth_at_rounding_ties(r, depth, ulps):
    # half_tol within a few units of the last place of a reported error,
    # where the loop's running product may round to the other side (below
    # the normal floats the product loses bits and may stray further)
    half_tol = r ** (depth + 1) / (1 - r)
    for _ in range(abs(ulps)):
        half_tol = math.nextafter(half_tol, math.inf if ulps > 0 else 0.0)
    assume(half_tol >= sys.float_info.min)
    k = check_tolerance(r, 2 * half_tol)
    assert is_truncation_depth(r, half_tol, k)
    assert agrees_with_the_loop(r, half_tol, k)


def test_truncation_depth_is_one_for_loose_tolerances():
    assert check_tolerance(0.5, 20.0) == 1
    assert check_tolerance(0.5, math.inf) == 1


@pytest.mark.parametrize(
    "r, half_tol", [(1 - 1e-6, 5e-13), (1 - 1e-15, 5e-13), (0.5, 0.0), (0.5, math.nan)]
)
def test_truncation_depth_refuses_past_its_cap(r, half_tol):
    for _ in range(2):  # the depth cache keeps no refusal
        with pytest.raises(ValueError):
            check_tolerance(r, 2 * half_tol)


def test_truncation_depth_reaches_its_cap():
    r = 1 - 1e-5
    at_cap = r ** (_MAX_TRUNCATION_DEPTH + 1) / (1 - r)
    assert check_tolerance(r, 2 * at_cap) == _MAX_TRUNCATION_DEPTH
    with pytest.raises(ValueError):
        check_tolerance(r, 2 * math.nextafter(at_cap, 0.0))  # one more would fit


# ---------------------------------------------------------------------------
# The orbit sweep against `distance`, row by row, value and error with `==`.
# ---------------------------------------------------------------------------


SWEEP_RS = (0.5, 0.25, 0.3, 1 / 3, 0.9, 2.0 ** -5, 2.0 ** -6)


def sweep_starts():
    padded = window_padded((2, 1, 2), -3, 1)
    return [
        UniversalSeq(2, 0),
        UniversalSeq(2, 2 ** 63),
        UniversalSeq(3, 0),
        UniversalSeq(3, 2 ** 63),
        UniversalSeq(2, 5).shift(-40),
        padded,
        window_padded((2, 2), 4, 1),  # window right of 0
        window_padded((), 1, 2),  # empty window
        periodic_point((1,)),
        periodic((1, 2, 2), 1),  # period 3: per-row fallback
        SplicedSeq(periodic((2,)), UniversalSeq(2, 3), 0),
        SplicedSeq(periodic((2,)), padded, 0).shift(2),
        FlippedSeq(padded, 2),
        FlippedSeq(UniversalSeq(2, 1).shift(3), 2),
        SplicedSeq(periodic((300,)), padded, 0),  # a past symbol above 255, byte sources
        window_padded((300,)),  # byte past, tuple sources (empty at 0 steps)
        SplicedSeq(periodic((300,)), UniversalSeq(300, 1), 0).shift(-5),
    ]


def per_row(s, p, steps, tol=1e-12):
    return [distance(s.shift(n), s, p, tol) for n in range(steps + 1)]


@pytest.mark.parametrize("r", SWEEP_RS)
def test_orbit_sweep_matches_distance_on_every_start(r):
    p = MetricParams(r)
    for s in sweep_starts():
        for steps in (0, 1, 300):
            assert list(orbit_distances(s, p, steps)) == per_row(s, p, steps), (s, steps)


@pytest.mark.parametrize("r", [0.5, 0.25])
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_orbit_sweep_matches_distance_into_the_subnormal_weights(r, seed):
    # past row 1074 (r = 1/2) or 537 (r = 1/4) the deepest weights are 0.0
    p = MetricParams(r)
    u = UniversalSeq(2, seed)
    assert list(orbit_distances(u, p, 1500)) == per_row(u, p, 1500)


@pytest.mark.parametrize(
    "s",
    [
        # deep windows, whose mismatches weigh subnormal floats or less in
        # the rows from 2100 on
        window_padded((2, 2, 2), 1058, 1),
        FlippedSeq(window_padded((2, 2, 1, 2), 1044, 1), 2),
        SplicedSeq(periodic_point((1,)), window_padded((1, 2, 2, 2, 1), 1041, 1), 0),
        SplicedSeq(periodic_point((2,)), window_padded((1, 2, 1, 1), 1059, 2), 0),
    ],
)
def test_orbit_sweep_matches_distance_on_subnormal_windows(s):
    p = MetricParams(0.5)
    rows = list(orbit_distances(s, p, 2140))
    assert rows[2100:] == [distance(s.shift(n), s, p) for n in range(2100, 2141)]


@pytest.mark.parametrize("r", [0.5, 0.25, 0.125])
@pytest.mark.parametrize("b", [-1, -40])
def test_orbit_sweep_equals_distance_past_row_1075_plus_b(r, b):
    # the past is constant from b on; from row 1075 + b the deepest weight
    # r**(n - b) of a row is below every float at r = 1/2
    p = MetricParams(r)
    u = UniversalSeq(2, 7, -1 - b)
    assert u.left_tail() == (b, 1)
    first = 1075 + b
    assert list(orbit_distances(u, p, first + 40))[first - 40 :] == [
        distance(u.shift(n), u, p) for n in range(first - 40, first + 41)
    ]


def test_orbit_sweep_checks_its_arguments():
    u = UniversalSeq(2, 0)
    with pytest.raises(ValueError):
        orbit_distances(u, P, 10, tol=0.0)
    assert list(orbit_distances(u, P, 0)) == [distance(u, u, P)]
    deep = window_padded((2,), -10 ** 9, 1)  # past far beyond the clip depth
    assert list(orbit_distances(deep, P, 5)) == per_row(deep, P, 5)


@pytest.mark.parametrize("r", [0.5, 0.25, 0.125, 2.0 ** -5])
def test_the_dyadic_sweeps_call_distance_for_no_row(monkeypatch, r):
    # rows on both sides of the clip depth, computed first by `distance`
    p, depth = MetricParams(r), _clip_depth(r)
    steps = depth + 100
    starts = [
        UniversalSeq(2, 7),
        UniversalSeq(2, 5).shift(-40),  # constant past from 39 on
        window_padded((2, 2, 1, 2), 3 - depth, 1),
        window_padded((2,), -10 ** 9, 1),
        SplicedSeq(periodic((300,)), UniversalSeq(300, 1), 0),
    ]
    orbits = [(s, per_row(s, p, steps)) for s in starts]

    def no_row(*args, **kwargs):
        raise AssertionError("a sweep called distance")

    monkeypatch.setattr("shiftchaos.metric.distance", no_row)
    for s, rows in orbits:
        assert list(orbit_distances(s, p, steps)) == rows, s


# ---------------------------------------------------------------------------
# The span kernel against a position-by-position reference.  Each sequence
# comes with its description, and `_ref_symbol` reads its symbols from that
# description alone: the blocks as given (drawn with conftest's
# `random_block`), and the enumeration of `_ref_enumeration`.
# ---------------------------------------------------------------------------

_REF_PREFIX = 1000  # enumeration symbols the random descriptions can reach
DYADIC_RS = (0.5, 0.25, 0.125, 2.0 ** -5)  # the weight bases of the integer kernel


@functools.lru_cache(maxsize=None)
def _ref_prefix(m, seed, count=_REF_PREFIX):
    return _ref_enumeration(m, seed, count)


def _ref_symbol(desc, j):
    kind = desc[0]
    if kind == "eventually_periodic":
        _, left, center, start, right = desc
        if j < start:
            return left[(j - start) % len(left)]
        if j < start + len(center):
            return center[j - start]
        return right[(j - start - len(center)) % len(right)]
    if kind == "universal":
        _, m, seed, offset, count = desc
        return 1 if j + offset < 0 else _ref_prefix(m, seed, count)[j + offset]
    if kind == "spliced":
        _, past, future, offset = desc
        return _ref_symbol(past if j + offset <= 0 else future, j + offset)
    if kind == "flipped":
        _, base, m = desc
        return _ref_symbol(base, j) % m + 1
    _, base, steps = desc  # shifted
    return _ref_symbol(base, j + steps)


def _ref_depth(r, tol):
    """The smallest k >= 1 whose dropped tail r**(k+1)/(1-r) is <= tol/2."""
    k = 1
    while r ** (k + 1) / (1 - r) > tol / 2:
        k += 1
    return k


def _ref_side(sd, td, r, tol, tails, future):
    """One side of the distance, position by position in the documented
    order: the explicit positions in increasing j, then the periodic block
    (upwards on the future side, from its start downwards on the past side).
    `tails` are the sequences' own tail descriptors, which pick the path:
    exact, clipped at the clip depth, or truncated.  A `Fraction` r gives the
    exact sum, and the error as a float.  Also whether a summed position
    differs."""
    weight = (lambda j: r ** j) if future else (lambda j: r ** (1 - j))
    exact = None not in tails
    if exact:
        period = math.lcm(tails[0][1], tails[1][1])
        if future:
            start = max(tails[0][0], tails[1][0], 1)
            explicit, block = range(1, start), range(start, start + period)
        else:
            start = min(tails[0][0], tails[1][0], 0)
            explicit, block = range(start + 1, 1), range(start, start - period, -1)
        exact = len(explicit) + period <= _clip_depth(float(r))
    if exact:
        geo = 1 - r ** period
        terms = [(j, weight(j)) for j in explicit] + [(j, weight(j) / geo) for j in block]
        error = 0.0
    else:
        k = _ref_depth(float(r), tol) if None in tails else _clip_depth(float(r))
        terms = [(j, weight(j)) for j in (range(1, k + 1) if future else range(1 - k, 1))]
        error = max(float(r) ** (k + 1) / (1 - float(r)), math.ulp(0.0))
    total, differ = 0 * r, False
    for j, w in terms:
        if _ref_symbol(sd, j) != _ref_symbol(td, j):
            total, differ = total + w, True
    return total, error, differ


def _ref_distance(s, sd, t, td, r, tol):
    """Left to right in floats, except at r = 2**-q: there float() of the
    exact `Fraction` sum, which the integer kernel rounds correctly."""
    if s == t:
        return 0.0, 0.0
    x = Fraction(r) if r in DYADIC_RS else r
    vr, er, dr = _ref_side(sd, td, x, tol, (s.right_tail(), t.right_tail()), True)
    vl, el, dl = _ref_side(sd, td, x, tol, (s.left_tail(), t.left_tail()), False)
    value, error = float(vr + vl), er + el
    if (dr or dl) and not (value or error):  # a nonzero sum that rounds to 0.0
        error = math.ulp(0.0)
    return value, error


def _assert_reads_like_reference(s, desc, lo, hi):
    expected = tuple(_ref_symbol(desc, j) for j in range(lo, hi + 1))
    span = s.span(lo, hi)
    assert type(span) in (bytes, tuple) and tuple(span) == expected
    assert s.window(lo, hi) == expected
    assert [s.symbol_at(j) for j in (lo, hi)] == [expected[0], expected[-1]]


# Far draws put centers and universal pasts past depth 1030, where the
# weights at r = 1/2 are subnormal or round to 0.0, on both sides of the
# clip depth 1077; a universal offset past it clips the past at every r.
_FAR_OFFSET = _clip_depth(0.5) + 300
_FAR_PREFIX = _FAR_OFFSET + 300


@st.composite
def described_sequences(draw, m, depth=0, far=False):
    """(sequence, description) of any kind over {1..m}, built through the
    package's constructors; splices and flips of eventually periodic inputs
    come out flat, others as SplicedSeq and FlippedSeq."""
    kinds = ["eventually_periodic", "universal"] + ["spliced", "flipped", "shifted"] * (depth < 2)
    kind = draw(st.sampled_from(kinds))
    if kind == "eventually_periodic":
        rng = draw(st.randoms(use_true_random=False))
        left, right = random_block(rng, m), random_block(rng, m)
        center = random_block(rng, m, 6)[: rng.randint(0, 6)]
        starts = st.integers(-8, 8)
        if far:
            starts |= st.integers(-1300, -1030) | st.integers(1030, 1300)
        start = draw(starts)
        seq = EventuallyPeriodicSeq(left, center, start, right)
        return seq, (kind, left, center, start, right)
    if kind == "universal":
        offsets = st.integers(-40, 200)
        if far:
            offsets |= st.integers(1030, 1300) | st.just(_FAR_OFFSET)
        seed, offset = draw(st.integers(0, 3)), draw(offsets)
        count = _FAR_PREFIX if far else _REF_PREFIX
        return UniversalSeq(m, seed, offset), (kind, m, seed, offset, count)
    base, base_desc = draw(described_sequences(m, depth + 1, far))
    if kind == "spliced":
        future, future_desc = draw(described_sequences(m, depth + 1, far))
        offset = draw(st.integers(-10, 10))
        glue = draw(st.sampled_from([splice, SplicedSeq]))
        return glue(base, future, offset), (kind, base_desc, future_desc, offset)
    if kind == "flipped":
        return flip(base, m), (kind, base_desc, m)
    steps = draw(st.integers(-30, 60))
    return base.shift(steps), (kind, base_desc, steps)


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_equal_sequences_read_zero_when_one_span_is_a_tuple(r):
    # over 256 symbols a universal past reads its padding as a tuple of ones,
    # which equals the bytes of the constant sequence it is spliced to
    ones = periodic_point((1,))
    spliced = SplicedSeq(UniversalSeq(256), ones)
    assert distance(ones, spliced, MetricParams(r)) == DistanceBound(0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 256, 300]), r=st.sampled_from([0.5, 0.3]),
       tol=st.sampled_from([1e-12, 1e-4]))
def test_distance_equals_the_reference_sum_bit_for_bit(data, m, r, tol):
    s, sd = data.draw(described_sequences(m))
    if data.draw(st.booleans()):
        steps = data.draw(st.integers(-40, 60))
        t, td = s.shift(steps), ("shifted", sd, steps)
    else:
        t, td = data.draw(described_sequences(m))
    lo = data.draw(st.integers(-60, 60))
    _assert_reads_like_reference(s, sd, lo, lo + data.draw(st.integers(0, 60)))
    value, error = _ref_distance(s, sd, t, td, r, tol)
    d = distance(s, t, MetricParams(r), tol)
    assert (d.value.hex(), d.error.hex()) == (value.hex(), error.hex())


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 300]), r=st.sampled_from(DYADIC_RS),
       tol=st.sampled_from([1e-12, 1e-4]))
def test_dyadic_distance_is_the_correctly_rounded_exact_sum(data, m, r, tol):
    s, sd = data.draw(described_sequences(m, far=True))
    if data.draw(st.booleans()):
        steps = data.draw(st.integers(-40, 60))
        t, td = s.shift(steps), ("shifted", sd, steps)
    else:
        t, td = data.draw(described_sequences(m, far=True))
    value, error = _ref_distance(s, sd, t, td, r, tol)
    d = distance(s, t, MetricParams(r), tol)
    assert (d.value.hex(), d.error.hex()) == (value.hex(), error.hex())


@pytest.mark.parametrize("r", DYADIC_RS)
@pytest.mark.parametrize("position", [1041, 1101, -1040, -1100])
def test_a_single_deep_mismatch_rounds_correctly(r, position):
    # one mismatch at depth 1041, whose weight is subnormal at r = 1/2, or at
    # depth 1101, whose weight rounds to 0.0
    ones, deep = window_padded(()), window_padded((2,), position)
    od = ("eventually_periodic", (1,), (), 1, (1,))
    dd = ("eventually_periodic", (1,), (2,), position, (1,))
    exact = Fraction(r) ** (position if position > 0 else 1 - position)
    d = distance(ones, deep, MetricParams(r))
    assert d.value == float(exact)
    if d.value == exact:  # the rounding of an inexact value is not in `error`
        assert d.error == 0.0
    # the same pair beside a cut side: a universal future, or a past beyond
    # the clip depth
    far, fd = UniversalSeq(2, 1, _FAR_OFFSET), ("universal", 2, 1, _FAR_OFFSET, _FAR_PREFIX)
    cases = [
        (splice(ones, far), ("spliced", od, fd, 0), splice(deep, far), ("spliced", dd, fd, 0)),
        (splice(far, ones), ("spliced", fd, od, 0), splice(far, deep), ("spliced", fd, dd, 0)),
    ]
    for a, ad, b, bd in cases:
        value, error = _ref_distance(a, ad, b, bd, r, 1e-12)
        d = distance(a, b, MetricParams(r))
        assert error > 0 and (d.value.hex(), d.error.hex()) == (value.hex(), error.hex())


@pytest.mark.parametrize("r", [0.5, 0.3])
@pytest.mark.parametrize("steps", [0, 5, 150])
def test_a_small_symbol_past_before_a_wide_future_reads_as_a_tuple(r, steps):
    # the past fits in bytes and the future (m = 300) does not
    past = EventuallyPeriodicSeq((1, 2), (2, 2, 1), -4, (2,))
    s = splice(past, UniversalSeq(300, 1, 280), 0).shift(steps)
    sd = ("shifted", ("spliced", ("eventually_periodic", (1, 2), (2, 2, 1), -4, (2,)),
                      ("universal", 300, 1, 280, _REF_PREFIX), 0), steps)
    assert type(s.span(-5, 5)) is tuple and type(s.span(-20 - steps, -steps)) is bytes
    _assert_reads_like_reference(s, sd, -20, 30)
    t, td = window_padded((1, 2, 1), -3), ("eventually_periodic", (1,), (1, 2, 1), -3, (1,))
    for a, ad, b, bd in [(s, sd, t, td), (t, td, s, sd), (s, sd, s.shift(3), ("shifted", sd, 3))]:
        value, error = _ref_distance(a, ad, b, bd, r, 1e-12)
        d = distance(a, b, MetricParams(r))
        assert (d.value.hex(), d.error.hex()) == (value.hex(), error.hex())


@pytest.mark.parametrize("m", [2, 300])
@pytest.mark.parametrize("r", [0.5, 0.3])
def test_a_past_beyond_the_clip_depth_is_clipped_like_the_reference(m, r):
    offset = _clip_depth(r) + 50
    u, ud = UniversalSeq(m, 2, offset), ("universal", m, 2, offset, offset + 150)
    for t, td in [(u.shift(7), ("shifted", ud, 7)), (flip(u, m), ("flipped", ud, m))]:
        value, error = _ref_distance(u, ud, t, td, r, 1e-12)
        d = distance(u, t, MetricParams(r))
        assert error > 0 and (d.value.hex(), d.error.hex()) == (value.hex(), error.hex())


# ---------------------------------------------------------------------------
# One window per sequence: `distance` reads each sequence once, across the
# dot, and the orbit sweep reads its start a fixed number of times however
# many rows it builds.
# ---------------------------------------------------------------------------


_MIXED_AT_THE_DOT = [  # a byte past joined to a tuple future
    splice(periodic((1, 2)), UniversalSeq(300, 1)),
    SplicedSeq(window_padded((2, 1, 2), -3), UniversalSeq(300, 2, 40), 0),
    EventuallyPeriodicSeq((1, 2), (2,), 0, (300, 1)),
    SplicedSeq(UniversalSeq(2, 1, -7), UniversalSeq(300, 1, _HEAD - 4), 0),
]
_DOT_EDGES = _MIXED_AT_THE_DOT + [
    UniversalSeq(2, 5, _HEAD - 10),  # windows that straddle the cached head
    UniversalSeq(3, 1, _HEAD + 3),
    FlippedSeq(UniversalSeq(2, 0, _HEAD), 2),
    UniversalSeq(2, 3, -5),  # the 1-padding before position 0
    UniversalSeq(300, 1, -3),
]


def _assert_window_is_its_halves(s, lo, hi):
    window, halves = s.span(lo, hi), _join(s.span(lo, 0), s.span(1, hi))
    assert type(window) is type(halves) and window == halves, (s, lo, hi)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 256, 300]), lo=st.integers(-1400, 0),
       hi=st.integers(1, 1400))
def test_a_window_across_the_dot_is_its_two_halves(data, m, lo, hi):
    s, _ = data.draw(described_sequences(m, far=True))
    _assert_window_is_its_halves(s, lo, hi)


@pytest.mark.parametrize("s", _DOT_EDGES)
def test_a_window_across_the_dot_is_its_two_halves_at_the_edges(s):
    for lo in (-40, -12, -3, -1, 0):
        for hi in (1, 2, 4, 11, 15, 40):
            _assert_window_is_its_halves(s, lo, hi)
    if s in _MIXED_AT_THE_DOT:
        assert type(s.span(-3, 0)) is bytes and type(s.span(1, 3)) is tuple


@pytest.fixture
def top_level_reads(monkeypatch):
    """The sequences whose `span` is called from outside every other span
    call, in call order (a splice's or flip's own reads are not listed)."""
    reads, depth = [], [0]

    def wrap(kind):
        span = kind.span

        def counted(self, lo, hi):
            if not depth[0]:
                reads.append(self)
            depth[0] += 1
            try:
                return span(self, lo, hi)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(kind, "span", counted)

    for kind in (EventuallyPeriodicSeq, UniversalSeq, SplicedSeq, FlippedSeq):
        wrap(kind)
    return reads


@pytest.mark.parametrize("r", [0.5, 0.3])
def test_distance_reads_each_sequence_once(top_level_reads, r):
    seqs = kernel_sequences() + [
        UniversalSeq(300, 1),
        UniversalSeq(300, 2, -20),
        window_padded((300, 2, 1), -2),
        periodic((1, 300), 3),
        splice(periodic((1, 2)), UniversalSeq(300, 1)),
        FlippedSeq(UniversalSeq(300, 2, 7), 300),
    ]
    p = MetricParams(r)
    for s in seqs:
        for t in seqs:
            if s != t:
                top_level_reads.clear()
                distance(s, t, p)
                assert len(top_level_reads) == 2, (s, t)
                assert top_level_reads[0] is s and top_level_reads[1] is t


def test_the_orbit_sweep_reads_its_start_twice(top_level_reads):
    # `symbol_at` for the constant past, then one span for every row; a
    # constant start, whose rows are all zero, reads nothing
    constant = 0
    for s in sweep_starts():
        if s.left_tail()[1] == 1:
            top_level_reads.clear()
            orbit_distances(s, P, 300)
            if s.shift(1) == s:
                constant += 1
                assert top_level_reads == [], s
            else:
                assert len(top_level_reads) == 2 and all(x is s for x in top_level_reads), s
    assert constant == 2  # periodic_point((1,)) and window_padded((), 1, 2)


def test_the_orbit_sweep_builds_the_enumeration_once_past_the_head(monkeypatch):
    u, steps, calls = UniversalSeq(2, 7), 70_000, []
    build = sequences._enumeration

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sequences, "_enumeration", counted)
    rows = list(orbit_distances(u, P, steps))
    assert len(calls) <= 2  # the cached head, if no earlier test built it, and the span
    for n in (_HEAD - 45, _HEAD - 1, _HEAD, _HEAD + 100, steps):
        assert rows[n] == distance(u.shift(n), u, P), n


def test_the_orbit_sweep_yields_its_rows_in_fixed_memory():
    # a list of the 2**15 + 1 rows would hold 3.5 MiB
    u, steps = UniversalSeq(2, 7), 1 << 15
    sequences.enumeration_prefix(2, 7, _HEAD)  # the head every universal orbit reads
    tracemalloc.start()
    try:
        count = sum(1 for _ in orbit_distances(u, P, steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == steps + 1
    assert peak < 1 << 20


def test_mismatches_mark_exactly_the_differing_symbols():
    rng = random.Random(40)
    for length in range(41):
        for _ in range(10):
            sw, tw = (bytes(rng.randint(1, 3) for _ in range(length)) for _ in range(2))
            for a, b in ((sw, tw), (tuple(sw), tuple(tw))):
                got = _mismatches(a, b)
                assert len(got) == length
                assert list(map(bool, got)) == list(map(bool, bytes(map(operator.ne, a, b))))
