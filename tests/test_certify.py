"""Witness construction and self-verification of the chaos certificates."""

import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftchaos import (
    Alphabet,
    MetricParams,
    UniversalSeq,
    UnstableSetId,
    check_diameter_condition,
    check_separation,
    future_cylinder,
    li_yorke_pair,
    member_with_future,
    periodic,
    periodic_density_witness,
    periodic_point,
    poisson_recurrence_witness,
    sensitivity_witness,
    sequence_from_payload,
    splice,
    stable_set_convergence,
    transitivity_witness,
    two_sided_cylinder,
    universal_member,
    unstable_set_convergence,
    verify_certificate,
    whole_space,
    window_padded,
)
from shiftchaos.certify import (
    MAX_STEPS,
    MAX_WINDOW,
    _certificate,
    _li_yorke_block,
    _scrambled_pair,
    check_horizon,
    check_return_digits,
    check_witness_room,
    diameter_payload,
    li_yorke_payload,
    poisson_recurrence_payload,
    random_two_sided_target,
    random_unstable_set,
    separation_payload,
)
from shiftchaos.metric import separation_holds_everywhere, set_distance
from shiftchaos.sequences import _HEAD, enumeration_prefix

from conftest import _ref_enumeration, brute_distance, scan_for_block

A2 = Alphabet(2)
P = MetricParams(0.5)


def ones_past():
    return UnstableSetId(A2, periodic((1,), 0))


def test_unstable_set_rejects_universal_past():
    from shiftchaos import UniversalSeq

    with pytest.raises(TypeError):
        UnstableSetId(A2, UniversalSeq(2))


def test_members_share_the_past():
    u_set = UnstableSetId(A2, periodic((1, 2), 0))
    member = universal_member(u_set)
    assert member.window(-6, 0) == u_set.past.window(-6, 0)


# -- the file form of a certificate -----------------------------------------

BUILDERS = {
    "transitivity_witness": lambda: transitivity_witness(
        ones_past(), two_sided_cylinder((2, 1, 2), -1)),
    "periodic_density_witness": lambda: periodic_density_witness(
        universal_member(ones_past()), 1e-2, P),
    "sensitivity_witness": lambda: sensitivity_witness(
        universal_member(ones_past()), 0.25, A2, P),
    "poisson_recurrence_witness": lambda: poisson_recurrence_witness(ones_past(), 4, P),
    "li_yorke_pair": lambda: li_yorke_pair(ones_past(), 100, P),
    "stable_set_convergence": lambda: stable_set_convergence(
        window_padded((1,), 0, 1), window_padded((2,), 0, 1), 20, P),
    "unstable_set_convergence": lambda: unstable_set_convergence(
        member_with_future(ones_past(), window_padded((1, 2), 1, 1)),
        member_with_future(ones_past(), window_padded((2, 1), 1, 1)), 20, P),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_builder_returns_the_file_object(builder):
    cert = BUILDERS[builder]()
    assert sorted(cert) == ["data", "kind", "schema"]
    assert json.loads(json.dumps(cert)) == cert
    assert verify_certificate(cert).ok


# Each builder given a bad delta, eps or tolerance, by (builder, key).
BAD_INPUTS = {
    ("periodic_density_witness", "delta"): lambda v: periodic_density_witness(
        window_padded((1, 2, 1)), v, P),
    ("periodic_density_witness", "tolerance"): lambda v: periodic_density_witness(
        window_padded((1, 2, 1)), 1e-2, P, v),
    ("sensitivity_witness", "eps"): lambda v: sensitivity_witness(
        window_padded((1, 2, 1)), v, A2, P),
    ("sensitivity_witness", "tolerance"): lambda v: sensitivity_witness(
        window_padded((1, 2, 1)), 0.25, A2, P, v),
    ("poisson_recurrence_witness", "tolerance"): lambda v: poisson_recurrence_witness(
        ones_past(), 4, P, tol=v),
    ("li_yorke_pair", "tolerance"): lambda v: li_yorke_pair(ones_past(), 100, P, v),
    ("stable_set_convergence", "tolerance"): lambda v: stable_set_convergence(
        window_padded((1,), 0, 1), window_padded((2,), 0, 1), 20, P, v),
    ("unstable_set_convergence", "tolerance"): lambda v: unstable_set_convergence(
        member_with_future(ones_past(), window_padded((1, 2), 1, 1)),
        member_with_future(ones_past(), window_padded((2, 1), 1, 1)), 20, P, v),
}


@pytest.mark.parametrize("value", [1, -0.5, math.nan], ids=["int", "negative", "nan"])
@pytest.mark.parametrize("builder, key", sorted(BAD_INPUTS))
def test_builder_refuses_what_its_verifier_refuses(builder, key, value):
    # a builder returns no certificate that its own verifier calls malformed
    message = f"{key} must be a finite positive float, got {value!r}"
    with pytest.raises(ValueError) as refused:
        BAD_INPUTS[builder, key](value)
    assert str(refused.value) == message
    cert = BUILDERS[builder]()
    cert["data"][key] = value
    assert verify_certificate(cert).failures == (f"malformed certificate: {message}",)


# -- transitivity -----------------------------------------------------------


def test_transitivity_whole_space_needs_no_shift():
    cert = transitivity_witness(ones_past(), whole_space())
    assert cert["data"]["shift_count"] == 0
    assert verify_certificate(cert).ok


def test_transitivity_concrete_target_scan_oracle():
    u_set = ones_past()
    target = two_sided_cylinder((1, 2, 1), -1)
    cert = transitivity_witness(u_set, target)
    p = cert["data"]["shift_count"]
    member = universal_member(u_set)
    assert member.shift(p).window(-1, 1) == (1, 2, 1)
    # oracle: scanning the materialized future also finds the word at p - 1
    prefix = list(_ref_enumeration(2, 0, 64))
    occurrence = scan_for_block(prefix, (1, 2, 1))
    assert occurrence is not None and member.window(p - 1, p + 1) == (1, 2, 1)
    assert verify_certificate(cert).ok


def test_transitivity_all_sixteen_targets():
    u_set = UnstableSetId(A2, window_padded((2, 1), -1, 1))
    for num in range(16):
        word = tuple((num >> i) % 2 + 1 for i in range(4))
        target = two_sided_cylinder(word, -1)  # window [-1, 2]
        cert = transitivity_witness(u_set, target)
        p = cert["data"]["shift_count"]
        assert universal_member(u_set).shift(p).window(-1, 2) == word
        assert verify_certificate(cert).ok


def test_transitivity_rejects_future_cylinder_targets():
    from shiftchaos import future_cylinder

    with pytest.raises(ValueError):
        transitivity_witness(ones_past(), future_cylinder((1,)))


# -- periodic density -------------------------------------------------------


def test_density_witness_of_periodic_point_is_the_point():
    s = periodic_point((1,))
    cert = periodic_density_witness(s, 0.5, P)
    assert cert["data"]["distance_value"] == 0.0
    assert verify_certificate(cert).ok


def test_density_depth_for_small_delta():
    member = universal_member(ones_past())
    cert = periodic_density_witness(member, 1e-3, P)
    assert cert["data"]["k"] == 11  # 2**-11 + 2**-12 < 1e-3, and 10 is too shallow
    assert cert["data"]["distance_value"] + cert["data"]["distance_error"] < 1e-3
    witness = sequence_from_payload(cert["data"]["witness"])
    assert witness.period == 23
    assert brute_distance(member, witness, 0.5) < 1e-3
    assert verify_certificate(cert).ok


def test_density_universal_member_delta_tenth():
    member = universal_member(ones_past())
    cert = periodic_density_witness(member, 0.1, P)
    assert cert["data"]["k"] == 4
    assert cert["data"]["distance_value"] < 0.1
    assert not cert["data"]["degenerate"]
    assert verify_certificate(cert).ok


def test_density_degenerate_flag_for_huge_delta():
    cert = periodic_density_witness(periodic_point((1, 2)), 3.0, P)
    assert cert["data"]["degenerate"]
    assert verify_certificate(cert).ok


# -- sensitivity ------------------------------------------------------------


def test_sensitivity_quarter_eps():
    member = universal_member(ones_past())
    cert = sensitivity_witness(member, 0.25, A2, P)
    assert cert["data"]["k"] == 3  # 2**-3 < 1/4, 2**-2 is not
    assert cert["data"]["close_value"] + cert["data"]["close_error"] < 0.25
    assert cert["data"]["far_value"] - cert["data"]["far_error"] >= 0.5
    assert verify_certificate(cert).ok


def test_sensitivity_degenerate_for_eps_above_diameter():
    cert = sensitivity_witness(periodic_point((1, 2)), 2.5, A2, P)
    assert cert["data"]["k"] == 0
    assert cert["data"]["degenerate"]
    assert verify_certificate(cert).ok


def test_sensitivity_periodic_point_small_eps():
    cert = sensitivity_witness(periodic_point((1, 2)), 1e-2, A2, P)
    assert cert["data"]["k"] == 7  # smallest k with 2**-k < 1e-2
    d = cert["data"]
    assert d["close_value"] == 0.5 ** 7  # exact: flipped tail weight
    assert d["far_value"] == 1.0
    assert verify_certificate(cert).ok


@pytest.mark.parametrize("witness", [
    lambda s, p: periodic_density_witness(s, 0.1, p),
    lambda s, p: sensitivity_witness(s, 0.1, A2, p),
], ids=["density", "sensitivity"])
def test_witness_depth_stops_just_past_the_window_cap(witness):
    # near r = 1 the least k is about 2e12: the depth search stops at the
    # first k past MAX_WINDOW, which the payload refuses by name
    with pytest.raises(ValueError, match=rf"^k must .*, got {MAX_WINDOW + 1}$"):
        witness(periodic_point((1, 2)), MetricParams(1 - 1e-12))


def test_sensitivity_partner_agrees_then_differs():
    s = periodic_point((2, 1, 1))
    cert = sensitivity_witness(s, 0.1, A2, P)
    from shiftchaos import sequence_from_payload

    partner = sequence_from_payload(cert["data"]["partner"])
    k = cert["data"]["k"]
    assert partner.window(-10, k) == s.window(-10, k)
    assert all(
        partner.symbol_at(j) != s.symbol_at(j) for j in range(k + 1, k + 20)
    )


# -- recurrence -------------------------------------------------------------


def _entry_index(m, seed, word):
    """Where the entry of `word` starts in the word-by-word enumeration:
    entries of one length lie that many symbols apart, after the shorter ones."""
    size = len(word)
    first = sum(length * m ** length for length in range(1, size))
    ref = _ref_enumeration(m, seed, size * m ** size, first)
    return first + next(i for i in range(0, len(ref), size) if ref[i : i + size] == word)


def test_poisson_first_return_matches_brute_scan():
    # the time at depth j minus j is the entry of the extended window
    # u(-j)..u(j+1), whose symbols the shifted orbit then repeats
    for m, past, seed, depths in [
        (2, periodic((1,), 0), 0, 4),
        (2, window_padded((2, 1), -1, 2), 3, 4),
        (3, periodic((3, 1), 0), 11, 2),
    ]:
        u_set = UnstableSetId(Alphabet(m), past)
        cert = poisson_recurrence_witness(u_set, depths, P, seed=seed)
        u = universal_member(u_set, seed)
        for j, n in enumerate(cert["data"]["times"], 1):
            assert n - j == _entry_index(m, seed, bytes(u.window(-j, j + 1)))
            assert u.shift(n).window(-j, j + 1) == u.window(-j, j + 1)
        assert verify_certificate(cert).ok


def test_poisson_times_increase_thresholds_decrease():
    cert = poisson_recurrence_witness(ones_past(), 10, P)
    times = cert["data"]["times"]
    thresholds = cert["data"]["thresholds"]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    for value, err, thr in zip(
        cert["data"]["distance_values"], cert["data"]["distance_errors"], thresholds
    ):
        assert value + err < thr
    assert verify_certificate(cert).ok


def test_poisson_with_periodic_past():
    u_set = UnstableSetId(A2, periodic((1, 2), 0))
    cert = poisson_recurrence_witness(u_set, 6, P)
    assert verify_certificate(cert).ok


def test_poisson_rejects_bad_depth():
    with pytest.raises(ValueError):
        poisson_recurrence_witness(ones_past(), 0, P)


# Return times as the closed form gives them, from the entries of the
# extended windows u(-j)..u(j+1).
@pytest.mark.parametrize(
    "m, past, seed, times",
    [
        (2, window_padded((2, 1), -1, 2), 3, [
            47, 548, 2693, 14408, 76847, 247884, 1913145, 4953392, 26122079, 173577694,
            411667205, 3225403460, 10532663915, 36688090568,
        ]),
        (3, periodic((3, 1), 0), 11, [
            135, 2729, 49359, 293343, 5652911, 91754061, 526698383, 5531299769, 36043553059,
            530101476183,
        ]),
    ],
)
def test_poisson_return_times_are_frozen(m, past, seed, times):
    u_set = UnstableSetId(Alphabet(m), past)
    cert = poisson_recurrence_witness(u_set, len(times), P, seed=seed)
    assert cert["data"]["times"] == times
    assert verify_certificate(cert).ok


# Return times as an earlier writer found them, scanning the first 2**21
# enumeration symbols for the window u(-j)..u(j): any strictly increasing
# times that beat their thresholds verify.
@pytest.mark.parametrize(
    "m, past, seed, times",
    [
        (2, window_padded((2, 1), -1, 2), 3, [
            2, 47, 240, 579, 11465, 40681, 77340, 1242578, 26122079, 173577694, 411667205,
            3225403460, 10532663915, 36688090568,
        ]),
        (3, periodic((3, 1), 0), 11, [
            28, 670, 1338, 11603, 224539, 91754061, 526698383, 5531299769, 36043553059,
            530101476183,
        ]),
    ],
)
def test_files_with_scanned_return_times_still_verify(m, past, seed, times):
    u_set = UnstableSetId(Alphabet(m), past)
    payload = poisson_recurrence_payload(u_set, len(times), P, seed, 1e-12, times)
    assert verify_certificate(_certificate("poisson_recurrence", payload)).ok


def test_poisson_times_do_not_depend_on_the_window(monkeypatch):
    u_set = UnstableSetId(A2, window_padded((2, 1), -1, 2))
    times = poisson_recurrence_witness(u_set, 10, P, seed=3)["data"]["times"]
    monkeypatch.setattr("shiftchaos.sequences._HEAD", 1000)
    assert poisson_recurrence_witness(u_set, 10, P, seed=3)["data"]["times"] == times


def test_poisson_scan_memory_does_not_grow_with_the_cap():
    u_set = UnstableSetId(A2, window_padded((2, 1), -1, 2))
    enumeration_prefix.cache_clear()
    enumeration_prefix(2, 3, _HEAD)  # the head every universal member reads
    tracemalloc.start()
    try:
        poisson_recurrence_witness(u_set, 14, P, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # closed-form times build no enumeration beyond the windows distances read
    assert peak < 512 * 1024


def test_poisson_refuses_steps_past_the_symbol_budget():
    # 40 depths at truncation depth 375,326 would read 15 million symbols
    with pytest.raises(ValueError, match="budget"):
        poisson_recurrence_witness(ones_past(), 40, MetricParams(0.9999))


# -- scrambled pairs --------------------------------------------------------


def test_li_yorke_horizon_hundred():
    cert = li_yorke_pair(ones_past(), 100, P)
    assert cert["data"]["min_value"] < 2.0 ** -5
    assert cert["data"]["max_value"] >= 0.5
    assert verify_certificate(cert).ok


def test_li_yorke_horizon_thousand():
    cert = li_yorke_pair(ones_past(), 1000, P)
    assert cert["data"]["min_value"] < 2.0 ** -8
    assert cert["data"]["max_value"] >= 0.5
    assert verify_certificate(cert).ok


def test_li_yorke_rejects_short_horizon():
    with pytest.raises(ValueError):
        li_yorke_pair(ones_past(), 5, P)


def test_li_yorke_degenerate_pair_fails_verification():
    cert = li_yorke_pair(ones_past(), 100, P)
    tampered = {**cert, "data": dict(cert["data"])}
    tampered["data"]["t"] = tampered["data"]["s"]
    result = verify_certificate(tampered)
    assert not result.ok
    assert result.failures == ("stored t does not recompute",)


def _exact_row(s, t, n, horizon, r):
    """The exact distance of row n as a Fraction: the sum of Fraction(r)**depth
    over its mismatches, read symbol by symbol from a window that covers
    positions 0 to horizon + 81 of the unshifted pair (they agree outside it).
    Fraction(r) = a / 2**e, and the sum is one numerator over 2**(e*top),
    built by Horner's rule from the deepest depth up."""
    sn, tn = s.shift(n), t.shift(n)
    counts = {}
    for j in range(-n, horizon + 82 - n):
        if sn.symbol_at(j) != tn.symbol_at(j):
            depth = j if j >= 1 else 1 - j
            counts[depth] = counts.get(depth, 0) + 1
    a, b = Fraction(r).as_integer_ratio()
    e, top, numerator = b.bit_length() - 1, max(counts, default=0), 0
    for depth in range(top, 0, -1):
        numerator = a * ((counts.get(depth, 0) << e * (top - depth)) + numerator)
    return Fraction(numerator, b ** top)


def test_exact_row_sums_the_weights_of_the_mismatches():
    s, t = _scrambled_pair(periodic((1, 2, 2), 1), 10)
    for r in (0.5, 0.3):
        for n in (1, 5, 10):
            sn, tn, w = s.shift(n), t.shift(n), Fraction(r)
            expected = sum(w ** (j if j >= 1 else 1 - j) for j in range(-n, 92 - n)
                           if sn.symbol_at(j) != tn.symbol_at(j))
            assert _exact_row(s, t, n, 10, r) == expected


def _block(horizon):
    """J of the deepest agreement block [2**(J+1) - 1, 3*2**J - 2] of the
    scrambled pair inside the horizon."""
    j = 0
    while 3 * 2 ** (j + 1) - 2 <= horizon:
        j += 1
    return j


def _certifies_and_verifies(past, horizon, r, exact):
    """li_yorke_pair certifies and re-verifies; with `exact`, its times are
    the middle rows of agreement block J and disagreement block J - 1, and
    the exact distances there meet the bounds they claim."""
    cert = li_yorke_pair(UnstableSetId(A2, past), horizon, MetricParams(r))
    assert verify_certificate(cert).ok, (r, horizon)
    if not exact:
        return
    d, j, w = cert["data"], _block(horizon), Fraction(r)
    assert (d["min_time"], d["max_time"]) == (
        2 ** (j + 1) - 2 + 2 ** (j - 1), 3 * 2 ** (j - 1) - 2 + 2 ** (j - 2))
    s, t = _scrambled_pair(past, horizon)
    near, far = (_exact_row(s, t, d[key], horizon, r) for key in ("min_time", "max_time"))
    assert near <= 2 * w ** (2 ** (j - 1) + 1) / (1 - w) < Fraction(d["min_bound"])
    assert far >= 2 * w
    if r in (0.5, 0.25, 1 / 32):  # correctly rounded where exact
        assert d["min_error"] or d["min_value"] == float(near)
        assert d["max_error"] or d["max_value"] == float(far)


def _first_refused(p):
    """The first horizon `check_horizon` refuses at p.r <= 1/2: the bound
    changes only where an agreement block ends, at 3*2**J - 2."""
    horizon = 10
    while True:
        try:
            check_horizon(p, horizon)
        except ValueError as exc:
            assert "underflows" in str(exc)
            return horizon
        horizon = 2 * horizon + 2


_LY_PASTS = {
    "ones": periodic((1,), 0),
    "block-3": periodic((1, 2, 2), 1),
    # a center past every clip depth: the past side of every row is clipped
    "clipped": window_padded((2,) * 1500, -1499, 1),
}


@pytest.mark.parametrize(
    "r, first",
    # 3*2**J - 2 for the least J with r**(2**(J-1) - 2) below 2**-1022
    [(0.5, 12286), (0.25, 6142), (1 / 32, 1534), (0.3, 6142), (1 / 3, 6142), (0.45, 6142),
     (0.499, 6142)],
)
def test_every_admitted_horizon_certifies_and_verifies(r, first):
    p = MetricParams(r)
    assert _first_refused(p) == first
    check_horizon(p, first - 1)
    ends = [3 * 2 ** j - 2 for j in range(2, first.bit_length())]
    horizons = [*range(10, min(first, 600)), *range(600, first, 197), first - 1]
    horizons += [h + dh for h in ends for dh in (-1, 0) if 600 <= h + dh < first]
    for past in _LY_PASTS.values():
        for horizon in horizons:
            # the Fraction oracle where the block changes, and at some other
            # horizons, up to where its sums grow slow off the powers of two
            exact = horizon % 37 == 0 or horizon in ends or horizon + 1 in ends
            _certifies_and_verifies(past, horizon, r, exact and horizon < 1600)


@settings(max_examples=20, deadline=None)
@given(
    # the least subnormal, 5e-324, is refused (see the test below)
    r=st.floats(min_value=1e-323, max_value=0.5),
    horizon=st.integers(10, 12285),
    past=st.sampled_from(list(_LY_PASTS.values())),
)
def test_li_yorke_pair_certifies_at_any_r_up_to_a_half(r, horizon, past):
    if horizon >= _first_refused(MetricParams(r)):
        with pytest.raises(ValueError, match="underflows"):
            li_yorke_pair(UnstableSetId(A2, past), horizon, MetricParams(r))
    else:
        _certifies_and_verifies(past, horizon, r, True)


@pytest.mark.parametrize("horizon", [10, 20])
def test_li_yorke_refuses_the_least_subnormal_r(horizon):
    # at r = 5e-324 the far row reads 2r, and both its clipped sides report
    # an error of 5e-324 = r: its check value - error >= r would fail
    with pytest.raises(ValueError, match="distal claim"):
        li_yorke_pair(ones_past(), horizon, MetricParams(5e-324))
    _certifies_and_verifies(periodic((1,), 0), horizon, 1e-323, True)


@pytest.mark.parametrize(
    "r, horizon, min_time, max_time", [(0.5, 500, 318, 436), (0.3, 6000, 4712, 220)]
)
def test_li_yorke_files_with_searched_times_verify(r, horizon, min_time, max_time):
    # times found by the row-by-row search that `li_yorke_pair` once ran
    data = li_yorke_payload(ones_past(), horizon, MetricParams(r), 1e-12, min_time, max_time)
    payload = json.loads(json.dumps(_certificate("li_yorke", data)))
    assert verify_certificate(payload).ok
    assert (payload["data"]["min_time"], payload["data"]["max_time"]) == (min_time, max_time)


# -- convergence along stable / unstable sets --------------------------------


def test_stable_convergence_equal_points():
    s = periodic_point((1, 2))
    cert = stable_set_convergence(s, s, 10, P)
    assert all(row["value"] == 0.0 for row in cert["data"]["rows"])
    assert verify_certificate(cert).ok


def test_stable_convergence_single_mismatch_closed_form():
    s = window_padded((1,), 0, 1)
    t = window_padded((2,), 0, 1)
    cert = stable_set_convergence(s, t, 20, P)
    for row in cert["data"]["rows"]:
        assert row["value"] == 0.5 ** (row["n"] + 1)
        assert row["error"] == 0.0
    assert cert["data"]["rows"][-1]["value"] < 1e-5
    assert verify_certificate(cert).ok


def test_stable_convergence_rejects_disjoint_futures():
    with pytest.raises(ValueError):
        stable_set_convergence(periodic_point((1,)), periodic_point((2,)), 5, P)


def test_unstable_convergence_mirrors():
    u_set = ones_past()
    s = member_with_future(u_set, window_padded((1, 2), 1, 1))
    t = member_with_future(u_set, window_padded((2, 1), 1, 1))
    cert = unstable_set_convergence(s, t, 20, P)
    rows = cert["data"]["rows"]
    assert rows[-1]["value"] < 1e-5
    assert all(r1["value"] >= r2["value"] for r1, r2 in zip(rows, rows[1:]))
    assert verify_certificate(cert).ok


def test_unstable_convergence_rejects_disjoint_pasts():
    with pytest.raises(ValueError):
        unstable_set_convergence(periodic_point((1,)), periodic_point((2,)), 5, P)


def _periodic_past_pair():
    u_set = UnstableSetId(A2, periodic((1, 2)))
    return (member_with_future(u_set, window_padded((1, 2))),
            member_with_future(u_set, window_padded((2, 1))))


def test_convergence_certifies_while_its_terminal_bound_is_a_normal_float():
    s, t = _periodic_past_pair()
    cert = unstable_set_convergence(s, t, 1023, P)  # r**1022 is the least normal float
    assert cert["data"]["n_max"] == 1023
    assert verify_certificate(cert).ok


def test_convergence_terminal_claim_counts_the_error():
    # at tol 1e-3 the last row reads value 9.5e-7 with error 4.9e-4, and
    # r**19 = 1.9e-6 bounds the value alone
    u = UniversalSeq(2)
    s, t = splice(periodic((1,)), u), splice(periodic((2,)), u)
    with pytest.raises(AssertionError, match="stable-set distance failed its terminal bound"):
        stable_set_convergence(s, t, 20, P, tol=1e-3)
    assert verify_certificate(stable_set_convergence(s, t, 20, P)).ok


@pytest.mark.parametrize(
    "tol, depths, deltas, epsilons, claim",
    [
        (1e-12, 10, (0.1, 1e-2, 1e-3), (0.25, 1e-2), None),  # the CLI's suite
        (1e-3, 11, (), (), "truncation depth above it"),  # the depth is 11
        (2e-3, 1, (1e-3,), (), "periodic witness at delta=0.001"),
        (0.5, 1, (), (0.25,), "sensitivity partner at eps=0.25"),
        (0.5, 1, (), (), "sensitivity divergence"),  # 1 - 2/4 - 1/4 < eps0
    ],
)
def test_witness_room_refuses_an_error_a_witness_cannot_absorb(
    tol, depths, deltas, epsilons, claim
):
    if claim is None:
        check_witness_room(P, tol, depths, deltas, epsilons)
    else:
        with pytest.raises(ValueError, match=claim):
            check_witness_room(P, tol, depths, deltas, epsilons)


@pytest.mark.parametrize("n_max", [1024, 1080])
def test_convergence_refuses_a_subnormal_terminal_bound(n_max):
    s, t = _periodic_past_pair()
    for convergence in (unstable_set_convergence, stable_set_convergence):
        with pytest.raises(ValueError, match="not a normal float"):
            convergence(s, t, n_max, P)


# -- tampering and the devaney sweep ----------------------------------------


def test_tampered_distance_fails_verification():
    cert = periodic_density_witness(universal_member(ones_past()), 0.1, P)
    tampered = {**cert, "data": dict(cert["data"])}
    tampered["data"]["distance_value"] = 0.0
    assert not verify_certificate(tampered).ok


@pytest.mark.parametrize("schema", [None, "1", True, 99, 1.0], ids=["missing", "string", "true", "99", "float"])
def test_verify_certificate_requires_schema_one(schema):
    payload = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    assert verify_certificate(payload).ok
    if schema is None:
        del payload["schema"]
    else:
        payload["schema"] = schema
    result = verify_certificate(payload)
    assert not result.ok and not result.shaped
    assert result.failures == (f"schema {schema!r} is not 1",)


def test_unknown_kind_fails_verification():
    assert not verify_certificate({"schema": 1, "kind": "nonsense", "data": {}}).ok


@pytest.mark.parametrize("kind", [["li_yorke"], {"li_yorke": 1}, 5, None])
def test_non_string_kind_fails_verification(kind):
    result = verify_certificate({"schema": 1, "kind": kind, "data": {}})
    assert not result.ok
    assert result.failures[0].startswith("unknown certificate kind")


@pytest.mark.parametrize("m", [0, 1, -2, 2.0, "2", None])
def test_flipped_payload_with_bad_alphabet_is_malformed(m):
    cert = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    payload = json.loads(json.dumps(cert))
    flipped = payload["data"]["partner"]["future"]
    assert flipped["kind"] == "flipped"
    flipped["m"] = m
    with pytest.raises(ValueError):
        sequence_from_payload(flipped)
    result = verify_certificate(payload)
    assert not result.ok
    assert result.failures[0].startswith("malformed certificate")


@pytest.mark.parametrize("m", [2, 3])
def test_devaney_triple_on_random_unstable_sets(m):
    alphabet = Alphabet(m)
    rng = random.Random(99 + m)
    for _ in range(20):
        u_set = random_unstable_set(rng, alphabet)
        member = universal_member(u_set)
        for _ in range(10):
            target = random_two_sided_target(rng, alphabet, 2, 3)
            cert = transitivity_witness(u_set, target)
            assert verify_certificate(cert).ok
        for delta in (0.1, 1e-2, 1e-3):
            cert = periodic_density_witness(member, delta, P)
            assert verify_certificate(cert).ok
        for eps in (0.25, 1e-2):
            cert = sensitivity_witness(member, eps, alphabet, P)
            assert cert["data"]["far_value"] - cert["data"]["far_error"] >= 0.5
            assert verify_certificate(cert).ok


# -- derived constants are recomputed, never read from the file -------------


def _li_yorke_payload():
    return json.loads(json.dumps(li_yorke_pair(ones_past(), 100, P)))


def _convergence_payload(forward):
    u_set = ones_past()
    if forward:
        s = window_padded((1,), 0, 1)
        t = window_padded((2,), 0, 1)
        cert = stable_set_convergence(s, t, 20, P)
    else:
        s = member_with_future(u_set, window_padded((1, 2), 1, 1))
        t = member_with_future(u_set, window_padded((2, 1), 1, 1))
        cert = unstable_set_convergence(s, t, 20, P)
    return json.loads(json.dumps(cert))


def _failures_after(payload, mutate):
    assert verify_certificate(payload).ok
    mutate(payload["data"])
    result = verify_certificate(payload)
    assert not result.ok
    return result.failures


def test_sensitivity_stored_eps0_is_recomputed():
    cert = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    payload = json.loads(json.dumps(cert))
    failures = _failures_after(payload, lambda d: d.update(eps0=0.0))
    assert any("eps0" in f for f in failures)


@pytest.mark.parametrize("field, value", [("min_bound", 100.0), ("eps0", 0.0)])
def test_li_yorke_stored_constants_are_recomputed(field, value):
    failures = _failures_after(_li_yorke_payload(), lambda d: d.update({field: value}))
    assert len(failures) == 1


@pytest.mark.parametrize("horizon", [float("inf"), 100.0, 9, "100"])
def test_li_yorke_horizon_must_be_an_integer(horizon):
    payload = _li_yorke_payload()
    payload["data"]["horizon"] = horizon
    result = verify_certificate(payload)
    assert result.failures == (
        f"malformed certificate: horizon must be an integer in [10, {MAX_WINDOW}], got {horizon!r}",
    )


def test_li_yorke_pair_must_share_the_unstable_past():
    other_past = {"kind": "periodic", "block": [2], "phase": 0}

    def mutate(d):
        d["t"] = {"kind": "spliced", "past": other_past, "future": d["t"], "offset": 0}

    failures = _failures_after(_li_yorke_payload(), mutate)
    assert failures == ("stored t does not recompute",)
    # a pair that shares a past other than the stored one fails as well
    failures = _failures_after(_li_yorke_payload(), lambda d: d.update(unstable_past=other_past))
    assert failures == ("stored s does not recompute", "stored t does not recompute")


def test_li_yorke_min_bound_helper_matches_the_pair():
    for horizon in (10, 22, 46, 100, 1000):
        cert = li_yorke_pair(ones_past(), horizon, MetricParams(0.3))
        assert (cert["data"]["min_time"], cert["data"]["max_time"], cert["data"]["min_bound"]) == (
            _li_yorke_block(0.3, horizon))
    # agreement block J = [2**(J+1) - 1, 3*2**J - 2]: J = 4 is [31, 46], and
    # disagreement block 3 is [23, 30]
    assert _li_yorke_block(0.5, 46) == (38, 26, 0.5 ** 6)
    assert _li_yorke_block(0.5, 45) == (18, 12, 0.5 ** 2)
    assert _li_yorke_block(0.5, 10) == (8, 5, 1.0)


@pytest.mark.parametrize("forward", [True, False])
def test_convergence_stored_bounds_are_recomputed(forward):
    def mutate(d):
        for row in d["rows"]:
            row["bound"] = 10.0

    failures = _failures_after(_convergence_payload(forward), mutate)
    assert failures == ("stored rows does not recompute",)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda d: d["rows"].pop(3), "stored rows does not recompute"),
        (lambda d: d["rows"].clear(), "stored rows does not recompute"),
        (lambda d: d.update(n_max=0, rows=d["rows"][:1]),
         f"malformed certificate: n_max must be an integer in [1, {MAX_STEPS}], got 0"),
        (lambda d: d["rows"][5].update(n=50), "stored rows does not recompute"),
    ],
    ids=["gap", "empty", "n_max_0", "renumbered"],
)
def test_convergence_rows_must_cover_every_step(forward, mutate, expected):
    failures = _failures_after(_convergence_payload(forward), mutate)
    assert failures == (expected,)


def test_deeply_nested_payload_is_malformed():
    cert = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    payload = json.loads(json.dumps(cert))
    seq = payload["data"]["sequence"]
    for _ in range(5000):
        seq = {"kind": "flipped", "base": seq, "m": 2}
    payload["data"]["sequence"] = seq
    with pytest.raises(ValueError):
        sequence_from_payload(seq)
    result = verify_certificate(payload)
    assert not result.ok
    assert result.failures[0].startswith("malformed certificate")


# -- reports: each stored payload is its inputs plus its check's dict --------


@pytest.mark.parametrize("m, r, max_depth", [(2, 0.5, 12), (3, 0.3, 40), (2, 0.5, 1072)])
def test_diameter_payload_is_its_inputs_and_the_check(m, r, max_depth):
    report = check_diameter_condition(Alphabet(m), MetricParams(r), max_depth)
    assert diameter_payload(m, r, max_depth) == {"m": m, "r": r, "max_depth": max_depth, **report}
    assert report["strictly_decreasing"] and report["matches_prediction"]
    depths = range(1, max_depth + 1)
    assert [(row["k"], row["n"]) for row in report["rows"]] == [(d, d) for d in depths]


@pytest.mark.parametrize("m, r, degree", [(2, 0.5, 1), (3, 0.25, 2), (2, 0.3, 7)])
def test_separation_payload_is_its_inputs_and_the_check(m, r, degree):
    a, p = Alphabet(m), MetricParams(r)
    result = check_separation(a, p, degree)
    exhaustive = degree <= 3 and separation_holds_everywhere(a, p, degree, result["eps0"])
    assert separation_payload(m, r, degree) == {
        "m": m, "r": r, "degree": degree, **result, "exhaustive_at_low_degree": exhaustive,
    }
    words = result["witness_words"]
    assert words == [[1] * degree, [2] + [1] * (degree - 1)]
    assert result["witness_distance"] == set_distance(*map(future_cylinder, words), p) == r


def test_return_digits_admit_exactly_the_depths_within_the_limit(monkeypatch):
    # the time at depth j lies below the start of section 2j + 3, summed
    # here term by term
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    for depth in range(1, MAX_STEPS + 1):
        check_return_digits(2, depth)
    for m in (255, 2 ** 70):
        starts = [0, *accumulate(l * m ** l for l in range(1, 2003))]  # of sections 1..2003
        last = max(j for j in range(1, 1000) if starts[2 * j + 2] <= 10 ** 4300)
        assert last == {255: 891, 2 ** 70: 100}[m]
        check_return_digits(m, last)
        with pytest.raises(ValueError, match="digits for an integer"):
            check_return_digits(m, last + 1)
