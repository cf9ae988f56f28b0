"""Witness construction and self-verification of the chaos certificates."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftchaos import (
    Alphabet,
    EventuallyPeriodicSeq,
    MetricParams,
    SplicedSeq,
    UniversalSeq,
    UnstableSetId,
    distance,
    flip,
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
    _li_yorke_min_bound,
    _scrambled_pair,
    check_witness_room,
    random_two_sided_target,
    random_unstable_set,
)
from shiftchaos.metric import _EXACT_SPAN_CAP, pair_values
from shiftchaos.sequences import _HEAD, EnumerationScan, enumeration_prefix

from conftest import _ref_enumeration, brute_distance, scan_for_block

A2 = Alphabet(2)
P = MetricParams(0.5)


def ones_past():
    return UnstableSetId(A2, periodic((1,), 0))


def as_payload(cert):
    return {"schema": 1, "kind": cert.kind, "data": cert.data}


def test_unstable_set_rejects_universal_past():
    from shiftchaos import UniversalSeq

    with pytest.raises(TypeError):
        UnstableSetId(A2, UniversalSeq(2))


def test_members_share_the_past():
    u_set = UnstableSetId(A2, periodic((1, 2), 0))
    member = universal_member(u_set)
    assert member.window(-6, 0) == u_set.past.window(-6, 0)


# -- transitivity -----------------------------------------------------------


def test_transitivity_whole_space_needs_no_shift():
    cert = transitivity_witness(ones_past(), whole_space())
    assert cert.data["shift_count"] == 0
    assert verify_certificate(as_payload(cert)).ok


def test_transitivity_concrete_target_scan_oracle():
    u_set = ones_past()
    target = two_sided_cylinder((1, 2, 1), -1)
    cert = transitivity_witness(u_set, target)
    p = cert.data["shift_count"]
    member = universal_member(u_set)
    assert member.shift(p).window(-1, 1) == (1, 2, 1)
    # oracle: scanning the materialized future also finds the word at p - 1
    prefix = list(_ref_enumeration(2, 0, 64))
    occurrence = scan_for_block(prefix, (1, 2, 1))
    assert occurrence is not None and member.window(p - 1, p + 1) == (1, 2, 1)
    assert verify_certificate(as_payload(cert)).ok


def test_transitivity_all_sixteen_targets():
    u_set = UnstableSetId(A2, window_padded((2, 1), -1, 1))
    for num in range(16):
        word = tuple((num >> i) % 2 + 1 for i in range(4))
        target = two_sided_cylinder(word, -1)  # window [-1, 2]
        cert = transitivity_witness(u_set, target)
        p = cert.data["shift_count"]
        assert universal_member(u_set).shift(p).window(-1, 2) == word
        assert verify_certificate(as_payload(cert)).ok


def test_transitivity_rejects_future_cylinder_targets():
    from shiftchaos import future_cylinder

    with pytest.raises(ValueError):
        transitivity_witness(ones_past(), future_cylinder((1,)))


# -- periodic density -------------------------------------------------------


def test_density_witness_of_periodic_point_is_the_point():
    s = periodic_point((1,))
    cert = periodic_density_witness(s, 0.5, P)
    assert cert.data["distance_value"] == 0.0
    assert verify_certificate(as_payload(cert)).ok


def test_density_depth_for_small_delta():
    member = universal_member(ones_past())
    cert = periodic_density_witness(member, 1e-3, P)
    assert cert.data["k"] == 11  # 2**-11 + 2**-12 < 1e-3, and 10 is too shallow
    assert cert.data["distance_value"] + cert.data["distance_error"] < 1e-3
    witness = sequence_from_payload(cert.data["witness"])
    assert witness.period == 23
    assert brute_distance(member, witness, 0.5) < 1e-3
    assert verify_certificate(as_payload(cert)).ok


def test_density_universal_member_delta_tenth():
    member = universal_member(ones_past())
    cert = periodic_density_witness(member, 0.1, P)
    assert cert.data["k"] == 4
    assert cert.data["distance_value"] < 0.1
    assert not cert.data["degenerate"]
    assert verify_certificate(as_payload(cert)).ok


def test_density_degenerate_flag_for_huge_delta():
    cert = periodic_density_witness(periodic_point((1, 2)), 3.0, P)
    assert cert.data["degenerate"]
    assert verify_certificate(as_payload(cert)).ok


# -- sensitivity ------------------------------------------------------------


def test_sensitivity_quarter_eps():
    member = universal_member(ones_past())
    cert = sensitivity_witness(member, 0.25, A2, P)
    assert cert.data["k"] == 3  # 2**-3 < 1/4, 2**-2 is not
    assert cert.data["close_value"] + cert.data["close_error"] < 0.25
    assert cert.data["far_value"] - cert.data["far_error"] >= 0.5
    assert verify_certificate(as_payload(cert)).ok


def test_sensitivity_degenerate_for_eps_above_diameter():
    cert = sensitivity_witness(periodic_point((1, 2)), 2.5, A2, P)
    assert cert.data["k"] == 0
    assert cert.data["degenerate"]
    assert verify_certificate(as_payload(cert)).ok


def test_sensitivity_periodic_point_small_eps():
    cert = sensitivity_witness(periodic_point((1, 2)), 1e-2, A2, P)
    assert cert.data["k"] == 7  # smallest k with 2**-k < 1e-2
    d = cert.data
    assert d["close_value"] == 0.5 ** 7  # exact: flipped tail weight
    assert d["far_value"] == 1.0
    assert verify_certificate(as_payload(cert)).ok


def test_sensitivity_partner_agrees_then_differs():
    s = periodic_point((2, 1, 1))
    cert = sensitivity_witness(s, 0.1, A2, P)
    from shiftchaos import sequence_from_payload

    partner = sequence_from_payload(cert.data["partner"])
    k = cert.data["k"]
    assert partner.window(-10, k) == s.window(-10, k)
    assert all(
        partner.symbol_at(j) != s.symbol_at(j) for j in range(k + 1, k + 20)
    )


# -- recurrence -------------------------------------------------------------


def test_poisson_first_return_matches_brute_scan():
    u_set = ones_past()
    cert = poisson_recurrence_witness(u_set, 3, P)
    u = universal_member(u_set)
    # oracle: earliest future occurrence of the window around the dot
    window = u.window(-1, 1)
    symbols = u.window(1, 200)
    first = None
    for q in range(1, 150):
        if tuple(symbols[q - 1 : q + 2]) == window:
            first = q
            break
    assert cert.data["times"][0] == first + 1
    assert verify_certificate(as_payload(cert)).ok


def test_poisson_times_increase_thresholds_decrease():
    cert = poisson_recurrence_witness(ones_past(), 10, P)
    times = cert.data["times"]
    thresholds = cert.data["thresholds"]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    for value, err, thr in zip(
        cert.data["distance_values"], cert.data["distance_errors"], thresholds
    ):
        assert value + err < thr
    assert verify_certificate(as_payload(cert)).ok


def test_poisson_with_periodic_past():
    u_set = UnstableSetId(A2, periodic((1, 2), 0))
    cert = poisson_recurrence_witness(u_set, 6, P)
    assert verify_certificate(as_payload(cert)).ok


def test_poisson_rejects_bad_depth():
    with pytest.raises(ValueError):
        poisson_recurrence_witness(ones_past(), 0, P)


# Return times as a scan of the word-by-word prefix found them, inside the
# 2**21-symbol scan prefix and past it.
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
def test_poisson_return_times_are_frozen(m, past, seed, times):
    u_set = UnstableSetId(Alphabet(m), past)
    cert = poisson_recurrence_witness(u_set, len(times), P, seed=seed)
    assert cert.data["times"] == times
    assert verify_certificate(as_payload(cert)).ok


def _occurrences(find, word, cap):
    """Every i >= 1 with `word` at i..i + len(word) - 1 < cap, by chained finds."""
    found, i = [], find(word, 1)
    while i != -1 and i + len(word) <= cap:
        found.append(i)
        i = find(word, i + 1)
    return found


@pytest.mark.parametrize("m, seed", [(2, 0), (2, 3), (2, 2 ** 63), (3, 0), (3, 11)])
def test_windowed_scan_finds_what_a_scan_of_the_whole_prefix_finds(monkeypatch, m, seed):
    window, cap = 97, 6000
    monkeypatch.setattr("shiftchaos.sequences._HEAD", window)
    ref = _ref_enumeration(m, seed, cap)
    # words planted across the first window's edge and deep in the prefix
    for lo, size in [(window - 2, 5), (window - 1, 2), (window - 6, 13), (2500, 9), (cap - 7, 7)]:
        word = ref[lo : lo + size]
        expected = _occurrences(ref.find, word, cap)
        assert lo in expected
        scan = EnumerationScan(m, seed, cap)
        assert _occurrences(scan.find, word, math.inf) == expected
    # searches that start at the previous hit with longer and longer words,
    # as the Poisson depths do, share one window that only moves forward
    scan, start = EnumerationScan(m, seed, cap), 1
    for size in range(1, 30, 2):
        word = ref[4000 - size : 4000]
        expected = ref.find(word, start)
        if expected + size > cap:
            expected = -1
        assert scan.find(word, start) == expected
        if expected == -1:
            break
        start = expected


@pytest.mark.parametrize("cap", [2, 50, 2000])
def test_scan_finds_nothing_past_a_cap_inside_the_first_window(cap):
    ref = _ref_enumeration(3, 5, cap + 40)
    for word in (ref[cap - 1 : cap], ref[cap - 2 : cap + 1], ref[cap + 10 : cap + 14]):
        expected = _occurrences(ref.find, word, cap)
        assert _occurrences(EnumerationScan(3, 5, cap).find, word, math.inf) == expected


def test_poisson_times_do_not_depend_on_the_window(monkeypatch):
    u_set = UnstableSetId(A2, window_padded((2, 1), -1, 2))
    times = poisson_recurrence_witness(u_set, 10, P, seed=3).data["times"]
    monkeypatch.setattr("shiftchaos.sequences._HEAD", 1000)
    assert poisson_recurrence_witness(u_set, 10, P, seed=3).data["times"] == times


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
    # a prefix of the whole 2**21-symbol cap peaks at 4 MiB while it is built
    assert peak < 512 * 1024


def test_poisson_refuses_steps_past_the_symbol_budget():
    # 40 depths at truncation depth 375,326 would read 15 million symbols
    with pytest.raises(ValueError, match="budget"):
        poisson_recurrence_witness(ones_past(), 40, MetricParams(0.9999))


# -- scrambled pairs --------------------------------------------------------


def test_li_yorke_horizon_hundred():
    cert = li_yorke_pair(ones_past(), 100, P)
    assert cert.data["min_value"] < 2.0 ** -5
    assert cert.data["max_value"] >= 0.5
    assert verify_certificate(as_payload(cert)).ok


def test_li_yorke_horizon_thousand():
    cert = li_yorke_pair(ones_past(), 1000, P)
    assert cert.data["min_value"] < 2.0 ** -8
    assert cert.data["max_value"] >= 0.5
    assert verify_certificate(as_payload(cert)).ok


def test_li_yorke_rejects_short_horizon():
    with pytest.raises(ValueError):
        li_yorke_pair(ones_past(), 5, P)


def test_li_yorke_degenerate_pair_fails_verification():
    cert = li_yorke_pair(ones_past(), 100, P)
    tampered = {"schema": 1, "kind": cert.kind, "data": dict(cert.data)}
    tampered["data"]["t"] = tampered["data"]["s"]
    result = verify_certificate(tampered)
    assert not result.ok
    assert result.failures == ("stored t does not recompute",)


def _row_values(s, t, horizon, p):
    """The scrambled pair's rows as `li_yorke_pair` once found them: one
    `distance` call per row."""
    return [distance(s.shift(n), t.shift(n), p).value for n in range(1, horizon + 1)]


def _exact_row(s, t, n, horizon, r):
    """float of the exact sum of Fraction(r)**depth over the mismatches of
    row n, read symbol by symbol from a window that covers positions 0 to
    horizon + 81 of the unshifted pair (they agree outside it)."""
    sn, tn = s.shift(n), t.shift(n)
    total = Fraction(0)
    for j in range(-n, horizon + 82 - n):
        if sn.symbol_at(j) != tn.symbol_at(j):
            total += Fraction(r) ** (j if j >= 1 else 1 - j)
    return float(total)


_BLOCKS = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
_WORDS = st.lists(st.integers(1, 3), max_size=6).map(tuple)
# offsets past the span cap leave the past no tail that `distance` sums exactly
_UNIVERSAL = st.builds(
    UniversalSeq, st.just(3), st.integers(0, 5),
    st.one_of(st.integers(-8, 8), st.integers(_EXACT_SPAN_CAP - 300, 10 ** 12)),
)
_PASTS = st.one_of(
    st.builds(periodic, _BLOCKS, st.integers(-4, 4)),
    st.builds(window_padded, _WORDS, st.integers(-8, 1), st.integers(1, 3)),
    st.builds(EventuallyPeriodicSeq, _BLOCKS, _WORDS, st.integers(-8, 2), _BLOCKS),
    _UNIVERSAL,
    _UNIVERSAL.map(lambda u: flip(u, 3)),
    st.builds(splice, _UNIVERSAL, st.builds(periodic, _BLOCKS)),
    # a past center this long pushes every row from `extra` on past the cap
    st.integers(-50, 300).map(
        lambda extra: window_padded((2,) * (_EXACT_SPAN_CAP - extra), 1 - _EXACT_SPAN_CAP + extra)
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    past=_PASTS,
    r=st.sampled_from([0.5, 0.25, 0.125, 1 / 32, 0.3, 1 / 3]),
    horizon=st.one_of(st.integers(10, 300), st.integers(10, 4000)),
    rows=st.lists(st.integers(1, 4000), max_size=3),
)
def test_scrambled_values_are_the_distance_rows_bit_for_bit(past, r, horizon, rows):
    p = MetricParams(r)
    s, t = _scrambled_pair(past, horizon)
    values = pair_values(s, t, horizon, p, 1e-12)
    assert values == _row_values(s, t, horizon, p)
    if r in (0.3, 1 / 3):  # the float kernel: no correctly rounded oracle
        return
    for n in {1, horizon, *(min(n, horizon) for n in rows)}:
        if distance(s.shift(n), t.shift(n), p).error == 0:
            assert values[n - 1] == _exact_row(s, t, n, horizon, r), n


@pytest.mark.parametrize("r", [0.5, 1 / 8])
@pytest.mark.parametrize("horizon", [250, 400, 700])
@pytest.mark.parametrize(
    "past",
    [
        periodic((1,), 0),
        periodic((1, 2, 1, 2, 2), 3),
        EventuallyPeriodicSeq((2, 1, 1), (2,) * 150, -170, (1,)),
        UniversalSeq(3, 1, 40),
    ],
    ids=["ones", "block-5", "long-center", "universal"],
)
def test_scrambled_values_fall_back_where_distance_truncates(monkeypatch, past, horizon, r):
    # with a span cap of 300, rows up to need - 300 truncate the future and
    # rows from about 300 - (past center + left block) on truncate the past
    monkeypatch.setattr("shiftchaos.metric._EXACT_SPAN_CAP", 300)
    p = MetricParams(r)
    s, t = _scrambled_pair(past, horizon)
    assert pair_values(s, t, horizon, p, 1e-12) == _row_values(s, t, horizon, p)


@pytest.mark.parametrize("horizon", [500, 1000, 4000])
@pytest.mark.parametrize(
    "r, past", [(0.5, periodic((1,), 0)), (1 / 32, window_padded((2, 1), -1, 2))]
)
def test_scrambled_witness_times_match_the_row_by_row_search(horizon, r, past):
    p = MetricParams(r)
    s, t = _scrambled_pair(past, horizon)
    values = _row_values(s, t, horizon, p)
    times = values.index(min(values)) + 1, values.index(max(values)) + 1
    swept = pair_values(s, t, horizon, p, 1e-12)
    assert (swept.index(min(swept)) + 1, swept.index(max(swept)) + 1) == times
    if r == 0.5:
        cert = li_yorke_pair(UnstableSetId(A2, past), horizon, p)
        assert (cert.data["min_time"], cert.data["max_time"]) == times


# -- convergence along stable / unstable sets --------------------------------


def test_stable_convergence_equal_points():
    s = periodic_point((1, 2))
    cert = stable_set_convergence(s, s, 10, P)
    assert all(row["value"] == 0.0 for row in cert.data["rows"])
    assert verify_certificate(as_payload(cert)).ok


def test_stable_convergence_single_mismatch_closed_form():
    s = window_padded((1,), 0, 1)
    t = window_padded((2,), 0, 1)
    cert = stable_set_convergence(s, t, 20, P)
    for row in cert.data["rows"]:
        assert row["value"] == 0.5 ** (row["n"] + 1)
        assert row["error"] == 0.0
    assert cert.data["rows"][-1]["value"] < 1e-5
    assert verify_certificate(as_payload(cert)).ok


def test_stable_convergence_rejects_disjoint_futures():
    with pytest.raises(ValueError):
        stable_set_convergence(periodic_point((1,)), periodic_point((2,)), 5, P)


def test_unstable_convergence_mirrors():
    u_set = ones_past()
    s = member_with_future(u_set, window_padded((1, 2), 1, 1))
    t = member_with_future(u_set, window_padded((2, 1), 1, 1))
    cert = unstable_set_convergence(s, t, 20, P)
    rows = cert.data["rows"]
    assert rows[-1]["value"] < 1e-5
    assert all(r1["value"] >= r2["value"] for r1, r2 in zip(rows, rows[1:]))
    assert verify_certificate(as_payload(cert)).ok


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
    assert cert.data["n_max"] == 1023
    assert verify_certificate(as_payload(cert)).ok


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
    tampered = {"schema": 1, "kind": cert.kind, "data": dict(cert.data)}
    tampered["data"]["distance_value"] = 0.0
    assert not verify_certificate(tampered).ok


@pytest.mark.parametrize("schema", [None, "1", True, 99, 1.0], ids=["missing", "string", "true", "99", "float"])
def test_verify_certificate_requires_schema_one(schema):
    cert = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    payload = as_payload(cert)
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
    payload = json.loads(json.dumps(as_payload(cert)))
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
            assert verify_certificate(as_payload(cert)).ok
        for delta in (0.1, 1e-2, 1e-3):
            cert = periodic_density_witness(member, delta, P)
            assert verify_certificate(as_payload(cert)).ok
        for eps in (0.25, 1e-2):
            cert = sensitivity_witness(member, eps, alphabet, P)
            assert cert.data["far_value"] - cert.data["far_error"] >= 0.5
            assert verify_certificate(as_payload(cert)).ok


# -- derived constants are recomputed, never read from the file -------------


def _li_yorke_payload():
    return json.loads(json.dumps(as_payload(li_yorke_pair(ones_past(), 100, P))))


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
    return json.loads(json.dumps(as_payload(cert)))


def _failures_after(payload, mutate):
    assert verify_certificate(payload).ok
    mutate(payload["data"])
    result = verify_certificate(payload)
    assert not result.ok
    return result.failures


def test_sensitivity_stored_eps0_is_recomputed():
    cert = sensitivity_witness(universal_member(ones_past()), 0.25, A2, P)
    payload = json.loads(json.dumps(as_payload(cert)))
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
        assert cert.data["min_bound"] == _li_yorke_min_bound(0.3, horizon)
    # agreement block J = [2**(J+1) - 1, 3*2**J - 2]: J = 4 is [31, 46]
    assert _li_yorke_min_bound(0.5, 46) == 0.5 ** 6
    assert _li_yorke_min_bound(0.5, 45) == 0.5 ** 2
    assert _li_yorke_min_bound(0.5, 9) == 1.0


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
    payload = json.loads(json.dumps(as_payload(cert)))
    seq = payload["data"]["sequence"]
    for _ in range(5000):
        seq = {"kind": "flipped", "base": seq, "m": 2}
    payload["data"]["sequence"] = seq
    with pytest.raises(ValueError):
        sequence_from_payload(seq)
    result = verify_certificate(payload)
    assert not result.ok
    assert result.failures[0].startswith("malformed certificate")
