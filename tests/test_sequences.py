"""Sequence generators, shifting, and the universal enumeration."""

import copy
import pickle
import random
import tracemalloc
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftchaos import (
    Alphabet,
    CylinderSet,
    DistanceBound,
    EventuallyPeriodicSeq,
    FiniteWord,
    FlippedSeq,
    MetricParams,
    SplicedSeq,
    UniversalSeq,
    distance,
    flip,
    locate_block,
    make_universal_sequence,
    periodic,
    periodic_point,
    sequence_from_payload,
    sequence_to_payload,
    splice,
    window_padded,
)
from shiftchaos.sequences import (
    _FLAT_SPLICE_CAP,
    _HEAD,
    _cycle,
    _enumeration,
    enumeration_position,
    enumeration_prefix,
    enumeration_sections,
)

from conftest import _ref_enumeration, random_sequence, scan_for_block


def test_alphabet_rejects_small_m():
    with pytest.raises(ValueError):
        Alphabet(1)


@pytest.mark.parametrize("m", [1, 0, 2.0, "3"])
def test_every_alphabet_check_refuses_with_one_message(m):
    message = f"alphabet needs at least two symbols, got m={m}"
    for build in (Alphabet, UniversalSeq, lambda m: FlippedSeq(UniversalSeq(2), m),
                  lambda m: flip(periodic((1, 2)), m), lambda m: flip(UniversalSeq(2), m)):
        with pytest.raises(ValueError) as err:
            build(m)
        assert str(err.value) == message


def test_finite_word_rejects_zero_symbols():
    with pytest.raises(ValueError):
        FiniteWord((0, 1))
    for symbols in ((300, 0), (300, -1), b"\x01\x00", [-1]):
        with pytest.raises(ValueError):
            FiniteWord(symbols)


@pytest.mark.parametrize("symbols", [(1, 2.0), [2.7], ("1",), "12", (300, 2.0), 5])
def test_finite_word_refuses_symbols_that_are_not_integers(symbols):
    with pytest.raises(TypeError):
        FiniteWord(symbols)


def test_finite_word_stores_bytes_up_to_255_and_a_tuple_above():
    assert FiniteWord((1, 255, 2)).symbols == b"\x01\xff\x02"
    assert FiniteWord(()).symbols == b""
    word = FiniteWord([1, 256, 2])
    assert word.symbols == (1, 256, 2) and all(type(s) is int for s in word.symbols)
    # a slice of a tuple word below the line is bytes again
    assert FiniteWord(word.symbols[2:]).symbols == b"\x02"
    assert repr(FiniteWord(b"\x01\x02")) == "FiniteWord(symbols=(1, 2))"
    assert (list(word), word[1], word[1:], len(word)) == ([1, 256, 2], 256, (256, 2), 3)


@pytest.mark.parametrize("symbols", [(1, 2, 3), (1, 300, 2)], ids=["bytes", "tuple"])
def test_finite_word_inputs_give_one_value(symbols):
    forms = [list(symbols), tuple(symbols), (s for s in symbols), iter(symbols)]
    if max(symbols) <= 255:
        forms += [bytes(symbols), bytearray(symbols)]
    words = [FiniteWord(form) for form in forms]
    assert all(w == words[0] and hash(w) == hash(words[0]) for w in words)
    assert words[0].symbols.__class__ is (bytes if max(symbols) <= 255 else tuple)
    assert pickle.loads(pickle.dumps(words[0])) == words[0]


def _ref_eventually_periodic(left, center, start, right, j):
    """Symbol j of the eventually periodic sequence, read from its definition."""
    if j < start:
        return left[(j - start) % len(left)]
    if j < start + len(center):
        return center[j - start]
    return right[(j - start - len(center)) % len(right)]


@pytest.mark.parametrize(
    "words",
    [
        ((300,), (1, 2), 0, (2, 1)),
        ((1, 2), (3,), 5, (300, 1)),
        ((2,), (300, 1, 2), -2, (1,)),
        ((300, 1), (), 1, (300, 1)),
        ((1,), (2, 2), 0, (1, 2)),
    ],
    ids=["left", "right", "center", "periodic", "none"],
)
def test_spans_of_words_on_both_sides_of_255(words):
    s = EventuallyPeriodicSeq(*words)
    for lo in range(-9, 10):
        for hi in range(lo - 1, 12):
            want = tuple(_ref_eventually_periodic(*words, j) for j in range(lo, hi + 1))
            assert tuple(s.span(lo, hi)) == s.window(lo, hi) == want
            assert s.shift(3).window(lo - 3, hi - 3) == want


def test_a_short_span_of_a_mixed_sequence_copies_no_whole_word():
    # beside a tuple block, a long byte center stays bytes: only the pieces
    # a span joins become tuples
    s = EventuallyPeriodicSeq((300,), (1, 2) * 50_000, 0, (1,))
    tracemalloc.start()
    try:
        assert s.span(-2, 3) == (300, 300, 1, 2, 1, 2)
        assert s.span(1, 4) == b"\x02\x01\x02\x01"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000


def test_periodic_symbol_at():
    s = periodic((1, 2), phase=0)
    assert s.symbol_at(0) == 1
    assert s.symbol_at(1) == 2
    assert s.symbol_at(2) == 1
    assert s.symbol_at(-1) == 2


def test_window_padded_symbol_at():
    s = window_padded((2,), 0, 1)
    assert s.symbol_at(0) == 2
    assert s.symbol_at(5) == 1
    assert s.symbol_at(-3) == 1


def test_eventually_periodic_symbol_at():
    s = EventuallyPeriodicSeq(
        FiniteWord((1, 2)), FiniteWord((3, 3)), 0, FiniteWord((2,))
    )
    # ... 1 2 1 2 | 3 3 | 2 2 2 ... with the center at positions 0..1
    assert s.window(-4, 4) == (1, 2, 1, 2, 3, 3, 2, 2, 2)
    shifted = s.shift(2)
    assert shifted.window(-6, 2) == s.window(-4, 4)


def test_universal_first_positions_contain_both_two_blocks():
    u = make_universal_sequence(Alphabet(2))
    symbols = [u.symbol_at(j) for j in range(16)]
    assert scan_for_block(symbols, (1, 2)) is not None
    assert scan_for_block(symbols, (2, 1)) is not None


def test_universal_enumeration_prefix_is_length_lex():
    u = make_universal_sequence(Alphabet(2))
    assert [u.symbol_at(j) for j in range(10)] == [1, 2, 1, 1, 1, 2, 2, 1, 2, 2]
    # every 2-block occurs within the first 10 symbols
    symbols = [u.symbol_at(j) for j in range(10)]
    for block in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert scan_for_block(symbols, block) is not None


def test_universal_all_length3_words_occur_in_short_prefix():
    u = make_universal_sequence(Alphabet(2))
    # words of length <= 3 span positions 0..33
    symbols = [u.symbol_at(j) for j in range(34)]
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                assert scan_for_block(symbols, (a, b, c)) is not None


def test_universal_m3_block_position_matches_scan():
    pos = enumeration_position(3, 0, (3, 3, 3))
    assert pos == 99  # frozen: start of the (3,3,3) entry in the length-3 section
    prefix = list(_ref_enumeration(3, 0, 120))
    assert tuple(prefix[99:102]) == (3, 3, 3)
    # the scan finds an occurrence no later than the entry itself
    assert scan_for_block(prefix, (3, 3, 3)) <= 99
    u = make_universal_sequence(Alphabet(3))
    assert u.window(99, 101) == (3, 3, 3)


def test_universal_negative_side_is_padded():
    u = make_universal_sequence(Alphabet(2))
    assert all(u.symbol_at(j) == 1 for j in range(-20, 0))


def test_seeded_universal_still_contains_every_word():
    u = UniversalSeq(2, seed=12345)
    for word in ((1, 2, 2), (2, 2, 2, 1)):
        pos = enumeration_position(2, 12345, word)
        assert u.window(pos, pos + len(word) - 1) == word


def test_shift_moves_the_dot_right():
    # window ...1 1 1 . 2 1 1... : symbol 2 at position 1
    s = window_padded((2,), 1, 1)
    assert s.symbol_at(1) == 2
    shifted = s.shift(1)
    assert shifted.symbol_at(0) == 2
    assert shifted.symbol_at(1) == 1


def test_shift_by_zero_is_identity():
    for s in (periodic_point((1, 2)), window_padded((2, 1), -1, 2)):
        assert s.shift(0) == s


def test_periodic_shift_by_period_is_structural_identity():
    s = periodic((1, 2), phase=0)
    assert s.shift(2) == s
    assert s.shift(2).window(-5, 5) == s.window(-5, 5)


def test_shift_preserves_kind():
    cases = [
        periodic_point((1, 2, 2)),
        window_padded((1,), 0, 2),
        UniversalSeq(2),
        SplicedSeq(periodic_point((1,)), UniversalSeq(2)),
        FlippedSeq(periodic_point((2, 1)), 2),
    ]
    for s in cases:
        assert type(s.shift(3)) is type(s)
    assert s.shift(3).shift(-3).window(-8, 8) == s.window(-8, 8)
    assert periodic_point((1, 2, 2)).shift(3).period == 3


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-32, max_value=32),
    st.integers(min_value=-32, max_value=32),
)
def test_shift_group_law(seed, a, b):
    s = random_sequence(random.Random(seed), 2)
    lhs = s.shift(a + b)
    rhs = s.shift(a).shift(b)
    assert lhs.window(-64, 64) == rhs.window(-64, 64)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=-20, max_value=20))
def test_shift_bijectivity_at_finite_depth(seed, n):
    s = random_sequence(random.Random(seed), 3)
    assert s.shift(n).shift(-n).window(-50, 50) == s.window(-50, 50)


def test_locate_block_first_words_match_scan():
    u = make_universal_sequence(Alphabet(2))
    prefix = list(_ref_enumeration(2, 0, 64))
    for word in ((1,), (2,)):
        p = locate_block(u, word)
        assert p == scan_for_block(prefix, word) - 1
        assert u.shift(p).window(1, len(word)) == word
    assert locate_block(u, (1,)) == -1


def test_locate_block_is_positionally_correct():
    u = make_universal_sequence(Alphabet(3))
    for word in ((1, 3, 2), (3, 3, 3, 3), (2,) * 6):
        p = locate_block(u, word)
        assert u.shift(p).window(1, len(word)) == word


def test_locate_block_distinct_words_distinct_positions():
    u = make_universal_sequence(Alphabet(2))
    p1 = locate_block(u, (1, 2, 1))
    p2 = locate_block(u, (2, 1, 2))
    assert p1 != p2
    assert u.shift(p1).window(1, 3) == (1, 2, 1)
    assert u.shift(p2).window(1, 3) == (2, 1, 2)


def test_locate_block_rejects_non_universal():
    with pytest.raises(TypeError):
        locate_block(periodic_point((1, 2)), (1,))


def test_universal_density_all_short_words_locatable():
    for m in (2, 3):
        u = make_universal_sequence(Alphabet(m))
        for length in range(1, 9):
            for num in range(m ** length):
                digits = []
                x = num
                for _ in range(length):
                    x, d = divmod(x, m)
                    digits.append(d + 1)
                word = tuple(reversed(digits))
                p = locate_block(u, word)
                assert u.shift(p).window(1, length) == word


def test_periodic_point_constant_block():
    s = periodic_point((1,))
    assert s.window(-10, 10) == (1,) * 21


def test_periodic_point_alignment_and_period():
    s = periodic_point((1, 2))
    assert s.window(1, 2) == (1, 2)
    assert s.shift(2).window(-10, 10) == s.window(-10, 10)


def test_periodic_point_period_three_not_one():
    s = periodic_point((1, 2, 2))
    shifted3 = s.shift(3)
    shifted1 = s.shift(1)
    assert shifted3.window(-20, 20) == s.window(-20, 20)
    assert shifted1.window(-20, 20) != s.window(-20, 20)


def test_periodic_point_rejects_empty_block():
    with pytest.raises(ValueError):
        periodic_point(())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30), st.integers(min_value=-100, max_value=100))
def test_periodicity_holds_at_every_position(seed, j):
    block = tuple(random.Random(seed).randint(1, 3) for _ in range(seed % 4 + 1))
    s = periodic_point(block)
    assert s.symbol_at(j) == s.symbol_at(j + len(block))


def test_spliced_reads_past_and_future():
    s = SplicedSeq(periodic_point((2,)), UniversalSeq(2))
    assert s.window(-3, 0) == (2, 2, 2, 2)
    assert s.window(1, 3) == (2, 1, 1)  # enumeration positions 1..3


def test_flipped_differs_everywhere():
    base = random_sequence(random.Random(5), 3)
    flipped = FlippedSeq(base, 3)
    assert all(
        flipped.symbol_at(j) != base.symbol_at(j) and 1 <= flipped.symbol_at(j) <= 3
        for j in range(-30, 31)
    )


def test_window_matches_symbol_at(rng):
    for _ in range(40):
        s = random_sequence(rng, 3)
        lo = rng.randint(-30, 0)
        hi = lo + rng.randint(0, 25)
        assert s.window(lo, hi) == tuple(s.symbol_at(j) for j in range(lo, hi + 1))


def test_payload_round_trip(rng):
    for _ in range(30):
        s = random_sequence(rng, 3)
        restored = sequence_from_payload(sequence_to_payload(s))
        assert restored == s
    composite = SplicedSeq(periodic_point((1, 2)), FlippedSeq(UniversalSeq(2), 2), 3)
    assert sequence_from_payload(sequence_to_payload(composite)) == composite


def test_periodic_sequences_are_written_as_the_periodic_kind():
    s = periodic((1, 2, 2), 5)
    payload = sequence_to_payload(s)
    assert payload == {"kind": "periodic", "block": list(s.right_block), "phase": 1}
    assert sequence_from_payload(payload) == s
    assert sequence_to_payload(window_padded((2,), 0))["kind"] == "eventually_periodic"


# One payload of each kind whose integer fields hold 1 (m: 2), so that true
# would compare equal to the value it replaces.
_INTEGER_FIELDS = [
    ({"kind": "periodic", "block": [1, 2], "phase": 1}, ("phase",)),
    ({"kind": "eventually_periodic", "left_block": [1], "center": [2], "center_start": 1,
      "right_block": [2, 1]}, ("center_start",)),
    ({"kind": "window_padded", "window": [2], "start": 1, "pad": 2}, ("start",)),
    ({"kind": "universal", "m": 2, "seed": 1, "offset": 1}, ("m",)),
    ({"kind": "universal", "m": 2, "seed": 1, "offset": 1}, ("seed",)),
    ({"kind": "universal", "m": 2, "seed": 1, "offset": 1}, ("offset",)),
    ({"kind": "spliced", "past": {"kind": "periodic", "block": [2], "phase": 1},
      "future": {"kind": "universal", "m": 2, "seed": 0, "offset": 0}, "offset": 1},
     ("offset",)),
    ({"kind": "flipped", "base": {"kind": "universal", "m": 2, "seed": 0, "offset": 0}, "m": 2},
     ("m",)),
    ({"kind": "flipped", "base": {"kind": "periodic", "block": [1, 2], "phase": 1}, "m": 2},
     ("base", "phase")),
]


@pytest.mark.parametrize("value", [True, 1.0, "1", None], ids=["true", "float", "string", "null"])
@pytest.mark.parametrize(
    "payload, keys", _INTEGER_FIELDS,
    ids=["periodic-phase", "eventually-periodic-center_start", "window-padded-start",
         "universal-m", "universal-seed", "universal-offset", "spliced-offset", "flipped-m",
         "flipped-base-phase"],
)
def test_payload_integer_fields_refuse_other_types(payload, keys, value):
    sequence_from_payload(payload)  # reads as stored
    tampered = copy.deepcopy(payload)
    *path, last = keys
    node = tampered
    for key in path:
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError, match=f"{last} is not an integer"):
        sequence_from_payload(tampered)


# ---------------------------------------------------------------------------
# Bulk windows against oracles that do not share their code: slices of the
# word-by-word enumeration `_ref_enumeration`, the entry positions of
# `enumeration_position`, and the per-position reader `_ref_symbol` below.
# ---------------------------------------------------------------------------

PREFIX_LEN = 6000

ref_prefix = lru_cache(maxsize=None)(_ref_enumeration)


def prefix_window(m, seed, offset, lo, hi):
    prefix = ref_prefix(m, seed, PREFIX_LEN)
    return tuple(1 if j + offset < 0 else prefix[j + offset] for j in range(lo, hi + 1))


def section_start(m, length):
    return sum(l * m ** l for l in range(1, length))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.sampled_from((0, 2 ** 63)),
    st.integers(min_value=-300, max_value=3000),
    st.integers(min_value=-400, max_value=2000),
    st.integers(min_value=-3, max_value=600),
)
def test_universal_window_matches_enumeration_prefix(m, seed, offset, lo, width):
    hi = lo + width - 1
    u = UniversalSeq(m, seed, offset)
    assert u.window(lo, hi) == prefix_window(m, seed, offset, lo, hi)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_universal_window_edges(m, seed):
    u = UniversalSeq(m, seed)
    assert u.window(5, 4) == ()
    assert u.window(3, -3) == ()
    assert u.window(-9, -1) == (1,) * 9
    assert u.shift(-50).window(10, 40) == (1,) * 31
    assert u.window(-1, -1) == (1,)
    # every section boundary inside the prefix, crossed by one window
    for length in range(2, 8):
        boundary = section_start(m, length)
        if boundary + 40 > PREFIX_LEN:
            break
        for lo in (boundary - 2 * length, boundary - 1, boundary):
            assert u.window(lo, lo + 40) == prefix_window(m, seed, 0, lo, lo + 40)
            assert (u.symbol_at(lo),) == prefix_window(m, seed, 0, lo, lo)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_universal_window_at_large_offsets(m, seed):
    length = 1
    while section_start(m, length + 1) <= 10 ** 9:
        length += 1
    u = UniversalSeq(m, seed)
    rng = random.Random(m * 7 + seed % 5)
    for _ in range(20):
        word = tuple(rng.randint(1, m) for _ in range(length))
        pos = enumeration_position(m, seed, word)
        assert 10 ** 8 < pos < 10 ** 10
        before, after = rng.randint(0, 3 * length), rng.randint(0, 3 * length)
        got = u.window(pos - before, pos + length - 1 + after)
        assert len(got) == before + length + after
        assert got[before : before + length] == word
        assert u.shift(pos - 1).window(1, length) == word
    # the last entry of one deep section and the first entry of the next
    boundary = section_start(m, length + 1)
    last = u.window(boundary - length, boundary - 1)
    first = u.window(boundary, boundary + length)
    assert enumeration_position(m, seed, last) == boundary - length
    assert enumeration_position(m, seed, first) == boundary
    assert u.window(boundary - length, boundary + length) == last + first


@pytest.mark.parametrize("m", [2, 3, 255, 256, 300])
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_span_at_the_closed_form_position_reads_the_word(m, seed):
    u = UniversalSeq(m, seed)
    rng = random.Random(m * 31 + seed % 7)
    lengths = [1, 2, 3, 2000] + [rng.randint(1, 2000) for _ in range(8)]
    for length in lengths:
        word = tuple(rng.randint(1, m) for _ in range(length))
        pos = enumeration_position(m, seed, word)
        assert tuple(u.span(pos, pos + length - 1)) == word
        before, after = rng.randint(0, 2 * length), rng.randint(0, 2 * length)
        got = tuple(u.span(pos - before, pos + length - 1 + after))
        assert len(got) == before + length + after and got[before : before + length] == word
        # the last entry of this section and the first of the next, read in one span
        boundary = section_start(m, length + 1)
        both = u.span(boundary - length, boundary + length)
        assert enumeration_position(m, seed, both[:length]) == boundary - length
        assert enumeration_position(m, seed, both[length:]) == boundary


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 4)),
    st.lists(st.integers(min_value=1, max_value=4), max_size=8),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-3, max_value=60),
)
def test_padded_and_periodic_windows_match_per_position_loop(m, symbols, anchor, pad, lo, width):
    word = tuple(min(s, m) for s in symbols)
    hi = lo + width - 1
    pad = min(pad, m)
    cases = [(window_padded(word, anchor, pad), ("padded", word, anchor, pad))]
    if word:
        cases.append((periodic(word, anchor), ("periodic", word, anchor)))
        parts = (word, word[1:], anchor, (pad,) + word)
        cases.append((EventuallyPeriodicSeq(*parts), ("ep",) + parts))
    for s, node in cases:
        assert s.window(lo, hi) == tuple(_ref_symbol(node, j) for j in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# The column-built enumeration prefix against the word-by-word generator of
# the tests and against the walker behind `UniversalSeq.window`.
# ---------------------------------------------------------------------------

REF_LEN = 140_000


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 255])
@pytest.mark.parametrize("seed", [0, 1, 3, 11, 2 ** 63])
def test_enumeration_prefix_matches_the_word_by_word_reference(m, seed):
    ref = _ref_enumeration(m, seed, REF_LEN)
    counts = {0, 1, REF_LEN}
    length = 2
    while section_start(m, length) < REF_LEN:  # each section boundary, +-1
        boundary = section_start(m, length)
        counts |= {boundary - 1, boundary, boundary + 1}
        length += 1
    for count in sorted(counts):
        assert enumeration_prefix(m, seed, count) == ref[:count], count


@pytest.mark.parametrize("m", [2, 3, 255])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 63])
def test_windows_built_alone_match_the_word_by_word_reference(m, seed):
    rng = random.Random(m * 1000 + seed % 997)
    windows = [(rng.randrange(1 << 21), rng.randint(1, 300)) for _ in range(60)]
    length = 2
    while section_start(m, length) < 1 << 21:  # each section boundary, +-1
        boundary = section_start(m, length)
        for lo in (boundary - 1, boundary, boundary + 1):
            windows += [(lo, 1), (lo, rng.randint(2, 300))]
        windows.append((max(boundary - 40, 0), min(boundary, 40)))  # ends at the boundary
        length += 1
    for lo, count in windows:
        assert _enumeration(m, seed, lo, count) == _ref_enumeration(m, seed, count, lo), lo


@pytest.mark.parametrize("m", [2, 255])
@pytest.mark.parametrize("seed", [0, 3])
def test_enumeration_prefix_work_memory_is_about_two_copies(m, seed):
    count = 1 << 21
    tracemalloc.start()
    try:
        enumeration_prefix.__wrapped__(m, seed, count)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * count + 64 * 1024


def test_enumeration_prefix_serves_every_alphabet():
    assert enumeration_prefix(255, 0, 300)[254:256] == bytes((255, 1))
    head = enumeration_prefix(256, 0, 10)
    assert head.__class__ is tuple and head == _ref_enumeration(256, 0, 10)


@pytest.mark.parametrize("m", [2, 3, 255, 2 ** 70])
def test_section_walk_matches_the_brute_sum(m):
    walk = list(islice(enumeration_sections(m), 50))
    assert walk == [(length, section_start(m, length), m ** length) for length in range(1, 51)]


# ---------------------------------------------------------------------------
# The cached enumeration head, read by a family of shifted copies, and the
# windows built alone past it.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 2 ** 63])
def test_shifted_family_shares_one_head(m, seed):
    u = UniversalSeq(m, seed)
    prefix = _ref_enumeration(m, seed, 80002)

    def expected(lo, hi):  # enumeration positions, 1-padded below 0
        return tuple(1 if j < 0 else prefix[j] for j in range(lo, hi + 1))

    family = [u.shift(n) for n in (0, 1, 7, 60, 700, 4000)]
    # (first, last enumeration position read): windows inside the head,
    # ending at its last symbol or one or two past it, and far past it
    steps = [
        (1, 40), (-5, 99), (50, 150), (100, 199), (201, 300), (700, 800), (500, 799),
        (0, 3000), (3003, 6500), (3002, 7000), (20000, 30000), (6100, 12003),
        (1, 12003), (-1, 40000), (45000, 80001),
        (60000, _HEAD - 1), (_HEAD - 5, _HEAD), (-3, _HEAD + 1), (_HEAD, _HEAD + 9),
    ]
    for i, (lo, hi) in enumerate(steps):
        s = family[i % len(family)]
        assert s.window(lo - s.offset, hi - s.offset) == expected(lo, hi)


@pytest.mark.parametrize("m", [256, 300])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 63])
def test_universal_windows_above_255_symbols_match_the_reference(m, seed):
    u = UniversalSeq(m, seed)
    assert u.window(-3, 40) == (1,) * 3 + _ref_enumeration(m, seed, 41)
    assert u.shift(-10).window(5, 20) == (1,) * 5 + _ref_enumeration(m, seed, 11)
    rng = random.Random(m + seed % 991)
    starts = [rng.randrange(10 ** 6, 10 ** 9) for _ in range(5)]
    for boundary in (section_start(m, 2), section_start(m, 3)):
        starts += [boundary - 7, boundary - 1, boundary, boundary + 1]
    starts += [_HEAD - 13, _HEAD - 12, _HEAD - 7, _HEAD, _HEAD + 1]  # both sides of the head
    for lo in starts:
        assert u.window(lo, lo + 12) == _ref_enumeration(m, seed, 13, lo), lo
        assert u.shift(lo).symbol_at(0) == _ref_enumeration(m, seed, 1, lo)[0]


def test_universal_spans_past_64_bit_symbols_match_the_reference():
    m, seed = 2 ** 70, 99999999999
    u = UniversalSeq(m, seed)
    assert u.span(0, 60) == _ref_enumeration(m, seed, 61)
    assert u.span(m - 3, m + 8) == _ref_enumeration(m, seed, 12, m - 3)  # into the pairs


def test_head_is_not_part_of_identity():
    u = UniversalSeq(3, 2 ** 63, 4)
    u.window(0, 3000)  # reads the cached head
    back = u.shift(5).shift(-5)
    fresh = UniversalSeq(3, 2 ** 63, 4)
    assert back == u == fresh
    assert hash(back) == hash(u) == hash(fresh)
    assert sequence_from_payload(sequence_to_payload(u)) == u
    assert sequence_to_payload(u) == {"kind": "universal", "m": 3, "seed": 2 ** 63, "offset": 4}
    assert repr(u) == "UniversalSeq(m=3, seed=9223372036854775808, offset=4)"


# ---------------------------------------------------------------------------
# One eventually periodic kind: splices and flips of eventually periodic
# inputs come out flat and canonical.  The oracle reads a description tree
# position by position, sharing no code with the library.
# ---------------------------------------------------------------------------


def _ref_symbol(node, j):
    kind = node[0]
    if kind == "periodic":
        _, block, phase = node
        return block[(j - phase) % len(block)]
    if kind == "padded":
        _, word, start, pad = node
        return word[j - start] if start <= j < start + len(word) else pad
    if kind == "ep":
        _, left, center, start, right = node
        if start <= j < start + len(center):
            return center[j - start]
        if j < start:
            return left[(j - start) % len(left)]
        return right[(j - start - len(center)) % len(right)]
    if kind == "splice":
        _, past, future, offset = node
        return _ref_symbol(past if j + offset <= 0 else future, j + offset)
    if kind == "flip":
        _, base, m = node
        return _ref_symbol(base, j) % m + 1
    _, base, steps = node  # "shift"
    return _ref_symbol(base, j + steps)


def _random_tree(rng, m, depth):
    """(description, tree of SplicedSeq / FlippedSeq, flat form), shifted."""
    def word(n):
        return tuple(rng.randint(1, m) for _ in range(n))

    kind = rng.randrange(5 if depth else 3)
    if kind == 0:
        block, phase = word(rng.randint(1, 4)), rng.randint(-5, 5)
        node, tree = ("periodic", block, phase), periodic(block, phase)
        flat = tree
    elif kind == 1:
        w, start, pad = word(rng.randint(0, 5)), rng.randint(-6, 6), rng.randint(1, m)
        node, tree = ("padded", w, start, pad), window_padded(w, start, pad)
        flat = tree
    elif kind == 2:
        parts = word(rng.randint(1, 3)), word(rng.randint(0, 4)), rng.randint(-4, 4), word(rng.randint(1, 3))
        node, tree = ("ep",) + parts, EventuallyPeriodicSeq(*parts)
        flat = tree
    elif kind == 3:
        (pn, pt, pf), (fn, ft, ff) = _random_tree(rng, m, depth - 1), _random_tree(rng, m, depth - 1)
        offset = rng.randint(-5, 5)
        node, tree, flat = ("splice", pn, fn, offset), SplicedSeq(pt, ft, offset), splice(pf, ff, offset)
    else:
        bn, bt, bf = _random_tree(rng, m, depth - 1)
        node, tree, flat = ("flip", bn, m), FlippedSeq(bt, m), flip(bf, m)
    steps = rng.randint(-8, 8)
    return ("shift", node, steps), tree.shift(steps), flat.shift(steps)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from((2, 3)))
def test_splices_and_flips_of_eventually_periodic_trees_are_flat(seed, m):
    node, tree, flat = _random_tree(random.Random(seed), m, 3)
    expected = tuple(_ref_symbol(node, j) for j in range(-40, 41))
    assert isinstance(flat, EventuallyPeriodicSeq)
    assert flat.window(-40, 40) == tree.window(-40, 40) == expected
    # a payload of the tree reads back as the same flat form
    assert sequence_from_payload(sequence_to_payload(tree)) == flat


@pytest.mark.parametrize(
    "a, b",
    [
        (window_padded((1,), 0, 1), window_padded((), 0, 1)),
        (window_padded((2, 1, 1), -1, 1), window_padded((2,), -1, 1)),
        (periodic((1, 2), 0), periodic((2, 1), 1)),
        (EventuallyPeriodicSeq((1, 2), (1, 2), 5, (1, 2)), periodic_point((1, 2))),
        (splice(periodic((2,)), window_padded((2, 1, 2))), EventuallyPeriodicSeq((2,), (1, 2), 2, (1,))),
        # an empty center between different blocks: the right block
        # continues the left one for a while, or forever
        (EventuallyPeriodicSeq((1,), (), 1, (1, 2)), EventuallyPeriodicSeq((1,), (1,), 1, (2, 1))),
        (EventuallyPeriodicSeq((1,), (), 3, (1, 1)), EventuallyPeriodicSeq((1,), (1, 1, 1), -2, (1, 1))),
    ],
)
def test_two_descriptions_of_one_sequence_are_equal(a, b):
    assert a == b
    assert distance(a, b, MetricParams(0.3)) == DistanceBound(0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32), st.sampled_from((2, 3)))
def test_canonical_form_is_unique_for_given_block_lengths(seed, m):
    """Any center window [a, b] around the stored one, read off the
    sequence with blocks of the same lengths, describes the same value."""
    rng = random.Random(seed)
    parts = [tuple(rng.randint(1, m) for _ in range(rng.randint(lo, hi))) for lo, hi in ((1, 3), (0, 4), (1, 3))]
    s = EventuallyPeriodicSeq(parts[0], parts[1], rng.randint(-4, 4), parts[2])
    a = min(s.center_start, 1) - rng.randint(0, 6)
    b = max(s.center_end, a - 1) + rng.randint(0, 6)
    p, q = len(s.left_block), len(s.right_block)
    other = EventuallyPeriodicSeq(s.window(a - p, a - 1), s.window(a, b), a, s.window(b + 1, b + q))
    assert other == s


@settings(max_examples=300, deadline=None)
@given(block=st.lists(st.integers(1, 300), min_size=1, max_size=8),
       cut=st.integers(-20, 20), count=st.integers(-3, 30), packed=st.booleans())
def test_cycle_equals_the_rotate_and_repeat_formula(block, cut, count, packed):
    block = bytes(b % 256 for b in block) if packed else tuple(block)
    rotated = block[cut % len(block):] + block[: cut % len(block)]
    expected = (rotated * -(-count // len(block)))[:count]
    got = _cycle(block, cut, count)
    assert type(got) is type(block) and got == expected


def test_splice_stays_lazy_past_the_flat_cap():
    far = _FLAT_SPLICE_CAP
    near = window_padded((2,), 1 - far)  # the flat center spans positions 1 - far..0
    assert isinstance(splice(near, window_padded(())), EventuallyPeriodicSeq)
    past = window_padded((2,), -far)
    lazy = splice(past, window_padded(()))
    assert lazy == SplicedSeq(past, window_padded(()))
    assert lazy.window(-far - 2, 3) == (1, 1, 2) + (1,) * (far + 3)
    future = window_padded((2,), far + 1)
    assert isinstance(splice(periodic((1,)), future, 5), SplicedSeq)


def test_periodic_form_keeps_the_old_tails_and_block_length():
    s = periodic((2, 1, 1, 2), -7)
    assert (s.center, s.center_start, s.period) == (FiniteWord(()), 1, 4)
    assert (s.left_tail(), s.right_tail()) == ((0, 4), (1, 4))
    assert periodic((1, 1, 1)).period == 3  # never a shorter period


def test_shift_keeps_the_center_length(rng):
    for _ in range(40):
        s = random_sequence(rng, 3)
        if not isinstance(s, EventuallyPeriodicSeq):
            continue
        for n in (1, -3, 17, 10 ** 12):
            shifted = s.shift(n)
            assert len(shifted.center) == len(s.center)
            assert shifted.center_start == (1 if s.period else s.center_start - n)
            assert shifted.shift(-n) == s


# ---------------------------------------------------------------------------
# Value semantics of the immutable values (the FrozenValue base)
# ---------------------------------------------------------------------------

VALUES = [
    Alphabet(3),
    FiniteWord((1, 2)),
    EventuallyPeriodicSeq((1, 2), (2, 1, 1), -1, (2,)),
    UniversalSeq(2, 0, 5),
    SplicedSeq(UniversalSeq(2), periodic((1,)), 3),
    FlippedSeq(UniversalSeq(2), 2),
    CylinderSet((1, 2), -1),
    MetricParams(0.25),
    DistanceBound(0.25, 0.0),
]
VALUE_IDS = [type(v).__name__ for v in VALUES]


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
def test_values_refuse_assignment_and_deletion(value):
    before = repr(value)
    for name in (*value._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize("value", VALUES, ids=VALUE_IDS)
def test_equal_values_are_equal_and_hash_equal(value):
    twin = type(value)(*(getattr(value, name) for name in value._fields))
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))


def test_values_of_different_classes_never_compare_equal():
    class Twin(UniversalSeq):
        __slots__ = ()

    u = UniversalSeq(2, 0, 5)
    assert Twin(2, 0, 5) == Twin(2, 0, 5)
    assert u != Twin(2, 0, 5) and Twin(2, 0, 5) != u
    assert u != SplicedSeq(u, u, 5) and u != FlippedSeq(u, 2)
    # a one-field value is not its field, nor is a value the tuple of its fields
    assert FiniteWord((1, 2)) != (1, 2) and MetricParams(0.5) != 0.5
    assert DistanceBound(0.5, 0.0) != (0.5, 0.0)
    assert len({FiniteWord((1, 2)), (1, 2), MetricParams(0.5), 0.5}) == 4


def test_canonical_forms_compare_and_hash_equal():
    a = EventuallyPeriodicSeq((1,), (), 1, (1, 2))
    b = EventuallyPeriodicSeq((1,), (1,), 1, (2, 1))
    assert a == b and hash(a) == hash(b)
    c, d = periodic((1, 2), 0), periodic((2, 1), 1)
    assert c == d and hash(c) == hash(d)
    assert {a: "x"}[b] == "x"


def test_repr_keeps_the_field_text():
    assert repr(UniversalSeq(2, 3, 5)) == "UniversalSeq(m=2, seed=3, offset=5)"
    assert repr(EventuallyPeriodicSeq((1, 2), (2, 1, 1), -1, (2,))) == (
        "EventuallyPeriodicSeq(left_block=FiniteWord(symbols=(1, 2)), "
        "center=FiniteWord(symbols=(2, 1, 1)), center_start=-1, "
        "right_block=FiniteWord(symbols=(2,)))"
    )
    assert repr(DistanceBound(0.25, 0.0)) == "DistanceBound(value=0.25, error=0.0)"
    assert repr(CylinderSet((1, 2), -1)) == "CylinderSet(fixed=FiniteWord(symbols=(1, 2)), start=-1)"


def test_constructors_keep_their_defaults_and_keywords():
    assert MetricParams() == MetricParams(0.5) == MetricParams(r=0.5)
    assert UniversalSeq(2) == UniversalSeq(m=2, seed=0, offset=0) == UniversalSeq(2, 0)
    assert SplicedSeq(periodic((1,)), periodic((2,))).offset == 0
    assert CylinderSet((1,)).start == 1
    assert EventuallyPeriodicSeq(
        left_block=(1,), center=(2,), center_start=0, right_block=(1,)
    ) == window_padded((2,), 0)
    with pytest.raises(TypeError):
        UniversalSeq(2, bogus=1)
    with pytest.raises(TypeError):
        DistanceBound(0.5)
