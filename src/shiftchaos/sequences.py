"""Bi-infinite symbol sequences over a finite alphabet.

A sequence assigns a symbol from ``{1, ..., m}`` to every integer position.
Positions are written with a dot between 0 and 1,

    ... s(-2) s(-1) s(0) . s(1) s(2) ...

so positions >= 1 form the future and positions <= 0 the past.  Shifting by
``t`` moves the dot ``t`` steps to the right: position ``j`` of the shifted
sequence reads position ``j + t`` of the original.

Arbitrary bi-infinite sequences are not computable objects, so this module
restricts to finitely describable generators.  Four public kinds cover every
construction needed by the chaos certificates:

* :class:`PeriodicSeq` - one block repeated over all of Z;
* :class:`EventuallyPeriodicSeq` - a finite center with periodic tails;
* :class:`WindowPaddedSeq` - a finite window, constant elsewhere;
* :class:`UniversalSeq` - every finite word, concatenated in
  length-lexicographic order on the nonnegative side, padded with 1 on the
  negative side.  Occurrence positions have closed forms, which keeps block
  location exact at any depth.

Two derived combinators, :class:`SplicedSeq` (glue a past and a future at
the dot) and :class:`FlippedSeq` (pointwise symbol increment mod m), are
used to assemble witnesses such as "the member of an unstable set whose
future is the universal enumeration".  Both are closed under shifting.

``window(lo, hi)`` is the bulk path, and the metric and the certificates
read sequences through it.  Periodic and window-padded sequences answer with
tuple slices; the universal sequence locates its start section once and then
walks the enumeration entry by entry, carrying on a digit list.  Its
``symbol_at`` is a one-position window.  A universal sequence and all its
shifted copies share one memoized head of the enumeration.  Windows that end
inside the head are slices.  A window that starts at most one symbol past
the head's end (a shifted copy's past reaches enumeration position 0, the
unshifted future starts at 1), or ends inside twice the head's length,
first extends the head to its own end or to twice the length, whichever is
more.  Other windows, such as those near 10**10, walk.

All values are immutable (the shared head is a memo that changes no value);
every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product


@dataclass(frozen=True)
class Alphabet:
    """Symbol set {1, ..., m}."""

    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 2:
            raise ValueError(f"alphabet needs at least two symbols, got m={self.m}")

    def symbols(self) -> range:
        return range(1, self.m + 1)


@dataclass(frozen=True)
class FiniteWord:
    """An ordered, finite tuple of symbols."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        syms = tuple(int(s) for s in self.symbols)
        if any(s < 1 for s in syms):
            raise ValueError(f"symbols are 1-based, got {syms}")
        object.__setattr__(self, "symbols", syms)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def validate(self, alphabet: Alphabet) -> None:
        bad = [s for s in self.symbols if s > alphabet.m]
        if bad:
            raise ValueError(f"symbols {bad} exceed alphabet bound m={alphabet.m}")


def as_word(w) -> FiniteWord:
    """Coerce a FiniteWord or any iterable of symbols to a FiniteWord."""
    if isinstance(w, FiniteWord):
        return w
    return FiniteWord(tuple(w))


class BiSequence:
    """Base class for bi-infinite sequences.  Subclasses are immutable."""

    def symbol_at(self, j: int) -> int:
        raise NotImplementedError

    def shift(self, steps: int) -> "BiSequence":
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Symbols at positions lo..hi inclusive (empty tuple if lo > hi)."""
        return tuple(self.symbol_at(j) for j in range(lo, hi + 1))

    # Tail descriptors drive the exact closed forms in the metric module.
    # right_tail() -> (start, period) with s(j + period) == s(j) for all
    # j >= start, or None when no finite description exists (universal
    # futures).  left_tail() mirrors this: s(j - period) == s(j) for all
    # j <= start.

    def right_tail(self) -> tuple[int, int] | None:
        return None

    def left_tail(self) -> tuple[int, int] | None:
        return None


@dataclass(frozen=True)
class PeriodicSeq(BiSequence):
    """Bi-infinite repetition of a block; block[0] sits at position `phase`."""

    block: FiniteWord
    phase: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "block", as_word(self.block))
        if len(self.block) == 0:
            raise ValueError("periodic sequence needs a nonempty block")
        object.__setattr__(self, "phase", self.phase % len(self.block))

    @property
    def period(self) -> int:
        return len(self.block)

    def symbol_at(self, j: int) -> int:
        return self.block[(j - self.phase) % self.period]

    def shift(self, steps: int) -> "PeriodicSeq":
        return PeriodicSeq(self.block, self.phase - steps)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        count = hi - lo + 1
        if count <= 0:
            return ()
        cut = (lo - self.phase) % self.period
        rotated = self.block.symbols[cut:] + self.block.symbols[:cut]
        return (rotated * -(-count // self.period))[:count]

    def right_tail(self) -> tuple[int, int]:
        return (1, self.period)

    def left_tail(self) -> tuple[int, int]:
        return (0, self.period)


@dataclass(frozen=True)
class WindowPaddedSeq(BiSequence):
    """A fixed finite window starting at `start`; constant `pad` elsewhere."""

    window_word: FiniteWord
    start: int = 1
    pad: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "window_word", as_word(self.window_word))
        if self.pad < 1:
            raise ValueError("pad symbol is 1-based")

    @property
    def end(self) -> int:
        return self.start + len(self.window_word) - 1

    def symbol_at(self, j: int) -> int:
        if self.start <= j <= self.end:
            return self.window_word[j - self.start]
        return self.pad

    def shift(self, steps: int) -> "WindowPaddedSeq":
        return WindowPaddedSeq(self.window_word, self.start - steps, self.pad)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        if hi < lo:
            return ()
        a, b = max(lo, self.start), min(hi, self.end)
        if a > b:
            return (self.pad,) * (hi - lo + 1)
        inner = self.window_word.symbols[a - self.start : b - self.start + 1]
        return (self.pad,) * (a - lo) + inner + (self.pad,) * (hi - b)

    def right_tail(self) -> tuple[int, int]:
        return (self.end + 1, 1)

    def left_tail(self) -> tuple[int, int]:
        return (self.start - 1, 1)


@dataclass(frozen=True)
class EventuallyPeriodicSeq(BiSequence):
    """A finite center word with periodic blocks repeating on both sides.

    The center occupies positions [center_start, center_start + len - 1];
    `right_block` repeats to +infinity immediately after it and `left_block`
    repeats to -infinity immediately before it (its last symbol adjacent to
    the center).
    """

    left_block: FiniteWord
    center: FiniteWord
    center_start: int
    right_block: FiniteWord

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_block", as_word(self.left_block))
        object.__setattr__(self, "center", as_word(self.center))
        object.__setattr__(self, "right_block", as_word(self.right_block))
        if len(self.left_block) == 0 or len(self.right_block) == 0:
            raise ValueError("tail blocks must be nonempty")

    @property
    def center_end(self) -> int:
        return self.center_start + len(self.center) - 1

    def symbol_at(self, j: int) -> int:
        if self.center_start <= j <= self.center_end:
            return self.center[j - self.center_start]
        if j > self.center_end:
            return self.right_block[(j - self.center_end - 1) % len(self.right_block)]
        return self.left_block[(j - self.center_start) % len(self.left_block)]

    def shift(self, steps: int) -> "EventuallyPeriodicSeq":
        return EventuallyPeriodicSeq(
            self.left_block, self.center, self.center_start - steps, self.right_block
        )

    def right_tail(self) -> tuple[int, int]:
        return (self.center_end + 1, len(self.right_block))

    def left_tail(self) -> tuple[int, int]:
        return (self.center_start - 1, len(self.left_block))


# ---------------------------------------------------------------------------
# Universal enumeration arithmetic.
#
# The enumeration lists every word over {1..m} in order of increasing length
# (length-lexicographic within a nonzero `seed` rotation of each length
# class) and concatenates them at nonnegative positions.  Every quantity
# below has a closed form, so symbols and occurrence positions at indexes
# far beyond anything materializable remain exact.
# ---------------------------------------------------------------------------


def _rotation(m: int, seed: int, length: int) -> int:
    if seed == 0:
        return 0
    return ((seed ^ (length * 0x9E3779B9)) * 2654435761) % (m ** length)


def _section_locate(m: int, pos: int) -> tuple[int, int]:
    """Return (length, section_start) of the enumeration section holding pos."""
    length, start = 1, 0
    while True:
        size = length * m ** length
        if pos < start + size:
            return length, start
        start += size
        length += 1


def _enum_window(m: int, seed: int, lo: int, hi: int) -> tuple[int, ...]:
    """Enumeration symbols at positions lo..hi (0 <= lo), walked section by
    section: the first entry's digits come from its number, and each next
    entry of the section is the previous one plus 1 mod m**length, carried
    on the digit list."""
    if hi < lo:
        return ()
    length, start = _section_locate(m, lo)
    index, skip = divmod(lo - start, length)
    need = skip + hi - lo + 1
    out: list[int] = []
    while True:
        size = m ** length
        num = (index + _rotation(m, seed, length)) % size
        digits = []
        for _ in range(length):
            num, d = divmod(num, m)
            digits.append(d + 1)
        digits.reverse()
        entries = min(size - index, -(-(need - len(out)) // length))
        for _ in range(entries):
            out.extend(digits)
            k = length - 1
            while k >= 0 and digits[k] == m:
                digits[k] = 1
                k -= 1
            if k >= 0:
                digits[k] += 1
        if len(out) >= need:
            return tuple(out[skip:need])
        length += 1
        index = 0


def enumeration_position(m: int, seed: int, word) -> int:
    """Position of the first symbol of `word`'s own entry in the enumeration."""
    w = as_word(word)
    length = len(w)
    if length == 0:
        raise ValueError("cannot locate the empty word")
    start = sum(l * m ** l for l in range(1, length))
    num = 0
    for s in w:
        if s > m:
            raise ValueError(f"symbol {s} outside alphabet of size {m}")
        num = num * m + (s - 1)
    index = (num - _rotation(m, seed, length)) % (m ** length)
    return start + length * index


@lru_cache(maxsize=8)
def enumeration_prefix(m: int, seed: int, count: int) -> bytes:
    """First `count` symbols of the enumeration, as bytes with values 1..m."""
    out = bytearray()
    length = 1
    while len(out) < count:
        size = m ** length
        if seed == 0:
            for w in product(range(1, m + 1), repeat=length):
                out.extend(w)
                if len(out) >= count:
                    break
        else:
            rot = _rotation(m, seed, length)
            for i in range(size):
                num = (i + rot) % size
                digits = []
                for _ in range(length):
                    num, d = divmod(num, m)
                    digits.append(d + 1)
                out.extend(reversed(digits))
                if len(out) >= count:
                    break
        length += 1
    return bytes(out[:count])


@dataclass(frozen=True)
class UniversalSeq(BiSequence):
    """The enumeration of all finite words at nonnegative positions, 1-padded
    on the negative side.  `offset` tracks shifting; `seed` rotates each
    length class of the enumeration (0 keeps plain length-lex order).

    `head` boxes one memoized head of the enumeration, as a tuple in a
    one-element list.  Shifted copies share the box, so a family of copies
    (an orbit) reads one head, which grows as windows reach past it."""

    m: int
    seed: int = 0
    offset: int = 0
    head: list = field(default_factory=lambda: [()], compare=False, repr=False)

    def __post_init__(self) -> None:
        Alphabet(self.m)

    def symbol_at(self, j: int) -> int:
        return self.window(j, j)[0]

    def shift(self, steps: int) -> "UniversalSeq":
        return UniversalSeq(self.m, self.seed, self.offset + steps, self.head)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        a, b = lo + self.offset, hi + self.offset
        ones = max(0, min(b, -1) - a + 1)  # the padded negative side
        return (1,) * ones + self._enum(max(a, 0), b)

    def _enum(self, lo: int, hi: int) -> tuple[int, ...]:
        """Enumeration symbols lo..hi, sliced from the head after extending
        it if they end past it (see the module docstring), or walked."""
        if hi < lo:
            return ()
        head = self.head[0]
        size = len(head)
        if hi >= size:
            if lo > size + 1 and hi >= 2 * size:
                return _enum_window(self.m, self.seed, lo, hi)
            head = head + _enum_window(self.m, self.seed, size, max(hi, 2 * size - 1))
            self.head[0] = head
        return head[lo : hi + 1]

    def left_tail(self) -> tuple[int, int]:
        return (-1 - self.offset, 1)


@dataclass(frozen=True)
class SplicedSeq(BiSequence):
    """Past of one sequence glued to the future of another at the dot.

    Position j reads `past` when j + offset <= 0 and `future` otherwise,
    both evaluated at j + offset, so shifting only moves the offset.
    """

    past: BiSequence
    future: BiSequence
    offset: int = 0

    def symbol_at(self, j: int) -> int:
        je = j + self.offset
        return self.past.symbol_at(je) if je <= 0 else self.future.symbol_at(je)

    def shift(self, steps: int) -> "SplicedSeq":
        return SplicedSeq(self.past, self.future, self.offset + steps)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        a, b = lo + self.offset, hi + self.offset
        if b <= 0:
            return self.past.window(a, b)
        if a >= 1:
            return self.future.window(a, b)
        return self.past.window(a, 0) + self.future.window(1, b)

    def right_tail(self) -> tuple[int, int] | None:
        tail = self.future.right_tail()
        if tail is None:
            return None
        start, period = tail
        return (max(start, 1) - self.offset, period)

    def left_tail(self) -> tuple[int, int] | None:
        tail = self.past.left_tail()
        if tail is None:
            return None
        start, period = tail
        return (min(start, 0) - self.offset, period)


@dataclass(frozen=True)
class FlippedSeq(BiSequence):
    """Pointwise symbol increment mod m; differs from its base everywhere."""

    base: BiSequence
    m: int

    def __post_init__(self) -> None:
        Alphabet(self.m)

    def symbol_at(self, j: int) -> int:
        return self.base.symbol_at(j) % self.m + 1

    def shift(self, steps: int) -> "FlippedSeq":
        return FlippedSeq(self.base.shift(steps), self.m)

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(s % self.m + 1 for s in self.base.window(lo, hi))

    def right_tail(self) -> tuple[int, int] | None:
        return self.base.right_tail()

    def left_tail(self) -> tuple[int, int] | None:
        return self.base.left_tail()


# ---------------------------------------------------------------------------
# Constructors named after the operations they implement.
# ---------------------------------------------------------------------------


def periodic_point(block) -> PeriodicSeq:
    """The sequence made of endless repetitions of `block`, aligned so
    positions 1..len(block) carry the block."""
    w = as_word(block)
    if len(w) == 0:
        raise ValueError("periodic point needs a nonempty block")
    return PeriodicSeq(w, phase=1)


def make_universal_sequence(alphabet: Alphabet, seed: int = 0) -> UniversalSeq:
    """A sequence whose nonnegative side contains every finite word over the
    alphabet as a contiguous block, with computable occurrence positions."""
    return UniversalSeq(alphabet.m, seed)


def locate_block(u: UniversalSeq, word) -> int:
    """Return p such that shift(u, p) carries `word` at positions 1..len(word).

    Always succeeds: every word occurs as a whole enumeration entry, and the
    entry position is closed-form arithmetic, never a scan.
    """
    if not isinstance(u, UniversalSeq):
        raise TypeError("locate_block expects a universal sequence")
    w = as_word(word)
    pos = enumeration_position(u.m, u.seed, w)
    return pos - u.offset - 1


# ---------------------------------------------------------------------------
# JSON-friendly payloads, used by certificates and the CLI.
# ---------------------------------------------------------------------------


def sequence_to_payload(s: BiSequence) -> dict:
    if isinstance(s, PeriodicSeq):
        return {"kind": "periodic", "block": list(s.block), "phase": s.phase}
    if isinstance(s, WindowPaddedSeq):
        return {
            "kind": "window_padded",
            "window": list(s.window_word),
            "start": s.start,
            "pad": s.pad,
        }
    if isinstance(s, EventuallyPeriodicSeq):
        return {
            "kind": "eventually_periodic",
            "left_block": list(s.left_block),
            "center": list(s.center),
            "center_start": s.center_start,
            "right_block": list(s.right_block),
        }
    if isinstance(s, UniversalSeq):
        return {"kind": "universal", "m": s.m, "seed": s.seed, "offset": s.offset}
    if isinstance(s, SplicedSeq):
        return {
            "kind": "spliced",
            "past": sequence_to_payload(s.past),
            "future": sequence_to_payload(s.future),
            "offset": s.offset,
        }
    if isinstance(s, FlippedSeq):
        return {"kind": "flipped", "base": sequence_to_payload(s.base), "m": s.m}
    raise TypeError(f"unknown sequence type {type(s).__name__}")


_PAYLOAD_DEPTH_CAP = 64  # nesting levels a payload may use


def sequence_from_payload(d: dict) -> BiSequence:
    return _from_payload(d, 1)


def _from_payload(d: dict, depth: int) -> BiSequence:
    if depth > _PAYLOAD_DEPTH_CAP:
        raise ValueError(f"sequence payload nests deeper than {_PAYLOAD_DEPTH_CAP} levels")
    kind = d["kind"]
    if kind == "periodic":
        return PeriodicSeq(FiniteWord(tuple(d["block"])), d["phase"])
    if kind == "window_padded":
        return WindowPaddedSeq(FiniteWord(tuple(d["window"])), d["start"], d["pad"])
    if kind == "eventually_periodic":
        return EventuallyPeriodicSeq(
            FiniteWord(tuple(d["left_block"])),
            FiniteWord(tuple(d["center"])),
            d["center_start"],
            FiniteWord(tuple(d["right_block"])),
        )
    if kind == "universal":
        return UniversalSeq(d["m"], d["seed"], d["offset"])
    if kind == "spliced":
        return SplicedSeq(
            _from_payload(d["past"], depth + 1),
            _from_payload(d["future"], depth + 1),
            d["offset"],
        )
    if kind == "flipped":
        return FlippedSeq(_from_payload(d["base"], depth + 1), d["m"])
    raise ValueError(f"unknown sequence payload kind {kind!r}")
