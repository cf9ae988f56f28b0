"""Bi-infinite symbol sequences over a finite alphabet.

A sequence assigns a symbol from ``{1, ..., m}`` to every integer position.
Positions are written with a dot between 0 and 1,

    ... s(-2) s(-1) s(0) . s(1) s(2) ...

so positions >= 1 form the future and positions <= 0 the past.  Shifting by
``t`` moves the dot ``t`` steps to the right: position ``j`` of the shifted
sequence reads position ``j + t`` of the original.

Arbitrary bi-infinite sequences are not computable objects, so this module
restricts to finitely describable generators.  Two public kinds cover every
construction needed by the chaos certificates:

* :class:`EventuallyPeriodicSeq` - a finite center with periodic tails, in
  canonical form; ``periodic``, ``window_padded`` and ``periodic_point``
  build its common shapes;
* :class:`UniversalSeq` - every finite word, concatenated in
  length-lexicographic order on the nonnegative side, padded with 1 on the
  negative side.  Occurrence positions have closed forms, which keeps block
  location exact at any depth.

``splice`` (glue a past and a future at the dot) and ``flip`` (pointwise
symbol increment mod m) assemble witnesses such as "the member of an
unstable set whose future is the universal enumeration".  Eventually
periodic inputs give one flat :class:`EventuallyPeriodicSeq`, others a
:class:`SplicedSeq` or :class:`FlippedSeq` tree; so does a splice whose
flat center would be longer than ``_FLAT_SPLICE_CAP`` symbols.  All are
closed under shifting.

Each kind reads its symbols through one primitive, ``span(lo, hi)``:
``bytes`` while every symbol fits in a byte, a tuple otherwise.  ``window``
(a tuple) and ``symbol_at`` derive from it; the metric compares spans.
A :class:`FiniteWord` stores its symbols once, in that same form, so
eventually periodic sequences cycle their words' stored symbols as they
are.  The universal sequence has one generator, which builds the
enumeration column by column from any position, walking its sections
with ``enumeration_sections``; ``enumeration_prefix`` caches the head it
builds, and a span that ends inside the first ``_HEAD`` symbols is a slice
of that one head, for every alphabet.

All values are immutable; every operation is a pure function.  The
immutability comes from :class:`FrozenValue`, the base of every value class
of the package but the NamedTuple `horseshoe.Interval`: it refuses
assignment and deletion, and takes equality, hashing and ``repr`` from one
tuple of field names.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain, islice


class FrozenValue:
    """Base of the package's immutable values.

    A subclass names its fields once, in ``_fields``, and its ``__init__``
    sets each of them with ``object.__setattr__``; after that, assigning or
    deleting an attribute raises AttributeError.  Two values are equal when
    they are of the same class and their fields are equal, and ``__hash__``
    and ``__repr__`` (``Name(field=value, ...)``) read the same fields.
    Equality and hashing get the fields with one ``operator.attrgetter``, so
    the comparisons every `distance` call makes run in C.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if cls._fields:
            cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _check_m(m: int) -> None:
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"alphabet needs at least two symbols, got m={m}")


class Alphabet(FrozenValue):
    """Symbol set {1, ..., m}."""

    __slots__ = _fields = ("m",)

    def __init__(self, m: int) -> None:
        _check_m(m)
        object.__setattr__(self, "m", m)

    def symbols(self) -> range:
        return range(1, self.m + 1)


class FiniteWord(FrozenValue):
    """A finite word, stored once in the form spans take: bytes when every
    symbol is in 1..255, else a tuple of ints (each read by operator.index)."""

    __slots__ = _fields = ("symbols",)

    def __init__(self, symbols) -> None:
        if symbols.__class__ is not bytes:
            symbols = symbols if isinstance(symbols, (tuple, list)) else tuple(symbols)
            try:
                symbols = bytes(symbols)
            except ValueError:  # a symbol outside 0..255
                symbols = tuple(map(operator.index, symbols))
        if min(symbols) < 1 if symbols.__class__ is tuple else 0 in symbols:
            raise ValueError(f"symbols are 1-based, got {tuple(symbols)}")
        object.__setattr__(self, "symbols", symbols)

    def __repr__(self) -> str:
        return f"FiniteWord(symbols={tuple(self.symbols)!r})"

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __getitem__(self, i):
        return self.symbols[i]

    def validate(self, alphabet: Alphabet) -> None:
        if max(self.symbols, default=1) > alphabet.m:
            bad = [s for s in self.symbols if s > alphabet.m]
            raise ValueError(f"symbols {bad} exceed alphabet bound m={alphabet.m}")


def as_word(w) -> FiniteWord:
    """Coerce a FiniteWord or any iterable of symbols to a FiniteWord."""
    if isinstance(w, FiniteWord):
        return w
    return FiniteWord(w)


_EMPTY = FiniteWord(())


class BiSequence(FrozenValue):
    """Base class for bi-infinite sequences.  Subclasses are immutable."""

    __slots__ = ()

    def shift(self, steps: int) -> "BiSequence":
        raise NotImplementedError

    def span(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        """Symbols at positions lo..hi inclusive (empty if lo > hi): bytes
        when every one fits in a byte, a tuple otherwise."""
        raise NotImplementedError

    def window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Symbols at positions lo..hi inclusive (empty tuple if lo > hi)."""
        return tuple(self.span(lo, hi))

    def symbol_at(self, j: int) -> int:
        return self.span(j, j)[0]

    # Tail descriptors drive the exact closed forms in the metric module.
    # right_tail() -> (start, period) with s(j + period) == s(j) for all
    # j >= start, or None when no finite description exists (universal
    # futures).  left_tail() mirrors this: s(j - period) == s(j) for all
    # j <= start.

    def right_tail(self) -> tuple[int, int] | None:
        return None

    def left_tail(self) -> tuple[int, int] | None:
        return None


def _join(a, b):
    """Spans a and b end to end, as a tuple when either is one (a symbol above 255)."""
    if a.__class__ is not b.__class__:
        a, b = tuple(a), tuple(b)
    return a + b


def _cycle(block, cut: int, count: int):
    """`count` symbols of `block` repeated, starting at block[cut % len]."""
    cut %= len(block)
    end = cut + max(count, 0)
    if end <= len(block):  # a slice of one copy
        return block[cut:end]
    return ((block[cut:] + block[:cut]) * -(-count // len(block)))[:count]


class EventuallyPeriodicSeq(BiSequence):
    """A finite center word with periodic blocks repeating on both sides.

    The center occupies positions [center_start, center_start + len - 1];
    `right_block` repeats to +infinity immediately after it and `left_block`
    repeats to -infinity immediately before it (its last symbol adjacent to
    the center).

    The stored form is canonical, so two descriptions of one sequence with
    blocks of the same lengths compare equal.  Center symbols that continue
    a tail block are moved into it (left first, then right), so the center
    is as short as the two blocks allow.  An empty center moves right while
    the right block continues the left one.  If it would move forever (as
    between equal blocks) the sequence is periodic: it is stored at
    center_start = 1 with the blocks rotated so that block[0] sits at
    position 1.  Blocks are never reduced to a shorter period, since the
    metric sums over their lengths.
    """

    __slots__ = _fields = ("left_block", "center", "center_start", "right_block")

    def __init__(self, left_block, center, center_start: int, right_block) -> None:
        left, center = as_word(left_block), as_word(center) if center else _EMPTY
        right = left if right_block == left_block else as_word(right_block)
        start = operator.index(center_start)
        ls, syms, rs = left.symbols, center.symbols, right.symbols
        if not (ls and rs):
            raise ValueError("tail blocks must be nonempty")
        p, q, k = len(ls), len(rs), len(syms)
        # The left block runs on over the center and then the right block.
        # Once it agrees with the right block on p + q - gcd(p, q) symbols it
        # runs on forever (Fine and Wilf): the sequence is periodic.
        end = k + p + q - math.gcd(p, q)
        lo = end if not syms and ls == rs else 0
        while lo < end and (syms[lo] if lo < k else rs[(lo - k) % q]) == ls[lo % p]:
            lo += 1
        hi = max(lo, k)
        while hi > lo and syms[hi - 1] == rs[(hi - k - 1) % q]:
            hi -= 1
        if lo == end:  # the empty center of a periodic sequence sits at 1
            lo = hi = 1 - start
        if lo or hi != k:  # the blocks rotate by the symbols they took in
            left, rs = FiniteWord(_cycle(ls, lo, p)), _cycle(rs, hi - k, q)
            right = left if rs == left.symbols else FiniteWord(rs)
            center, start = FiniteWord(syms[lo:hi]), start + lo
        object.__setattr__(self, "left_block", left)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "center_start", start)
        object.__setattr__(self, "right_block", right)

    @property
    def center_end(self) -> int:
        return self.center_start + len(self.center.symbols) - 1

    @property
    def period(self) -> int | None:
        """The block length of a periodic sequence; None otherwise."""
        if self.center.symbols or self.left_block != self.right_block:
            return None
        return len(self.right_block.symbols)

    def validate(self, alphabet: Alphabet) -> None:
        for w in (self.left_block, self.center, self.right_block):
            w.validate(alphabet)

    def shift(self, steps: int) -> "EventuallyPeriodicSeq":
        # the stored words are canonical already: only a periodic block rotates
        return EventuallyPeriodicSeq(
            self.left_block, self.center, self.center_start - steps, self.right_block
        )

    def span(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        ls, cs, rs = self.left_block.symbols, self.center.symbols, self.right_block.symbols
        c0, c1 = self.center_start, self.center_start + len(cs) - 1
        if lo > c1:  # all in the right tail
            return _cycle(rs, lo - c1 - 1, hi - lo + 1)
        if hi < c0:  # all in the left tail
            return _cycle(ls, lo - c0, hi - lo + 1)
        out = cs[max(lo - c0, 0) : hi - c0 + 1]
        if lo < c0:
            out = _join(_cycle(ls, lo - c0, c0 - lo), out)
        if hi > c1:
            out = _join(out, _cycle(rs, 0, hi - c1))
        return out

    def right_tail(self) -> tuple[int, int]:
        return (self.center_start + len(self.center.symbols), len(self.right_block.symbols))

    def left_tail(self) -> tuple[int, int]:
        return (self.center_start - 1, len(self.left_block.symbols))


# ---------------------------------------------------------------------------
# Universal enumeration arithmetic.
#
# The enumeration lists every word over {1..m} in order of increasing length
# (length-lexicographic within a nonzero `seed` rotation of each length
# class) and concatenates them at nonnegative positions.  Every quantity
# below has a closed form, so symbols and occurrence positions at indexes
# far beyond anything materializable remain exact.
# ---------------------------------------------------------------------------


def _rotation(seed: int, length: int, words: int) -> int:
    if seed == 0:
        return 0
    return ((seed ^ (length * 0x9E3779B9)) * 2654435761) % words


def enumeration_sections(m: int):
    """Yield (length, start, words) per section in order: its m**length
    entries begin at position `start`.  The one place that lays them out."""
    length, start, words = 1, 0, m
    while True:
        yield length, start, words
        start += length * words
        length, words = length + 1, words * m


def enumeration_position(m: int, seed: int, word) -> int:
    """Position of the first symbol of `word`'s own entry in the enumeration."""
    w = as_word(word)
    if not w:
        raise ValueError("cannot locate the empty word")
    num = 0
    for s in w:
        if s > m:
            raise ValueError(f"symbol {s} outside alphabet of size {m}")
        num = num * m + (s - 1)
    length, start, words = next(islice(enumeration_sections(m), len(w) - 1, None))
    return start + length * ((num - _rotation(seed, length, words)) % words)


def _enumeration(m: int, seed: int, lo: int, count: int):
    """Enumeration symbols at positions lo..lo+count-1 (0 <= lo): bytes with
    values 1..m for m <= 255, a tuple of ints above.

    Column k of the length-L section cycles through runs of run = m**(L-1-k)
    copies of each symbol from offset rot % (m * run), where rot is the
    seed's rotation plus the index of the first entry built; one divmod
    per column splits that offset and carries its remainder to the next.
    Each column is built for the entries needed (a period at most, then
    repeated) and written by one extended-slice assignment: work memory is
    2 * count symbols.  The first entry's symbols before lo are built, then
    dropped."""
    unit = bytearray if m <= 255 else list  # a list holds symbols of any size
    chunks, stop = [], lo + count
    for length, start, words in enumeration_sections(m):
        end = start + length * words
        if end <= lo:
            continue
        if max(start, lo) >= stop:
            break
        index, skip = divmod(max(lo - start, 0), length)
        first = start + length * index  # of the first entry built
        entries = -(-(min(stop, end) - first) // length)
        chunk = unit((0,)) * (length * entries)
        rem, run = (_rotation(seed, length, words) + index) % words, words
        for k in range(length):
            run //= m
            sym, rem = divmod(rem, run)
            col, need, cut = unit(), min(m * run, entries), rem
            while len(col) < need:
                col += unit((sym % m + 1,)) * min(run - cut, need - len(col))
                sym, cut = sym + 1, 0
            col *= entries // need
            col += col[: entries % need]
            chunk[k::length] = col
        del chunk[stop - first :], chunk[:skip], col  # col: not kept alive through the join
        chunks.append(chunk)
    return b"".join(chunks) if m <= 255 else tuple(chain.from_iterable(chunks))


@lru_cache(maxsize=8)
def enumeration_prefix(m: int, seed: int, count: int) -> bytes | tuple[int, ...]:
    """First `count` symbols of the enumeration: bytes with values 1..m for
    m <= 255, a tuple of ints above."""
    return _enumeration(m, seed, 0, count)


_HEAD = 1 << 16  # symbols of the cached enumeration head that windows slice


class UniversalSeq(BiSequence):
    """The enumeration of all finite words at nonnegative positions, 1-padded
    on the negative side.  `offset` tracks shifting; `seed` rotates each
    length class of the enumeration (0 keeps plain length-lex order).

    A span that ends inside the first ``_HEAD`` enumeration symbols is a
    slice of ``enumeration_prefix(m, seed, _HEAD)``, one cached head for
    every copy of the sequence; every other span is built alone.
    The value is the three fields: shifting carries no state."""

    __slots__ = _fields = ("m", "seed", "offset")

    def __init__(self, m: int, seed: int = 0, offset: int = 0) -> None:
        _check_m(m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "offset", offset)

    def shift(self, steps: int) -> "UniversalSeq":
        return UniversalSeq(self.m, self.seed, self.offset + steps)

    def span(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        a, b = lo + self.offset, hi + self.offset + 1  # enumeration positions a..b-1
        ones = max(0, min(b, 0) - a)  # the padded negative side
        a, b = max(a, 0), max(b, 0)
        if b <= _HEAD:
            syms = enumeration_prefix(self.m, self.seed, _HEAD)[a:b]
        else:
            syms = _enumeration(self.m, self.seed, a, b - a)
        return _join(b"\1" * ones, syms) if ones else syms

    def left_tail(self) -> tuple[int, int]:
        return (-1 - self.offset, 1)


class SplicedSeq(BiSequence):
    """Past of one sequence glued to the future of another at the dot.

    Position j reads `past` when j + offset <= 0 and `future` otherwise,
    both evaluated at j + offset, so shifting only moves the offset.
    """

    __slots__ = _fields = ("past", "future", "offset")

    def __init__(self, past: BiSequence, future: BiSequence, offset: int = 0) -> None:
        object.__setattr__(self, "past", past)
        object.__setattr__(self, "future", future)
        object.__setattr__(self, "offset", offset)

    def shift(self, steps: int) -> "SplicedSeq":
        return SplicedSeq(self.past, self.future, self.offset + steps)

    def span(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        a, b = lo + self.offset, hi + self.offset
        if b <= 0:
            return self.past.span(a, b)
        if a >= 1:
            return self.future.span(a, b)
        return _join(self.past.span(a, 0), self.future.span(1, b))

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


class FlippedSeq(BiSequence):
    """Pointwise symbol increment mod m; differs from its base everywhere."""

    __slots__ = _fields = ("base", "m")

    def __init__(self, base: BiSequence, m: int) -> None:
        _check_m(m)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", m)

    def shift(self, steps: int) -> "FlippedSeq":
        return FlippedSeq(self.base.shift(steps), self.m)

    def span(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        syms = self.base.span(lo, hi)
        if self.m <= 255 and syms.__class__ is bytes:
            return syms.translate(_flip_table(self.m))
        return tuple(s % self.m + 1 for s in syms)

    def right_tail(self) -> tuple[int, int] | None:
        return self.base.right_tail()

    def left_tail(self) -> tuple[int, int] | None:
        return self.base.left_tail()


@lru_cache(maxsize=16)
def _flip_table(m: int) -> bytes:
    """The `bytes.translate` table of s -> s % m + 1."""
    return bytes(s % m + 1 for s in range(256))


# ---------------------------------------------------------------------------
# Constructors named after the operations they implement.
# ---------------------------------------------------------------------------


def periodic(block, phase: int = 0) -> EventuallyPeriodicSeq:
    """Bi-infinite repetition of `block`, with block[0] at position `phase`."""
    w = as_word(block)
    return EventuallyPeriodicSeq(w, (), phase, w)


def window_padded(word, start: int = 1, pad: int = 1) -> EventuallyPeriodicSeq:
    """The finite `word` at positions from `start` on, and `pad` elsewhere."""
    return EventuallyPeriodicSeq((pad,), word, start, (pad,))


def periodic_point(block) -> EventuallyPeriodicSeq:
    """The sequence made of endless repetitions of `block`, aligned so
    positions 1..len(block) carry the block."""
    return periodic(block, 1)


_FLAT_SPLICE_CAP = 1 << 16  # longest center a splice materializes


def splice(past: BiSequence, future: BiSequence, offset: int = 0) -> BiSequence:
    """Past of one sequence glued to the future of another at the dot (see
    `SplicedSeq`), flat when both are eventually periodic and the flat center
    spans at most `_FLAT_SPLICE_CAP` positions."""
    flat = isinstance(past, EventuallyPeriodicSeq) and isinstance(future, EventuallyPeriodicSeq)
    if flat:
        lo, hi = min(past.center_start, 1), max(future.center_end, 0)
    if not flat or hi - lo + 1 > _FLAT_SPLICE_CAP:
        return SplicedSeq(past, future, offset)
    return EventuallyPeriodicSeq(
        past.span(lo - len(past.left_block), lo - 1),
        _join(past.span(lo, 0), future.span(1, hi)),
        lo - offset,
        future.span(hi + 1, hi + len(future.right_block)),
    )


def flip(base: BiSequence, m: int) -> BiSequence:
    """Pointwise symbol increment mod m (see `FlippedSeq`), flat when `base`
    is eventually periodic."""
    if not isinstance(base, EventuallyPeriodicSeq):
        return FlippedSeq(base, m)
    _check_m(m)  # the check FlippedSeq makes
    words = (base.left_block, base.center, base.right_block)
    left, center, right = (tuple(s % m + 1 for s in w) for w in words)
    return EventuallyPeriodicSeq(left, center, base.center_start, right)


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
    if isinstance(s, EventuallyPeriodicSeq):
        if s.period is not None:  # canonical: block[0] at position center_start
            return {"kind": "periodic", "block": list(s.right_block), "phase": s.center_start}
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
    """Read a payload of any kind, the `window_padded` kind of older files
    included; splices and flips come out flat when they can."""
    return _from_payload(d, 1)


def _symbols(key: str, syms) -> list:
    """A stored word: a JSON list of ints, not of floats, strings or true."""
    if type(syms) is not list or not set(map(type, syms)) <= {int}:
        raise TypeError(f"{key} is not a list of integer symbols")
    return syms


def _integer(d: dict, key: str) -> int:
    """A stored integer field: a JSON int, not a float, string or true."""
    if type(d[key]) is not int:
        raise ValueError(f"{key} is not an integer")
    return d[key]


def _from_payload(d: dict, depth: int) -> BiSequence:
    if depth > _PAYLOAD_DEPTH_CAP:
        raise ValueError(f"sequence payload nests deeper than {_PAYLOAD_DEPTH_CAP} levels")
    kind = d["kind"]
    if kind == "eventually_periodic":
        left, center, right = (_symbols(k, d[k]) for k in ("left_block", "center", "right_block"))
        return EventuallyPeriodicSeq(left, center, _integer(d, "center_start"), right)
    if kind == "periodic":
        return periodic(_symbols("block", d["block"]), _integer(d, "phase"))
    if kind == "window_padded":
        pad = _symbols("pad", [d["pad"]])
        return window_padded(_symbols("window", d["window"]), _integer(d, "start"), *pad)
    if kind == "universal":
        return UniversalSeq(*(_integer(d, k) for k in ("m", "seed", "offset")))
    if kind == "spliced":
        return splice(
            _from_payload(d["past"], depth + 1),
            _from_payload(d["future"], depth + 1),
            _integer(d, "offset"),
        )
    if kind == "flipped":
        return flip(_from_payload(d["base"], depth + 1), _integer(d, "m"))
    raise ValueError(f"unknown sequence payload kind {kind!r}")
