"""Cylinder sets: subsets of the shift space fixing a contiguous window.

A cylinder fixes the symbols on positions start..end and leaves every other
position free.  An empty window denotes the whole space.  Three families
matter for the dynamics:

* future cylinders, window [1, n];
* past cylinders, window [1-n, 0];
* two-sided cylinders, window [-k, n] with start <= 0 < end.

The shift acts on cylinders like a similarity: shifting a depth-n future
cylinder forward n steps frees the entire future (and symmetrically for
past cylinders under backward shifts).  Exact set identities on an infinite
space are not finitely checkable, so `similarity_identity_check` verifies
the finite surrogate: every candidate future word is realized by shifting
some member of the cylinder.
"""

from __future__ import annotations

from itertools import product

from .sequences import (
    Alphabet,
    BiSequence,
    FiniteWord,
    FrozenValue,
    as_word,
    window_padded,
)


class CylinderSet(FrozenValue):
    """Sequences carrying `fixed` at positions start..start+len-1."""

    __slots__ = _fields = ("fixed", "start")

    def __init__(self, fixed, start: int = 1) -> None:
        object.__setattr__(self, "fixed", as_word(fixed))
        object.__setattr__(self, "start", start)

    @property
    def end(self) -> int:
        return self.start + len(self.fixed) - 1

    @property
    def is_whole(self) -> bool:
        return len(self.fixed) == 0

    @property
    def is_future(self) -> bool:
        return not self.is_whole and self.start == 1

    @property
    def is_past(self) -> bool:
        return not self.is_whole and self.end == 0

    @property
    def is_two_sided(self) -> bool:
        return not self.is_whole and self.start <= 0 < self.end

    def contains(self, s: BiSequence) -> bool:
        if self.is_whole:
            return True
        return FiniteWord(s.span(self.start, self.end)) == self.fixed

    def entails(self, other: "CylinderSet") -> bool:
        """True when membership in self forces membership in other."""
        if other.is_whole:
            return True
        if self.is_whole:
            return False
        if other.start < self.start or other.end > self.end:
            return False
        off = other.start - self.start
        return FiniteWord(self.fixed[off : off + len(other.fixed)]) == other.fixed


def whole_space() -> CylinderSet:
    return CylinderSet(FiniteWord(()), 1)


def future_cylinder(word) -> CylinderSet:
    w = as_word(word)
    if len(w) == 0:
        raise ValueError("future cylinder needs a nonempty word")
    return CylinderSet(w, 1)


def past_cylinder(word) -> CylinderSet:
    w = as_word(word)
    if len(w) == 0:
        raise ValueError("past cylinder needs a nonempty word")
    return CylinderSet(w, 1 - len(w))


def two_sided_cylinder(word, start: int) -> CylinderSet:
    w = as_word(word)
    end = start + len(w) - 1
    if not (start <= 0 < end):
        raise ValueError(f"two-sided window must straddle the dot, got [{start}, {end}]")
    return CylinderSet(w, start)


def all_words(alphabet: Alphabet, length: int):
    """All words of exactly `length` symbols, in lexicographic order."""
    return product(alphabet.symbols(), repeat=length)


def similarity_identity_check(c: CylinderSet, alphabet: Alphabet, depth: int) -> bool:
    """Finite-depth check that shifting a depth-n cylinder by +/- n frees it.

    For a future cylinder of length n: every word w of length <= depth - n
    must be realized at positions 1..len(w) by the n-step shift of some
    member of the cylinder.  Past cylinders are checked under the inverse
    shift symmetrically.  The whole space is trivially fixed (n = 0).
    """
    if c.is_whole:
        return True
    n = len(c.fixed)
    if depth < n:
        raise ValueError(f"depth {depth} below cylinder length {n}")
    if c.is_future:
        for wlen in range(1, depth - n + 1):
            for w in all_words(alphabet, wlen):
                member = window_padded((*c.fixed, *w))
                if not c.contains(member):
                    return False
                if member.shift(n).window(1, wlen) != w:
                    return False
        return True
    if c.is_past:
        for wlen in range(1, depth - n + 1):
            for w in all_words(alphabet, wlen):
                member = window_padded((*w, *c.fixed), 1 - n - wlen)
                if not c.contains(member):
                    return False
                if member.shift(-n).window(1 - wlen, 0) != w:
                    return False
        return True
    raise ValueError("similarity identities apply to future or past cylinders only")


def nesting_check(alphabet: Alphabet, depth: int) -> bool:
    """Verify the inclusion chains: extending a cylinder word entails the
    shorter cylinder, on both the future and the past side."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for length in range(1, depth):
        for w in all_words(alphabet, length):
            fut = future_cylinder(w)
            past = past_cylinder(w)
            for x in alphabet.symbols():
                if not future_cylinder(w + (x,)).entails(fut):
                    return False
                if not past_cylinder((x,) + w).entails(past):
                    return False
    return True
