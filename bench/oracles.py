"""Output checks that do not trust the code under test.

Each check reads a job's output directory and returns a list of failure
messages (empty when the output is correct).  The recomputations here
derive every value from first principles: rectangles from the inverse
branches of the horseshoe map in exact ``Fraction`` arithmetic, orbit
distances from a direct mismatch sum over raw enumeration bytes, and the
certificate file list from the suite's configuration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# certify-suite
# ---------------------------------------------------------------------------


def expected_certificate_names(sets: int, targets: int) -> set[str]:
    """File names a certification suite of this configuration writes."""
    names = {"diameter_condition.json"}
    names.update(f"separation_n{degree}.json" for degree in (1, 2, 3))
    for i in range(sets):
        names.update(f"transitivity_s{i}_t{t}.json" for t in range(targets))
        names.update(f"periodic_density_s{i}_d{d}.json" for d in range(3))
        names.update(f"sensitivity_s{i}_e{e}.json" for e in range(2))
    if sets:
        names.update(
            ("poisson_recurrence.json", "li_yorke.json",
             "stable_convergence.json", "unstable_convergence.json")
        )
    return names


def check_certify(out: Path, sets: int, targets: int) -> list[str]:
    written = {p.name for p in out.iterdir()}
    expected = expected_certificate_names(sets, targets)
    failures = []
    if written - expected:
        failures.append(f"unexpected files: {sorted(written - expected)[:5]}")
    if expected - written:
        failures.append(f"missing files: {sorted(expected - written)[:5]}")
    return failures


# ---------------------------------------------------------------------------
# horseshoe-*
# ---------------------------------------------------------------------------


def _pull_back(digits, shift: Fraction, scale: Fraction) -> tuple[Fraction, Fraction]:
    """Image of [0, 1] under the composition of branch maps
    t -> scale * t + (digit - 1) * shift, innermost digit last."""
    lo, hi = Fraction(0), Fraction(1)
    for d in reversed(digits):
        lo, hi = scale * lo + (d - 1) * shift, scale * hi + (d - 1) * shift
    return lo, hi


def rectangle_row(index: int, k: int, n: int, lam, mu) -> tuple[str, tuple[Fraction, ...]]:
    """Word column and exact bounds of row `index` of rectangles.csv.

    Rows enumerate the words of window [-k, n] in lexicographic order, so the
    word is the binary expansion of the index.  Points with future symbols
    a_1..a_n are the preimages of the unit square under the vertical inverse
    branches y -> (y + (a - 1)(mu - 1)) / mu; points with past symbols
    a_0, a_-1, .., a_-k are the images under the horizontal branches
    x -> lam x + (a - 1)(1 - lam).
    """
    length = k + 1 + n
    word = [((index >> (length - 1 - b)) & 1) + 1 for b in range(length)]
    lam, mu = Fraction(lam), Fraction(mu)
    past = word[: k + 1]            # positions -k..0
    future = word[k + 1 :]          # positions 1..n
    x_lo, x_hi = _pull_back(list(reversed(past)), 1 - lam, lam)
    y_lo, y_hi = _pull_back(future, (mu - 1) / mu, 1 / mu)
    text = "".join(map(str, past)) + "." + "".join(map(str, future))
    return text, (x_lo, x_hi, y_lo, y_hi)


def bound_matches(field: str, value: Fraction, exact: bool) -> bool:
    """A CSV bound against its exact value (see check_horseshoe)."""
    if exact:
        return field == repr(float(value))
    return abs(Fraction(float(field)) - value) <= Fraction(1, 10**13)


def check_horseshoe(
    out: Path, k: int, n: int, lam, mu, exact: bool, seed: int, samples: int = 256
) -> list[str]:
    """Sampled rectangles.csv rows against the exact pull-back, plus row and
    SVG element counts.  With exact parameters the CSV must hold the
    correctly rounded float of each bound; with float parameters the bound
    may differ from the exact value of the same float inputs by 1e-13."""
    count = 2 ** (k + 1 + n)
    lines = (out / "rectangles.csv").read_text().splitlines()
    failures = []
    if lines[:1] != ["word,x_lo,x_hi,y_lo,y_hi"]:
        failures.append("rectangles.csv header is wrong")
    if len(lines) != count + 1:
        return failures + [f"rectangles.csv has {len(lines) - 1} rows, expected {count}"]
    rng = random.Random(seed)
    indexes = {0, count - 1} | {rng.randrange(count) for _ in range(samples)}
    for i in sorted(indexes):
        word, bounds = rectangle_row(i, k, n, lam, mu)
        fields = lines[i + 1].split(",")
        if fields[0] != word:
            failures.append(f"row {i}: word {fields[0]!r}, expected {word!r}")
        elif len(fields) != 5 or not all(bound_matches(f, v, exact) for f, v in zip(fields[1:], bounds)):
            failures.append(f"row {i} ({word}): bounds do not match the exact pull-back")
        if len(failures) >= 5:
            break
    svg = out / "horseshoe.svg"
    if svg.exists():
        rects = svg.read_text().count("<rect ")
        if rects != count:
            failures.append(f"horseshoe.svg draws {rects} rectangles, expected {count}")
    return failures


# ---------------------------------------------------------------------------
# orbit-universal
# ---------------------------------------------------------------------------

# The CLI truncates at tol = 1e-12, certifying an error below tol; float
# summation of up to a few thousand terms in a different order adds at most
# about as much again.
ORBIT_SLACK = 2e-12


def orbit_distances(prefix: bytes, steps: int, r: float = 0.5, depth: int = 64) -> list[float]:
    """d(shift^n u, u) for n = 0..steps by a direct mismatch sum.

    `prefix` holds the universal sequence's symbols at positions 0, 1, ..;
    every negative position carries 1.  Positions j <= -n - 1 agree (both
    read 1), so the sum behind the dot is finite and exact; ahead of the
    dot it stops after `depth` positions, leaving an error below r**depth.
    """
    if len(prefix) < steps + depth + 1:
        raise ValueError("prefix too short for the requested orbit")

    def u(j: int) -> int:
        return prefix[j] if j >= 0 else 1

    values = []
    for n in range(steps + 1):
        total = 0.0
        for j in range(1, depth + 1):
            if prefix[j + n] != prefix[j]:
                total += r ** j
        for j in range(0, -n - 1, -1):
            if prefix[j + n] != u(j):
                total += r ** (1 - j)
        values.append(total)
    return values


def check_orbit(out: Path, prefix: bytes, steps: int) -> list[str]:
    """Every orbit.csv row against the direct mismatch sum."""
    lines = (out / "orbit.csv").read_text().splitlines()
    if lines[:1] != ["n,distance"]:
        return ["orbit.csv header is wrong"]
    if len(lines) != steps + 2:
        return [f"orbit.csv has {len(lines) - 1} rows, expected {steps + 1}"]
    failures = []
    for n, (line, value) in enumerate(zip(lines[1:], orbit_distances(prefix, steps))):
        index, _, text = line.partition(",")
        if index != str(n) or abs(float(text) - value) > ORBIT_SLACK:
            failures.append(f"row {n}: {line!r} does not match the direct sum {value!r}")
            if len(failures) >= 5:
                break
    return failures
