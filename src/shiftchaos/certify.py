"""Chaos certificates for the shift dynamics on unstable sets.

An unstable set collects all sequences sharing one fixed past (positions
<= 0) with arbitrary futures.  On each such set the shift exhibits the
three Devaney ingredients, recurrent (Poisson-stable style) motion, and
scrambled pairs.  Every certificate constructed here is a plain data
record: it stores the witnesses (as sequence payloads), the shift counts,
the distances with their certified errors, and the tolerances used, and
`verify_certificate` re-derives every numeric claim from the witnesses
alone.

Witness constructions:

* transitivity: the member whose future is the universal enumeration
  visits any target cylinder after a closed-form number of shifts;
* dense periodic points: repeating the window s(-k)..s(k) of any point s
  yields a periodic point within any requested delta;
* sensitivity: agreeing with s through position k and flipping every later
  symbol stays eps-close but diverges to the separation constant after k
  shifts;
* recurrence: the universal member returns to shrinking windows around
  itself at strictly increasing times;
* scrambled pairs: futures interleaving dyadic agreement/disagreement
  blocks come arbitrarily close and separate beyond eps0, infinitely often
  at finite horizon.

The CLI's four reports (diameter condition, separation, hyperbolic
conditions, conjugacy) are pure functions of a few stored inputs: one
builder per kind writes the payload, and the verifier rebuilds it whole
from those inputs and compares it key by key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .cylinders import CylinderSet, two_sided_cylinder
from .horseshoe import HorseshoeParams, conjugacy_check, verify_hyperbolic_conditions
from .metric import (
    MetricParams,
    check_diameter_condition,
    check_separation,
    distance,
    separation_holds_everywhere,
    set_distance,
    space_diameter,
    weight,
    weight_above,
    weight_below,
)
from .sequences import (
    Alphabet,
    BiSequence,
    EventuallyPeriodicSeq,
    UniversalSeq,
    enumeration_position,
    enumeration_prefix,
    flip,
    periodic,
    periodic_point,
    sequence_from_payload,
    sequence_to_payload,
    splice,
    window_padded,
)

SCHEMA_VERSION = 1  # of the certificate files the CLI writes and verifies
_SCAN_CAP = 1 << 21
_AGREEMENT_DEPTH = 64  # finite-depth check for shared-past / shared-future claims
_WINDOW_CAP = 1 << 20  # longest window a verifier reads up to a stored position


@dataclass(frozen=True)
class UnstableSetId:
    """The unstable set of a point: all sequences sharing its entire past.

    The past carrier must be an eventually periodic sequence over the
    alphabet; only its symbols at positions <= 0 matter.
    """

    alphabet: Alphabet
    past: BiSequence

    def __post_init__(self) -> None:
        if not isinstance(self.past, EventuallyPeriodicSeq):
            raise TypeError("unstable-set past must be eventually periodic")
        self.past.validate(self.alphabet)


def member_with_future(u_set: UnstableSetId, future: BiSequence) -> BiSequence:
    return splice(u_set.past, future)


def universal_member(u_set: UnstableSetId, seed: int = 0) -> BiSequence:
    """The member of the unstable set whose future is the universal
    enumeration; its orbit is dense."""
    return member_with_future(u_set, UniversalSeq(u_set.alphabet.m, seed))


@dataclass(frozen=True)
class Certificate:
    """A self-contained, re-verifiable record of one chaos check."""

    kind: str
    data: dict


@dataclass(frozen=True)
class VerificationResult:
    """`shaped` is False when the payload is no certificate at all: not an
    object, a `schema` other than the integer `SCHEMA_VERSION`, a `kind`
    that is neither a string nor missing, or no `data` object."""

    kind: str
    ok: bool
    failures: tuple[str, ...]
    shaped: bool = True


# ---------------------------------------------------------------------------
# Witness constructions
# ---------------------------------------------------------------------------


def transitivity_witness(
    u_set: UnstableSetId, target: CylinderSet, seed: int = 0
) -> Certificate:
    """Shift count carrying the universal member of the set into `target`."""
    if not (target.is_whole or target.is_two_sided):
        raise ValueError("transitivity targets are two-sided cylinders (or the whole space)")
    member = universal_member(u_set, seed)
    if target.is_whole:
        shift_count = 0
    else:
        pos = enumeration_position(u_set.alphabet.m, seed, target.fixed)
        shift_count = pos - target.start  # window start -k lands on the occurrence
    observed = member.shift(shift_count).window(target.start, target.end)
    if observed != target.fixed.symbols:
        raise AssertionError("universal member missed the target window")
    return Certificate(
        "transitivity",
        {
            "m": u_set.alphabet.m,
            "unstable_past": sequence_to_payload(u_set.past),
            "universal_seed": seed,
            "target_word": list(target.fixed),
            "target_start": target.start,
            "shift_count": shift_count,
        },
    )


def periodic_density_witness(
    s: BiSequence, delta: float, p: MetricParams, tol: float = 1e-12
) -> Certificate:
    """A periodic point within `delta` of s: repeat the window s(-k)..s(k)
    with k chosen so the off-window weight drops below delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    degenerate = delta > space_diameter(p)
    k = 0
    while weight_below(-k - 1, p.r) + weight_above(k + 1, p.r) >= delta:
        k += 1
    block = s.window(-k, k)
    witness = periodic(block, -k)
    d = distance(s, witness, p, tol)
    if not d.value + d.error < delta:
        raise AssertionError("periodic witness missed its delta bound")
    return Certificate(
        "periodic_density",
        {
            "r": p.r,
            "sequence": sequence_to_payload(s),
            "delta": delta,
            "k": k,
            "witness": sequence_to_payload(witness),
            "distance_value": d.value,
            "distance_error": d.error,
            "tolerance": tol,
            "degenerate": degenerate,
        },
    )


def sensitivity_witness(
    s: BiSequence, eps: float, alphabet: Alphabet, p: MetricParams, tol: float = 1e-12
) -> Certificate:
    """A point within eps of s (agreeing through position k) whose orbit is
    eps0-far after k shifts, with every symbol beyond k flipped."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    k = 0
    while weight_above(k + 1, p.r) >= eps:
        k += 1
    partner = splice(s.shift(k), flip(s.shift(k), alphabet.m), -k)
    eps0 = weight(1, p.r)
    d_close = distance(s, partner, p, tol)
    d_far = distance(s.shift(k), partner.shift(k), p, tol)
    if not d_close.value + d_close.error < eps:
        raise AssertionError("sensitivity partner not eps-close")
    if not d_far.value - d_far.error >= eps0:
        raise AssertionError("sensitivity divergence below the separation constant")
    return Certificate(
        "sensitivity",
        {
            "m": alphabet.m,
            "r": p.r,
            "sequence": sequence_to_payload(s),
            "eps": eps,
            "eps0": eps0,
            "k": k,
            "partner": sequence_to_payload(partner),
            "close_value": d_close.value,
            "close_error": d_close.error,
            "far_value": d_far.value,
            "far_error": d_far.error,
            "tolerance": tol,
            "degenerate": eps >= space_diameter(p),
        },
    )


def _window_threshold(j: int, p: MetricParams) -> float:
    """Free weight outside [-j, j]: the recurrence threshold at depth j."""
    return weight_below(-j - 1, p.r) + weight_above(j + 1, p.r)


def poisson_recurrence_witness(
    u_set: UnstableSetId,
    depths: int,
    p: MetricParams | None = None,
    seed: int = 0,
    tol: float = 1e-12,
    scan_cap: int = _SCAN_CAP,
) -> Certificate:
    """Return times of the universal member to shrinking windows around
    itself: numerical recurrence evidence, never a proof.

    For each depth j the orbit must re-enter the window [-j, j] around the
    starting point: the enumeration future revisits the word u(-j)..u(j) at
    some position q >= 1, giving the return time n = q + j.  Occurrences are
    scanned in a materialized prefix first (earliest hit wins); beyond the
    prefix the exact entry position of the extended word u(-j)..u(j+1) is
    used, whose agreement margin makes the threshold check unconditional.
    """
    p = p or MetricParams()
    if depths < 1:
        raise ValueError("depths must be >= 1")
    u = universal_member(u_set, seed)
    m = u_set.alphabet.m
    prefix = enumeration_prefix(m, seed, scan_cap)
    times: list[int] = []
    thresholds: list[float] = []
    values: list[float] = []
    errors: list[float] = []
    prev_q = 0
    for j in range(1, depths + 1):
        word = bytes(u.window(-j, j))
        threshold = _window_threshold(j, p)
        search_from = max(prev_q, 1)
        q = None
        i = prefix.find(word, search_from)
        while i != -1:
            d = distance(u.shift(i + j), u, p, tol)
            if d.value + d.error < threshold:
                q = i
                break
            i = prefix.find(word, i + 1)
        if q is None:
            extended = u.window(-j, j + 1)
            q = enumeration_position(m, seed, extended)
            if q < search_from:
                raise AssertionError("return-time search lost monotonicity")
            d = distance(u.shift(q + j), u, p, tol)
            if not d.value + d.error < threshold:
                raise AssertionError("recurrence distance exceeded its threshold")
        times.append(q + j)
        thresholds.append(threshold)
        values.append(d.value)
        errors.append(d.error)
        prev_q = q
    return Certificate(
        "poisson_recurrence",
        {
            "m": m,
            "r": p.r,
            "unstable_past": sequence_to_payload(u_set.past),
            "universal_seed": seed,
            "depths": depths,
            "times": times,
            "thresholds": thresholds,
            "distance_values": values,
            "distance_errors": errors,
            "tolerance": tol,
        },
    )


def _li_yorke_min_bound(r: float, horizon: int) -> float:
    """Proximity bound of the scrambled pair at finite horizon: with
    [2**(J+1) - 1, 3*2**J - 2] the deepest agreement block inside the
    horizon, r**(2**(J-1) - 2) (1 when no block fits)."""
    big_j = 0
    while 3 * (1 << (big_j + 1)) - 2 <= horizon:
        big_j += 1
    return r ** max((1 << (big_j - 1)) - 2, 0) if big_j >= 1 else 1.0


def li_yorke_pair(
    u_set: UnstableSetId, horizon: int, p: MetricParams, tol: float = 1e-12
) -> Certificate:
    """A scrambled pair in the unstable set, certified at finite horizon.

    Both members share the set's past; one future is constant 1, the other
    agrees on blocks of length 2**j and disagrees on blocks of length 2**j,
    alternating.  In the middle of the deepest agreement block inside the
    horizon the orbits come within r**(2**(J-1) - 2); at every disagreement
    boundary they separate by at least eps0 = r.
    """
    if horizon < 10:
        raise ValueError("horizon must be >= 10")
    need = horizon + 80
    pattern = bytearray()
    j = 0
    while len(pattern) < need:
        pattern.extend(b"\x01" * (1 << j))
        pattern.extend(b"\x02" * (1 << j))
        j += 1
    s = member_with_future(u_set, window_padded(()))
    t = member_with_future(u_set, window_padded(pattern[:need]))
    min_bound = _li_yorke_min_bound(p.r, horizon)
    eps0 = weight(1, p.r)
    min_value = min_error = math.inf
    max_value = max_error = -math.inf
    min_time = max_time = 0
    for n in range(1, horizon + 1):
        d = distance(s.shift(n), t.shift(n), p, tol)
        if d.value < min_value:
            min_value, min_error, min_time = d.value, d.error, n
        if d.value > max_value:
            max_value, max_error, max_time = d.value, d.error, n
    if not min_value + min_error < min_bound:
        raise AssertionError("scrambled pair never got close enough")
    if not max_value - max_error >= eps0:
        raise AssertionError("scrambled pair never separated")
    return Certificate(
        "li_yorke",
        {
            "m": u_set.alphabet.m,
            "r": p.r,
            "unstable_past": sequence_to_payload(u_set.past),
            "s": sequence_to_payload(s),
            "t": sequence_to_payload(t),
            "horizon": horizon,
            "min_time": min_time,
            "min_value": min_value,
            "min_error": min_error,
            "min_bound": min_bound,
            "max_time": max_time,
            "max_value": max_value,
            "max_error": max_error,
            "eps0": eps0,
            "tolerance": tol,
        },
    )


def stable_set_convergence(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float = 1e-12
) -> Certificate:
    """Orbits of two points sharing a future converge under forward shifts:
    after n shifts every mismatch has weight at most r**(n+1)/(1-r)."""
    return _convergence(s, t, n_max, p, tol, forward=True)


def unstable_set_convergence(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float = 1e-12
) -> Certificate:
    """Mirror of stable_set_convergence under backward shifts for two points
    sharing a past."""
    return _convergence(s, t, n_max, p, tol, forward=False)


def _convergence(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float, forward: bool
) -> Certificate:
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if forward:
        name, sign, lo, hi, side = "stable", 1, 1, n_max + _AGREEMENT_DEPTH, "stable set"
    else:
        name, sign, lo, hi, side = "unstable", -1, -n_max - _AGREEMENT_DEPTH, 0, "past"
    if s.window(lo, hi) != t.window(lo, hi):
        raise ValueError(f"sequences do not share a {side} (checked positions {lo}..{hi})")
    rows = []
    for n in range(n_max + 1):
        d = distance(s.shift(sign * n), t.shift(sign * n), p, tol)
        bound = weight_below(-n, p.r) if forward else weight_above(n + 1, p.r)
        if not d.value <= bound + d.error:
            raise AssertionError(f"{name}-set distance exceeded its tail bound")
        rows.append({"n": n, "value": d.value, "error": d.error, "bound": bound})
    final = rows[-1]
    if not final["value"] < p.r ** (n_max - 1):
        raise AssertionError(f"{name}-set distance failed its terminal bound")
    return Certificate(
        f"{name}_convergence",
        {
            "r": p.r,
            "s": sequence_to_payload(s),
            "t": sequence_to_payload(t),
            "n_max": n_max,
            "rows": rows,
            "tolerance": tol,
        },
    )


# ---------------------------------------------------------------------------
# Randomized suite helpers (seeded, reproducible)
# ---------------------------------------------------------------------------


def random_unstable_set(rng: random.Random, alphabet: Alphabet) -> UnstableSetId:
    if rng.random() < 0.5:
        block = tuple(rng.randint(1, alphabet.m) for _ in range(rng.randint(1, 4)))
        past = periodic(block, rng.randint(-2, 2))
    else:
        length = rng.randint(0, 4)
        word = tuple(rng.randint(1, alphabet.m) for _ in range(length))
        start = -length + 1 - rng.randint(0, 2) if length else 0
        past = window_padded(word, start, rng.randint(1, alphabet.m))
    return UnstableSetId(alphabet, past)


def random_two_sided_target(
    rng: random.Random, alphabet: Alphabet, max_k: int, max_n: int
) -> CylinderSet:
    k = rng.randint(0, max_k)
    n = rng.randint(1, max_n)
    word = tuple(rng.randint(1, alphabet.m) for _ in range(k + 1 + n))
    return two_sided_cylinder(word, -k)


# ---------------------------------------------------------------------------
# Reports: payloads built from a few inputs, by the writer and the verifier
# ---------------------------------------------------------------------------

# Size caps: the largest report they allow verifies in about 1 s.  Diameter
# rows cost O(depth) each; conjugacy rows take exact powers of lambda and mu.
MAX_METRIC_DEPTH = 2048
MAX_CONJUGACY_DEPTH = 512
MAX_CONJUGACY_SAMPLES = 50
# The exhaustive separation oracle compares up to words**2 pairs.
_EXHAUSTIVE_WORDS = 4096


def parse_number(text: str):
    """Accept ints, floats, and exact fractions like 1/3."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def _bounded(name: str, value, lo: int, hi: int) -> int:
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def diameter_payload(m: int, r: float, max_depth: int) -> dict:
    _bounded("max_depth", max_depth, 1, MAX_METRIC_DEPTH)
    report = check_diameter_condition(Alphabet(m), MetricParams(r), max_depth)
    return {
        "m": m,
        "r": r,
        "max_depth": max_depth,
        "rows": [
            {"k": row.k, "n": row.n, "diameter": row.diameter, "predicted": row.predicted}
            for row in report.rows
        ],
        "strictly_decreasing": report.strictly_decreasing,
        "matches_prediction": report.matches_prediction,
    }


def separation_payload(m: int, r: float, degree: int) -> dict:
    _bounded("degree", degree, 1, MAX_METRIC_DEPTH)
    a, p = Alphabet(m), MetricParams(r)
    result = check_separation(a, p, degree)
    exhaustive = (degree <= 3 and m ** degree <= _EXHAUSTIVE_WORDS
                  and separation_holds_everywhere(a, p, degree, result.eps0))
    return {
        "m": m,
        "r": r,
        "degree": degree,
        "eps0": result.eps0,
        "witness_words": [list(result.witness[0].fixed), list(result.witness[1].fixed)],
        "witness_distance": set_distance(result.witness[0], result.witness[1], p),
        "exhaustive_at_low_degree": exhaustive,
    }


def hyperbolic_payload(hp: HorseshoeParams, max_depth: int) -> dict:
    report = verify_hyperbolic_conditions(hp, _bounded("max_depth", max_depth, 1, MAX_METRIC_DEPTH))
    return {
        "lambda": str(hp.lam),
        "mu": str(hp.mu),
        "max_depth": max_depth,
        "rows": [
            {"k": r.k, "n": r.n, "diagonal": r.diameter, "predicted": r.predicted}
            for r in report.diameter.rows
        ],
        "strictly_decreasing": report.diameter.strictly_decreasing,
        "grid_exact": report.grid_exact,
        "eps0": report.eps0,
        "eps0_horizontal": report.eps0_horizontal,
        "witness_words": [list(w) for w in report.witness_words],
        "brute_min_gap": report.brute_min_gap,
        "passed": report.passed,
    }


def conjugacy_payload(hp: HorseshoeParams, depth: int, seed: int, samples: int) -> dict:
    """Conjugacy defects at `samples` periodic points drawn from `seed`."""
    _bounded("depth", depth, 2, MAX_CONJUGACY_DEPTH)
    rng = random.Random(seed)
    rows = []
    for _ in range(_bounded("samples", samples, 0, MAX_CONJUGACY_SAMPLES)):
        length = rng.randint(1, 12)
        word = tuple(rng.randint(1, 2) for _ in range(length))
        rep = conjugacy_check(periodic_point(word), hp, depth)
        rows.append({"word": list(word), "defect": rep.defect, "bound": rep.bound, "passed": rep.passed})
    return {
        "lambda": str(hp.lam),
        "mu": str(hp.mu),
        "depth": depth,
        "seed": seed,
        "samples": samples,
        "rows": rows,
        "passed": all(row["passed"] for row in rows),
    }


# ---------------------------------------------------------------------------
# Verification: re-derive every claim from stored witnesses
# ---------------------------------------------------------------------------

_VALUE_SLACK = 1e-12  # recomputation is deterministic; slack is defensive only


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _VALUE_SLACK


def _recomputes(dist, value: float, error: float) -> bool:
    """A stored distance value and its error bound match the recomputation."""
    return _close(dist.value, value) and _close(dist.error, error)


def _verify_transitivity(d: dict, failures: list[str]) -> None:
    alphabet = Alphabet(d["m"])
    u_set = UnstableSetId(alphabet, sequence_from_payload(d["unstable_past"]))
    member = universal_member(u_set, d["universal_seed"])
    word = tuple(d["target_word"])
    start = d["target_start"]
    shifted = member.shift(d["shift_count"])
    if shifted.window(start, start + len(word) - 1) != word:
        failures.append("shifted member does not carry the target word")
    if word and d["shift_count"] < 0:
        failures.append("shift count is not forward")


def _verify_periodic_density(d: dict, failures: list[str]) -> None:
    p = MetricParams(d["r"])
    s = sequence_from_payload(d["sequence"])
    witness = sequence_from_payload(d["witness"])
    k = d["k"]
    if getattr(witness, "period", None) != 2 * k + 1:  # also bounds k by the stored block
        failures.append("witness period does not match its window")
        return
    if witness.window(-k, k) != s.window(-k, k):
        failures.append("witness window does not replicate the sequence")
    dist = distance(s, witness, p, d["tolerance"])
    if not _recomputes(dist, d["distance_value"], d["distance_error"]):
        failures.append("stored distance does not recompute")
    if not dist.value + dist.error < d["delta"]:
        failures.append("distance does not beat delta")
    if d["degenerate"] is not (d["delta"] > space_diameter(p)):
        failures.append("stored degenerate flag does not recompute")


def _verify_sensitivity(d: dict, failures: list[str]) -> None:
    p = MetricParams(d["r"])
    s = sequence_from_payload(d["sequence"])
    partner = sequence_from_payload(d["partner"])
    k = _bounded("k", d["k"], 0, _WINDOW_CAP)
    lo = -_AGREEMENT_DEPTH
    if s.window(lo, k) != partner.window(lo, k):
        failures.append("partner does not agree with the sequence through position k")
    hi, m = k + _AGREEMENT_DEPTH, Alphabet(d["m"]).m
    if partner.window(k + 1, hi) != tuple(a % m + 1 for a in s.window(k + 1, hi)):
        failures.append("partner is not the flip mod m beyond position k")
    d_close = distance(s, partner, p, d["tolerance"])
    d_far = distance(s.shift(k), partner.shift(k), p, d["tolerance"])
    if not _recomputes(d_close, d["close_value"], d["close_error"]):
        failures.append("stored close distance does not recompute")
    if not _recomputes(d_far, d["far_value"], d["far_error"]):
        failures.append("stored divergence distance does not recompute")
    if not d_close.value + d_close.error < d["eps"]:
        failures.append("partner is not eps-close")
    if d["degenerate"] is not (d["eps"] >= space_diameter(p)):
        failures.append("stored degenerate flag does not recompute")
    eps0 = weight(1, p.r)
    if not _close(eps0, d["eps0"]):
        failures.append("stored eps0 is not the separation constant w(1)")
    if not d_far.value - d_far.error >= eps0:
        failures.append("divergence below eps0")


def _verify_poisson(d: dict, failures: list[str]) -> None:
    p = MetricParams(d["r"])
    alphabet = Alphabet(d["m"])
    u_set = UnstableSetId(alphabet, sequence_from_payload(d["unstable_past"]))
    u = universal_member(u_set, d["universal_seed"])
    depths = _bounded("depths", d["depths"], 1, _WINDOW_CAP)
    columns = [d[key] for key in ("times", "thresholds", "distance_values", "distance_errors")]
    if any(len(column) != depths for column in columns):
        failures.append("stored lists do not hold one entry per depth")
        return
    times, thresholds = columns[:2]
    if sorted(set(times)) != times:
        failures.append("return times are not strictly increasing")
    if any(a <= b for a, b in zip(thresholds, thresholds[1:])):
        failures.append("thresholds are not strictly decreasing")
    for j, (n, thr, val, err) in enumerate(zip(*columns), 1):
        dist = distance(u.shift(n), u, p, d["tolerance"])
        if not _recomputes(dist, val, err):
            failures.append(f"distance at depth {j} does not recompute")
        if not dist.value + dist.error < thr:
            failures.append(f"distance at depth {j} misses its threshold")
        if not _close(thr, _window_threshold(j, p)):
            failures.append(f"threshold at depth {j} is not the window tail weight")


def _verify_li_yorke(d: dict, failures: list[str]) -> None:
    p = MetricParams(d["r"])
    s = sequence_from_payload(d["s"])
    t = sequence_from_payload(d["t"])
    if s == t:
        failures.append("degenerate pair: the two sequences are identical")
        return
    past = UnstableSetId(Alphabet(d["m"]), sequence_from_payload(d["unstable_past"])).past
    lo = -_AGREEMENT_DEPTH
    if not s.window(lo, 0) == t.window(lo, 0) == past.window(lo, 0):
        failures.append(f"the pair does not share the unstable past (checked positions {lo}..0)")
    horizon = d["horizon"]
    if not isinstance(horizon, int) or horizon < 10:
        raise ValueError(f"horizon must be an integer >= 10, got {horizon!r}")
    min_bound = _li_yorke_min_bound(p.r, horizon)
    eps0 = weight(1, p.r)
    if not _close(min_bound, d["min_bound"]):
        failures.append("stored proximity bound does not recompute")
    if not _close(eps0, d["eps0"]):
        failures.append("stored eps0 is not the separation constant w(1)")
    d_min = distance(s.shift(d["min_time"]), t.shift(d["min_time"]), p, d["tolerance"])
    d_max = distance(s.shift(d["max_time"]), t.shift(d["max_time"]), p, d["tolerance"])
    if not _recomputes(d_min, d["min_value"], d["min_error"]):
        failures.append("stored proximal distance does not recompute")
    if not _recomputes(d_max, d["max_value"], d["max_error"]):
        failures.append("stored distal distance does not recompute")
    if not d_min.value + d_min.error < min_bound:
        failures.append("proximal distance misses its bound")
    if not d_max.value - d_max.error >= eps0:
        failures.append("distal distance below eps0")
    if not (1 <= d["min_time"] <= horizon and 1 <= d["max_time"] <= horizon):
        failures.append("witness times outside the horizon")


def _verify_convergence(d: dict, failures: list[str], forward: bool) -> None:
    p = MetricParams(d["r"])
    s = sequence_from_payload(d["s"])
    t = sequence_from_payload(d["t"])
    sign = 1 if forward else -1
    n_max, rows = d["n_max"], d["rows"]
    if n_max < 1 or len(rows) != n_max + 1 or any(row["n"] != n for n, row in enumerate(rows)):
        failures.append("rows do not run over n = 0..n_max")
        return
    for row in rows:
        n = row["n"]
        dist = distance(s.shift(sign * n), t.shift(sign * n), p, d["tolerance"])
        bound = weight_below(-n, p.r) if forward else weight_above(n + 1, p.r)
        if not _recomputes(dist, row["value"], row["error"]):
            failures.append(f"distance at n={n} does not recompute")
        if not _close(bound, row["bound"]):
            failures.append(f"bound at n={n} is not the tail weight")
        if not dist.value <= bound + dist.error:
            failures.append(f"distance at n={n} exceeds its bound")
    if not dist.value < p.r ** (n_max - 1):
        failures.append("terminal distance misses its bound")


_MISSING = object()


def _same(fresh, stored) -> bool:
    """JSON equality that tells true from 1 and 1.0 from 1.  Recursion
    follows `fresh`, so a deeply nested stored value costs one step."""
    if type(fresh) is not type(stored):
        return False
    if type(fresh) is list:
        return len(fresh) == len(stored) and all(map(_same, fresh, stored))
    if type(fresh) is dict:
        return fresh.keys() == stored.keys() and all(_same(v, stored[k]) for k, v in fresh.items())
    return fresh == stored


def _rebuilt(build, *verdicts):
    """Verifier of a report kind: rebuild the payload from the inputs stored
    in it, name every key whose stored value differs, and require each of
    `verdicts` to be true in the rebuilt payload."""

    def verify(d: dict, failures: list[str]) -> None:
        fresh = build(d)
        failures.extend(
            f"stored {key} does not recompute" for key in sorted(fresh.keys() | d.keys())
            if not _same(fresh.get(key, _MISSING), d.get(key, _MISSING))
        )
        failures.extend(f"recomputed {key} is false" for key in verdicts if not fresh[key])

    return verify


def _horseshoe_params(d: dict) -> HorseshoeParams:
    if not (isinstance(d["lambda"], str) and isinstance(d["mu"], str)):
        raise TypeError("lambda and mu must be stored as strings")
    return HorseshoeParams(parse_number(d["lambda"]), parse_number(d["mu"]))


_VERIFIERS = {
    "transitivity": _verify_transitivity,
    "periodic_density": _verify_periodic_density,
    "sensitivity": _verify_sensitivity,
    "poisson_recurrence": _verify_poisson,
    "li_yorke": _verify_li_yorke,
    "stable_convergence": lambda d, f: _verify_convergence(d, f, True),
    "unstable_convergence": lambda d, f: _verify_convergence(d, f, False),
    "diameter_condition": _rebuilt(
        lambda d: diameter_payload(d["m"], d["r"], d["max_depth"]),
        "strictly_decreasing", "matches_prediction",
    ),
    "separation": _rebuilt(lambda d: separation_payload(d["m"], d["r"], d["degree"])),
    "hyperbolic_conditions": _rebuilt(
        lambda d: hyperbolic_payload(_horseshoe_params(d), d["max_depth"]), "passed"
    ),
    "conjugacy": _rebuilt(
        lambda d: conjugacy_payload(_horseshoe_params(d), d["depth"], d["seed"], d["samples"]),
        "passed",
    ),
}


def _shape_error(payload) -> str | None:
    """Why a decoded payload cannot be a certificate, if it cannot."""
    if not isinstance(payload, dict):
        return f"expected a JSON object, got {type(payload).__name__}"
    schema = payload.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # not true, 1.0 or "1"
        return f"schema {schema!r} is not {SCHEMA_VERSION}"
    if not isinstance(payload.get("kind"), (str, type(None))):
        return f"unknown certificate kind {payload['kind']!r}: not a string"
    if not isinstance(payload.get("data"), dict):
        return "'data' is missing or not a JSON object"
    return None


def verify_certificate(payload: dict) -> VerificationResult:
    """Recompute every claim of a certificate or report from its stored
    witnesses and inputs, after checking its shape and `schema`."""
    shape = _shape_error(payload)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if shape:
        return VerificationResult(str(kind), False, (shape,), shaped=False)
    verifier = _VERIFIERS.get(kind)
    if verifier is None:
        return VerificationResult(str(kind), False, (f"unknown certificate kind {kind!r}",))
    failures: list[str] = []
    try:
        verifier(payload["data"], failures)
    except (KeyError, ValueError, TypeError, ArithmeticError) as exc:
        failures.append(f"malformed certificate: {exc}")
    return VerificationResult(kind, not failures, tuple(failures))
