"""Chaos certificates for the shift dynamics on unstable sets.

An unstable set collects all sequences sharing one fixed past (positions
<= 0) with arbitrary futures.  On each such set the shift exhibits the
three Devaney ingredients, recurrent (Poisson-stable style) motion, and
scrambled pairs.  Witness constructions:

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

Every certificate, and every report of the CLI (diameter condition,
separation, hyperbolic conditions, conjugacy), is the output of one pure
payload function of a few inputs and, for certificates, the witnesses the
writer found: a shift count, a window depth k, return times, the proximal
and distal times of a scrambled pair, or the given pair of a convergence
check.  The writer calls it with its witnesses; `verify_certificate` calls it
on the inputs and witnesses stored in a file and compares the rebuilt
payload with the stored one key by key, numbers exactly and sequences as
sequences.  A claim the payload function refutes (AssertionError) is a
failure; an input or witness past its size cap is a malformed certificate.
The payload functions of the two horseshoe reports live in `horseshoe`,
which `verify_certificate` loads only when it meets such a report.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import islice

from .cylinders import CylinderSet, two_sided_cylinder
from .metric import (
    MetricParams,
    agreement_bound,
    check_diameter_condition,
    check_separation,
    check_tolerance,
    distance,
    separation_holds_everywhere,
    space_diameter,
    weight,
    weight_above,
    weight_below,
)
from .schema import MAX_METRIC_DEPTH, MAX_STEPS, MAX_WINDOW, bounded, certificate, shape_error
from .sequences import (
    Alphabet,
    BiSequence,
    EventuallyPeriodicSeq,
    FrozenValue,
    UniversalSeq,
    enumeration_position,
    enumeration_sections,
    flip,
    periodic,
    sequence_from_payload,
    sequence_to_payload,
    splice,
    window_padded,
)

_AGREEMENT_DEPTH = 64  # finite-depth check for shared-past / shared-future claims


class UnstableSetId(FrozenValue):
    """The unstable set of a point: all sequences sharing its entire past.

    The past carrier must be an eventually periodic sequence over the
    alphabet; only its symbols at positions <= 0 matter.
    """

    __slots__ = _fields = ("alphabet", "past")

    def __init__(self, alphabet: Alphabet, past: BiSequence) -> None:
        if not isinstance(past, EventuallyPeriodicSeq):
            raise TypeError("unstable-set past must be eventually periodic")
        past.validate(alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "past", past)


def member_with_future(u_set: UnstableSetId, future: BiSequence) -> BiSequence:
    return splice(u_set.past, future)


def universal_member(u_set: UnstableSetId, seed: int = 0) -> BiSequence:
    """The member of the unstable set whose future is the universal
    enumeration; its orbit is dense."""
    return member_with_future(u_set, UniversalSeq(u_set.alphabet.m, seed))


class VerificationResult(FrozenValue):
    """`shaped` is False when the payload is no certificate at all: not an
    object, a `schema` other than the integer schema version, a `kind`
    that is neither a string nor missing, or no `data` object
    (`schema.shape_error`)."""

    __slots__ = _fields = ("kind", "ok", "failures", "shaped")

    def __init__(self, kind: str, ok: bool, failures: tuple[str, ...], shaped: bool = True) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "shaped", shaped)


# ---------------------------------------------------------------------------
# Witness constructions
#
# Each kind has a constructor, which finds the witness, and a payload
# function of the inputs and the witness, which derives every other stored
# value and raises AssertionError when a claim fails.  The payload keeps its
# sequences as objects; `_certificate` writes them as sequence payloads.
# ---------------------------------------------------------------------------

# Witness size caps are in `schema`.  This one is the budget of steps times
# the truncation depth at (r, tol): a distance with a universal side reads
# windows that long, which grow like 1/(1 - r).
MAX_STEP_SYMBOLS = 1 << 22


def check_steps(name: str, steps, p: MetricParams, tol: float) -> int:
    """`steps` distances at (p.r, tol): at most MAX_STEPS, and within the
    symbol budget MAX_STEP_SYMBOLS."""
    depth = check_tolerance(p.r, tol)
    if bounded(name, steps, 1, MAX_STEPS) * depth > MAX_STEP_SYMBOLS:
        raise ValueError(
            f"{name} {steps} at truncation depth {depth} (r={p.r!r}, tol={tol!r}) "
            f"exceeds the budget of {MAX_STEP_SYMBOLS} symbols"
        )
    return steps


def _positive(name: str, value) -> float:
    """A delta, eps or tolerance: a finite positive float."""
    if type(value) is not float or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive float, got {value!r}")
    return value


def _certificate(kind: str, payload: dict) -> dict:
    return certificate(kind, {
        key: sequence_to_payload(v) if isinstance(v, BiSequence) else v
        for key, v in payload.items()
    })


def transitivity_witness(
    u_set: UnstableSetId, target: CylinderSet, seed: int = 0
) -> dict:
    """Shift count carrying the universal member of the set into `target`."""
    shift_count = 0
    if not target.is_whole:  # window start -k lands on the word's entry
        shift_count = enumeration_position(u_set.alphabet.m, seed, target.fixed) - target.start
    return _certificate("transitivity", transitivity_payload(u_set, target, seed, shift_count))


def transitivity_payload(
    u_set: UnstableSetId, target: CylinderSet, seed: int, shift_count: int
) -> dict:
    if not (target.is_whole or target.is_two_sided):
        raise ValueError("transitivity targets are two-sided cylinders (or the whole space)")
    bounded("shift_count", shift_count, 0, math.inf)
    bounded("target_start", target.start, -math.inf, math.inf)
    bounded("universal_seed", seed, -math.inf, math.inf)
    if not target.contains(universal_member(u_set, seed).shift(shift_count)):
        raise AssertionError("universal member missed the target window")
    return {
        "m": u_set.alphabet.m,
        "unstable_past": u_set.past,
        "universal_seed": seed,
        "target_word": list(target.fixed),
        "target_start": target.start,
        "shift_count": shift_count,
    }


def _window_threshold(j: int, p: MetricParams) -> float:
    """Free weight outside [-j, j]: the recurrence threshold at depth j."""
    return weight_below(-j - 1, p.r) + weight_above(j + 1, p.r)


def check_witness_room(
    p: MetricParams, tol: float, depths: int, deltas, epsilons
) -> None:
    """ValueError unless the errors `distance` certifies at (p.r, tol) leave
    room for every witness a suite with these Poisson `depths`, periodic
    `deltas` and sensitivity `epsilons` finds, whatever its sequences.

    The Poisson return at depth j agrees on [-j, j + 1] and must stay below
    the depth-j threshold, which holds while the truncation depth is above
    j; a periodic witness agrees on [-k, k] and a sensitivity partner on
    every position <= k; the sensitivity divergence differs at every
    position >= 1 and must keep value - error >= eps0."""
    r, k = p.r, check_tolerance(p.r, tol)
    if not agreement_bound(-depths, depths + 1, p, tol) < _window_threshold(depths, p):
        raise ValueError(f"recurrence_depth {depths} needs a truncation depth above it; at "
                         f"r={r!r}, tol={tol!r} it is {k}")
    for delta in deltas:
        w = _density_depth(delta, p)
        if not agreement_bound(-w, w, p, tol) < delta:
            raise ValueError(f"tol {tol!r} leaves no room for the periodic witness at "
                             f"delta={delta!r} (r={r!r})")
    for eps in epsilons:
        if not agreement_bound(-math.inf, _sensitivity_depth(eps, p), p, tol) < eps:
            raise ValueError(f"tol {tol!r} leaves no room for the sensitivity partner at "
                             f"eps={eps!r} (r={r!r})")
    if not weight_above(1, r) - 2 * weight_above(k + 1, r) - weight_below(-k, r) >= weight(1, r):
        raise ValueError(f"tol {tol!r} hides the sensitivity divergence at r={r!r}")


def _density_depth(delta: float, p: MetricParams) -> int:
    """The least k whose weight outside [-k, k] is below delta, at most MAX_WINDOW + 1."""
    k = 0
    while k <= MAX_WINDOW and _window_threshold(k, p) >= delta:
        k += 1
    return k


def periodic_density_witness(
    s: BiSequence, delta: float, p: MetricParams, tol: float = 1e-12
) -> dict:
    """A periodic point within `delta` of s: repeat the window s(-k)..s(k)
    with k chosen so the off-window weight drops below delta."""
    k = _density_depth(_positive("delta", delta), p)
    return _certificate("periodic_density", periodic_density_payload(s, delta, p, tol, k))


def periodic_density_payload(
    s: BiSequence, delta: float, p: MetricParams, tol: float, k: int
) -> dict:
    bounded("k", k, 0, MAX_WINDOW)
    witness = periodic(s.span(-k, k), -k)
    d = distance(s, witness, p, _positive("tolerance", tol))
    if not d.value + d.error < _positive("delta", delta):
        raise AssertionError("periodic witness missed its delta bound")
    return {
        "r": p.r,
        "sequence": s,
        "delta": delta,
        "k": k,
        "witness": witness,
        "distance_value": d.value,
        "distance_error": d.error,
        "tolerance": tol,
        "degenerate": delta > space_diameter(p),
    }


def sensitivity_witness(
    s: BiSequence, eps: float, alphabet: Alphabet, p: MetricParams, tol: float = 1e-12
) -> dict:
    """A point within eps of s (agreeing through position k) whose orbit is
    eps0-far after k shifts, with every symbol beyond k flipped."""
    k = _sensitivity_depth(_positive("eps", eps), p)
    return _certificate("sensitivity", sensitivity_payload(s, eps, alphabet, p, tol, k))


def _sensitivity_depth(eps: float, p: MetricParams) -> int:
    """The least k whose weight beyond position k is below eps, at most MAX_WINDOW + 1."""
    k = 0
    while k <= MAX_WINDOW and weight_above(k + 1, p.r) >= eps:
        k += 1
    return k


def sensitivity_payload(
    s: BiSequence, eps: float, alphabet: Alphabet, p: MetricParams, tol: float, k: int
) -> dict:
    bounded("k", k, 0, MAX_WINDOW)
    tail = s.shift(k)
    partner = splice(tail, flip(tail, alphabet.m), -k)
    eps0 = weight(1, p.r)
    d_close = distance(s, partner, p, _positive("tolerance", tol))
    d_far = distance(tail, partner.shift(k), p, tol)
    if not d_close.value + d_close.error < _positive("eps", eps):
        raise AssertionError("sensitivity partner not eps-close")
    if not d_far.value - d_far.error >= eps0:
        raise AssertionError("sensitivity divergence below the separation constant")
    return {
        "m": alphabet.m,
        "r": p.r,
        "sequence": s,
        "eps": eps,
        "eps0": eps0,
        "k": k,
        "partner": partner,
        "close_value": d_close.value,
        "close_error": d_close.error,
        "far_value": d_far.value,
        "far_error": d_far.error,
        "tolerance": tol,
        "degenerate": eps >= space_diameter(p),
    }


def poisson_recurrence_witness(
    u_set: UnstableSetId,
    depths: int,
    p: MetricParams,
    seed: int = 0,
    tol: float = 1e-12,
) -> dict:
    """Return times of the universal member to shrinking windows around
    itself: numerical recurrence evidence, never a proof.

    At depth j the time is q + j, where q is the enumeration entry of the
    extended word u(-j)..u(j+1), so the orbit agrees with u on [-j, j + 1]:
    a margin `check_witness_room` proves below the depth-j threshold.  The
    times strictly increase, as the entries' sections come in length order.
    """
    check_steps("depths", depths, p, _positive("tolerance", tol))
    u, m = universal_member(u_set, seed), u_set.alphabet.m
    times = [enumeration_position(m, seed, u.span(-j, j + 1)) + j for j in range(1, depths + 1)]
    return _certificate(
        "poisson_recurrence", poisson_recurrence_payload(u_set, depths, p, seed, tol, times)
    )


def check_return_digits(m: int, depths: int) -> None:
    """ValueError unless every return time up to `depths` over m symbols
    prints within Python's int-to-str digit limit: the time at depth j lies
    below the start of the enumeration section of length 2j + 3."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    cap = 10 ** limit if limit else math.inf
    for _, start, _ in islice(enumeration_sections(m), 2 * depths + 3):
        if start > cap:
            raise ValueError(f"recurrence_depth {depths} at m={m} gives return times past "
                             f"Python's limit of {limit} digits for an integer as text")


def poisson_recurrence_payload(
    u_set: UnstableSetId, depths: int, p: MetricParams, seed: int, tol: float, times: list
) -> dict:
    check_steps("depths", depths, p, _positive("tolerance", tol))
    bounded("universal_seed", seed, -math.inf, math.inf)
    if type(times) is not list or len(times) != depths:
        raise ValueError("times must be a list of one return time per depth")
    if any(a >= b for a, b in zip(times, times[1:])):
        raise AssertionError("return times are not strictly increasing")
    u = universal_member(u_set, seed)
    thresholds: list[float] = []
    values: list[float] = []
    errors: list[float] = []
    for j, n in enumerate(times, 1):
        thresholds.append(_window_threshold(j, p))
        d = distance(u.shift(bounded("return time", n, 1, math.inf)), u, p, tol)
        if not d.value + d.error < thresholds[-1]:
            raise AssertionError(f"recurrence distance at depth {j} exceeded its threshold")
        values.append(d.value)
        errors.append(d.error)
    return {
        "m": u_set.alphabet.m,
        "r": p.r,
        "unstable_past": u_set.past,
        "universal_seed": seed,
        "depths": depths,
        "times": times,
        "thresholds": thresholds,
        "distance_values": values,
        "distance_errors": errors,
        "tolerance": tol,
    }


def _li_yorke_block(r: float, horizon: int) -> tuple[int, int, float]:
    """(min_time, max_time, min_bound) of the scrambled pair at a horizon of
    at least 10, from the deepest agreement block [2**(J+1) - 1, 3*2**J - 2]
    inside the horizon (J >= 2).  min_time, the block's middle row, agrees
    at depths 1..2**(J-1) on both sides, so its distance is at most
    2 r**(2**(J-1) + 1) / (1 - r): min_bound = r**(2**(J-1) - 2) times
    2 r**3 / (1 - r), which is at most 1/2 for r <= 1/2.  max_time, the
    middle row of disagreement block J - 1 just before it, mismatches at
    depth 1 on both sides, so its distance is at least 2r."""
    big_j = ((horizon + 2) // 3).bit_length() - 1
    min_time = (1 << (big_j + 1)) - 2 + (1 << (big_j - 1))
    max_time = 3 * (1 << (big_j - 1)) - 2 + (1 << (big_j - 2))
    return min_time, max_time, r ** ((1 << (big_j - 1)) - 2)


def check_horizon(p: MetricParams, horizon) -> int:
    """A Li-Yorke `horizon`: an integer in [10, MAX_WINDOW], at an r whose
    proximity bound r**(2**(J-1) - 2) is proven (r <= 1/2, where
    2 r**3 / (1 - r) <= 1/2, `_li_yorke_block`) and at which that bound is
    a normal float.  At r = 5e-324 the distal row reads 2r with an error of
    at least 2r (5e-324 per clipped side), so that r is refused too."""
    bounded("horizon", horizon, 10, MAX_WINDOW)
    if p.r > 0.5:
        raise ValueError("certify needs r <= 1/2: its Li-Yorke proximity bound is not proven above")
    if p.r < 2 * math.ulp(0.0):
        raise ValueError(f"certify needs r >= 1e-323: at r = {p.r!r} the error of the Li-Yorke "
                         "distal row hides its distal claim value - error >= r")
    if _li_yorke_block(p.r, horizon)[2] < sys.float_info.min:
        raise ValueError(f"horizon {horizon} is too long at r = {p.r}: "
                         "the Li-Yorke proximity bound underflows")
    return horizon


def _scrambled_pair(past: BiSequence, horizon: int) -> tuple[BiSequence, BiSequence]:
    """Two sequences with the past of `past`, one with the future constant 1,
    the other with alternating blocks of 2**j ones and 2**j twos through
    position horizon + 80 and ones beyond."""
    need = horizon + 80
    pattern, j = bytearray(), 0
    while len(pattern) < need:
        pattern += b"\x01" * (1 << j) + b"\x02" * (1 << j)
        j += 1
    return splice(past, window_padded(())), splice(past, window_padded(pattern[:need]))


def li_yorke_pair(
    u_set: UnstableSetId, horizon: int, p: MetricParams, tol: float = 1e-12
) -> dict:
    """A scrambled pair in the unstable set, certified at finite horizon.

    Both members share the set's past; one future is constant 1, the other
    agrees on blocks of length 2**j and disagrees on blocks of length 2**j,
    alternating.  At a horizon `check_horizon` admits, the witnesses are
    two rows fixed by the deepest agreement block inside it: its middle row,
    where the orbits come within r**(2**(J-1) - 2), and the middle row of the
    disagreement block before it, where they are at least eps0 = r apart
    (`_li_yorke_block`).  Only those two rows are computed.
    """
    check_horizon(p, horizon)
    min_time, max_time, _ = _li_yorke_block(p.r, horizon)
    return _certificate("li_yorke", li_yorke_payload(u_set, horizon, p, tol, min_time, max_time))


def li_yorke_payload(
    u_set: UnstableSetId, horizon: int, p: MetricParams, tol: float, min_time: int, max_time: int
) -> dict:
    s, t = _scrambled_pair(u_set.past, check_horizon(p, horizon))
    bounded("min_time", min_time, 1, horizon)
    bounded("max_time", max_time, 1, horizon)
    d_min = distance(s.shift(min_time), t.shift(min_time), p, _positive("tolerance", tol))
    d_max = distance(s.shift(max_time), t.shift(max_time), p, tol)
    min_bound = _li_yorke_block(p.r, horizon)[2]
    eps0 = weight(1, p.r)
    if not d_min.value + d_min.error < min_bound:
        raise AssertionError("scrambled pair is not min_bound-close at min_time")
    if not d_max.value - d_max.error >= eps0:
        raise AssertionError("scrambled pair is not eps0-far at max_time")
    return {
        "m": u_set.alphabet.m,
        "r": p.r,
        "unstable_past": u_set.past,
        "s": s,
        "t": t,
        "horizon": horizon,
        "min_time": min_time,
        "min_value": d_min.value,
        "min_error": d_min.error,
        "min_bound": min_bound,
        "max_time": max_time,
        "max_value": d_max.value,
        "max_error": d_max.error,
        "eps0": eps0,
        "tolerance": tol,
    }


def stable_set_convergence(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float = 1e-12
) -> dict:
    """Orbits of two points sharing a future converge under forward shifts:
    after n shifts every mismatch has weight at most r**(n+1)/(1-r)."""
    return _certificate("stable_convergence", convergence_payload(s, t, n_max, p, tol, True))


def unstable_set_convergence(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float = 1e-12
) -> dict:
    """Mirror of stable_set_convergence under backward shifts for two points
    sharing a past."""
    return _certificate("unstable_convergence", convergence_payload(s, t, n_max, p, tol, False))


def check_n_max(n_max, p: MetricParams, tol: float) -> int:
    """A convergence `n_max`: within `check_steps`, and with a terminal
    bound r**(n_max - 1) that is a normal float.  Below that the bound has
    lost its precision, and the distance it bounds underflows to 0.0."""
    check_steps("n_max", n_max, p, tol)
    if not p.r ** (n_max - 1) >= sys.float_info.min:
        raise ValueError(f"n_max {n_max} at r={p.r!r}: the terminal bound r**(n_max - 1) "
                         "is not a normal float")
    return n_max


def convergence_payload(
    s: BiSequence, t: BiSequence, n_max: int, p: MetricParams, tol: float, forward: bool
) -> dict:
    """Distances of the two orbits after 0..n_max forward (stable) or
    backward (unstable) shifts, each within its tail bound."""
    check_n_max(n_max, p, _positive("tolerance", tol))
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
    if not d.value + d.error < p.r ** (n_max - 1):
        raise AssertionError(f"{name}-set distance failed its terminal bound")
    return {
        "r": p.r,
        "s": s,
        "t": t,
        "n_max": n_max,
        "rows": rows,
        "tolerance": tol,
    }


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
# Reports: payloads built from a few inputs, by the writer and the verifier.
# The horseshoe reports are in `horseshoe`.
# ---------------------------------------------------------------------------

# The exhaustive separation oracle compares up to words**2 pairs.
_EXHAUSTIVE_WORDS = 4096


def diameter_payload(m: int, r: float, max_depth: int) -> dict:
    bounded("max_depth", max_depth, 1, MAX_METRIC_DEPTH)
    report = check_diameter_condition(Alphabet(m), MetricParams(r), max_depth)
    return {"m": m, "r": r, "max_depth": max_depth, **report}


def separation_payload(m: int, r: float, degree: int) -> dict:
    bounded("degree", degree, 1, MAX_METRIC_DEPTH)
    a, p = Alphabet(m), MetricParams(r)
    result = check_separation(a, p, degree)
    exhaustive = (degree <= 3 and m ** degree <= _EXHAUSTIVE_WORDS
                  and separation_holds_everywhere(a, p, degree, result["eps0"]))
    return {"m": m, "r": r, "degree": degree, **result, "exhaustive_at_low_degree": exhaustive}


# ---------------------------------------------------------------------------
# The suite: every file of a certify run
# ---------------------------------------------------------------------------

_CONVERGENCE_STEPS = 20  # n_max of the two convergence certificates
_DELTAS = (0.1, 1e-2, 1e-3)  # of the periodic-density certificates
_EPSILONS = (0.25, 1e-2)  # of the sensitivity certificates


def suite(m: int, r: float, tol: float, seed: int, sets: int, targets: int,
          recurrence_depth: int, horizon: int, metric_depth: int) -> list[tuple[str, dict]]:
    """The (file name, certificate) pairs of a certify run, in write order.
    ValueError, before any is built, unless its files stay within their
    caps and every witness passes its check."""
    p = MetricParams(r)
    check_steps("recurrence_depth", recurrence_depth, p, tol)
    check_return_digits(m, recurrence_depth)
    check_n_max(_CONVERGENCE_STEPS, p, tol)
    check_horizon(p, horizon)
    check_witness_room(p, tol, recurrence_depth, _DELTAS, _EPSILONS)
    a = Alphabet(m)
    rng = random.Random(seed)
    files = [("diameter_condition.json", certificate(
        "diameter_condition", diameter_payload(m, r, metric_depth)))]
    files += [(f"separation_n{degree}.json", certificate(
        "separation", separation_payload(m, r, degree))) for degree in (1, 2, 3)]
    for i in range(sets):
        u_set = random_unstable_set(rng, a)
        member = universal_member(u_set)
        for t in range(targets):
            target = random_two_sided_target(rng, a, 2, 3)
            files.append((f"transitivity_s{i}_t{t}.json", transitivity_witness(u_set, target)))
        for d_i, delta in enumerate(_DELTAS):
            files.append((f"periodic_density_s{i}_d{d_i}.json",
                          periodic_density_witness(member, delta, p, tol)))
        for e_i, eps in enumerate(_EPSILONS):
            files.append((f"sensitivity_s{i}_e{e_i}.json",
                          sensitivity_witness(member, eps, a, p, tol)))
        if i == 0:
            files.append(("poisson_recurrence.json", poisson_recurrence_witness(
                u_set, recurrence_depth, p, tol=tol)))
            files.append(("li_yorke.json", li_yorke_pair(u_set, horizon, p, tol)))
            shared_future = window_padded((2, 1, 2))
            s_conv = member_with_future(u_set, shared_future)
            t_conv = splice(periodic((2,)), shared_future)
            files.append(("stable_convergence.json", stable_set_convergence(
                s_conv, t_conv, _CONVERGENCE_STEPS, p, tol)))
            u1 = member_with_future(u_set, window_padded((1, 2)))
            u2 = member_with_future(u_set, window_padded((2, 1)))
            files.append(("unstable_convergence.json", unstable_set_convergence(
                u1, u2, _CONVERGENCE_STEPS, p, tol)))
    return files


# ---------------------------------------------------------------------------
# Verification: rebuild each payload from its stored inputs and witnesses
# ---------------------------------------------------------------------------

_MISSING = object()


def _same(fresh, stored) -> bool:
    """JSON equality that tells true from 1 and 1.0 from 1; sequences are
    equal as values.  Recursion follows `fresh`, so a deeply nested stored
    value costs one step."""
    if fresh is stored:  # an input the payload echoes
        return True
    if type(fresh) is not type(stored):
        return False
    if type(fresh) is list:
        return len(fresh) == len(stored) and all(map(_same, fresh, stored))
    if type(fresh) is dict:
        return fresh.keys() == stored.keys() and all(_same(v, stored[k]) for k, v in fresh.items())
    return fresh == stored


def _rebuilt(build, *verdicts):
    """Verifier of a kind: rebuild the payload from the inputs and witnesses
    stored in it, name every key whose stored value differs, and require
    each of `verdicts` to be true in the rebuilt payload.  The objects at
    the top level of a payload are sequence payloads: they are parsed
    before the rebuild and compared as sequences.  A claim that the rebuild
    refutes (AssertionError) is a failure."""

    def verify(data: dict, failures: list[str]) -> None:
        d = {k: sequence_from_payload(v) if type(v) is dict else v for k, v in data.items()}
        try:
            fresh = build(d)
        except AssertionError as exc:
            failures.append(str(exc))
            return
        differ = [key for key, value in fresh.items() if not _same(value, d.get(key, _MISSING))]
        differ += d.keys() - fresh.keys()
        failures.extend(f"stored {key} does not recompute" for key in sorted(differ))
        failures.extend(f"recomputed {key} is false" for key in verdicts if not fresh[key])

    return verify


def _seq(d: dict, key: str) -> BiSequence:
    """A sequence input of a payload that `_rebuilt` parsed."""
    if not isinstance(d[key], BiSequence):
        raise TypeError(f"{key} is not a sequence payload")
    return d[key]


def _unstable_set(d: dict) -> UnstableSetId:
    return UnstableSetId(Alphabet(d["m"]), _seq(d, "unstable_past"))


def _rebuilt_convergence(forward: bool):
    return _rebuilt(lambda d: convergence_payload(
        _seq(d, "s"), _seq(d, "t"), d["n_max"], MetricParams(d["r"]), d["tolerance"], forward,
    ))


def _hyperbolic_report(d: dict) -> dict:
    from . import horseshoe

    return horseshoe.hyperbolic_payload(horseshoe.stored_params(d), d["max_depth"])


def _conjugacy_report(d: dict) -> dict:
    from . import horseshoe

    return horseshoe.conjugacy_payload(horseshoe.stored_params(d), d["depth"], d["seed"],
                                       d["samples"])


_VERIFIERS = {
    "transitivity": _rebuilt(lambda d: transitivity_payload(
        _unstable_set(d), CylinderSet(d["target_word"], d["target_start"]),
        d["universal_seed"], d["shift_count"],
    )),
    "periodic_density": _rebuilt(lambda d: periodic_density_payload(
        _seq(d, "sequence"), d["delta"], MetricParams(d["r"]), d["tolerance"], d["k"],
    )),
    "sensitivity": _rebuilt(lambda d: sensitivity_payload(
        _seq(d, "sequence"), d["eps"], Alphabet(d["m"]), MetricParams(d["r"]),
        d["tolerance"], d["k"],
    )),
    "poisson_recurrence": _rebuilt(lambda d: poisson_recurrence_payload(
        _unstable_set(d), d["depths"], MetricParams(d["r"]), d["universal_seed"],
        d["tolerance"], d["times"],
    )),
    "li_yorke": _rebuilt(lambda d: li_yorke_payload(
        _unstable_set(d), d["horizon"], MetricParams(d["r"]), d["tolerance"],
        d["min_time"], d["max_time"],
    )),
    "stable_convergence": _rebuilt_convergence(True),
    "unstable_convergence": _rebuilt_convergence(False),
    "diameter_condition": _rebuilt(
        lambda d: diameter_payload(d["m"], d["r"], d["max_depth"]),
        "strictly_decreasing", "matches_prediction",
    ),
    "separation": _rebuilt(lambda d: separation_payload(d["m"], d["r"], d["degree"])),
    "hyperbolic_conditions": _rebuilt(_hyperbolic_report, "passed"),
    "conjugacy": _rebuilt(_conjugacy_report, "passed"),
}


def verify_certificate(payload: dict) -> VerificationResult:
    """Recompute every claim of a certificate or report from its stored
    witnesses and inputs, after checking its shape and `schema`."""
    shape = shape_error(payload)
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
