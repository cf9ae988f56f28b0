"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Everything here runs at desk scale; no criterion needs more than seconds.
"""

import functools
import json
import math
import random
from fractions import Fraction

from shiftchaos import (
    HorseshoeParams,
    MetricParams,
    SplicedSeq,
    UnstableSetId,
    check_separation,
    conjugacy_check,
    cylinder_diameter,
    distance,
    future_cylinder,
    itinerary,
    li_yorke_pair,
    past_cylinder,
    periodic,
    periodic_density_witness,
    periodic_point,
    point_from_itinerary,
    poisson_recurrence_witness,
    sensitivity_witness,
    set_distance,
    similarity_identity_check,
    stable_set_convergence,
    transitivity_witness,
    two_sided_cylinder,
    universal_member,
    unstable_set_convergence,
    verify_certificate,
    verify_hyperbolic_conditions,
    window_padded,
)
from shiftchaos.certify import random_two_sided_target, random_unstable_set
from shiftchaos.cli import main as cli_main
from shiftchaos.cli import verify_file
from shiftchaos.cylinders import all_words
from shiftchaos.horseshoe import predicted_diagonal, rectangle_diagonal
from shiftchaos.metric import flip_first

from conftest import _is_correctly_rounded_root

P = MetricParams(0.5)
HP = HorseshoeParams()  # exact lambda = 1/3, mu = 3


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} [{label}]: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} [{label}]: PASS")

        return wrapper

    return decorate


@criterion(1, "diameter condition")
def test_diameter_condition_closed_form_and_sampled_sup():
    rng = random.Random(101)
    previous = math.inf
    for d in range(1, 13):
        c = two_sided_cylinder((1,) * (2 * d + 1), -d)
        diam = cylinder_diameter(c, P)
        assert diam == 2.0 ** -d + 2.0 ** -(d + 1)  # exact closed form
        assert diam < previous
        previous = diam
        word = tuple(rng.randint(1, 2) for _ in range(2 * d + 1))
        sup = 0.0
        for i in range(1000):
            if i == 0:
                # adversarial pair: mismatch at every free position
                s = window_padded(word, -d, 1)
                t = window_padded(word, -d, 2)
            else:
                tails = [
                    tuple(rng.randint(1, 2) for _ in range(24)) for _ in range(2)
                ]
                s = window_padded(word + tails[0], -d, rng.randint(1, 2))
                t = window_padded(word + tails[1], -d, rng.randint(1, 2))
            value = distance(s, t, P).value
            assert value <= diam + 1e-15
            sup = max(sup, value)
        assert sup >= 0.95 * diam


@criterion(2, "separation condition")
def test_separation_eps0_exact_with_exhaustive_oracle():
    for m in (2, 3):
        for n in (1, 2, 3):
            result = check_separation(m, P, n)
            assert result["eps0"] == P.r  # exactly r
            words = list(all_words(m, n))
            cyls = {w: future_cylinder(w) for w in words}
            for w, c in cyls.items():
                distances = [set_distance(c, other, P) for other in cyls.values()]
                assert max(distances) >= result["eps0"]
                assert set_distance(c, cyls[flip_first(w, m)], P) == result["eps0"]


@criterion(3, "similarity identities")
def test_similarity_identities_both_directions():
    for length in (1, 2, 3):
        for w in all_words(2, length):
            assert similarity_identity_check(future_cylinder(w), 2, 6)
            assert similarity_identity_check(past_cylinder(w), 2, 6)


@criterion(4, "devaney suite")
def test_devaney_suite_on_seeded_unstable_sets(tmp_path):
    rng = random.Random(2026)
    out = tmp_path / "certs"
    out.mkdir()
    count = 0
    for i in range(20):
        u_set = random_unstable_set(rng, 2)
        member = universal_member(u_set)
        certs = []
        for _ in range(10):
            target = random_two_sided_target(rng, 2, 2, 3)
            certs.append(transitivity_witness(u_set, target))
        for delta in (0.1, 1e-2, 1e-3):
            certs.append(periodic_density_witness(member, delta, P))
        for eps in (0.25, 1e-2):
            cert = sensitivity_witness(member, eps, 2, P)
            assert cert["data"]["far_value"] - cert["data"]["far_error"] >= 0.5
            certs.append(cert)
        for cert in certs:
            path = out / f"cert_{count}.json"
            path.write_text(json.dumps(cert))
            assert verify_file(path, quiet=True) == 0
            count += 1
    assert count == 20 * 15


@criterion(5, "poisson recurrence")
def test_poisson_recurrence_ten_depths():
    u_set = UnstableSetId(2, periodic((1,), 0))
    cert = poisson_recurrence_witness(u_set, 10, P)
    times = cert["data"]["times"]
    thresholds = cert["data"]["thresholds"]
    assert len(times) == 10
    assert all(a < b for a, b in zip(times, times[1:]))
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    for j, thr in enumerate(thresholds, 1):
        assert thr == 2.0 ** -j + 2.0 ** -(j + 1)
    for value, err, thr in zip(
        cert["data"]["distance_values"], cert["data"]["distance_errors"], thresholds
    ):
        assert value + err < thr
    assert verify_certificate(cert).ok


@criterion(6, "li-yorke scrambled pair")
def test_li_yorke_dyadic_pair_at_horizon_1000():
    u_set = UnstableSetId(2, periodic((1,), 0))
    cert = li_yorke_pair(u_set, 1000, P)
    assert cert["data"]["min_value"] < 2.0 ** -8
    assert cert["data"]["max_value"] >= 0.5
    assert verify_certificate(cert).ok


@criterion(7, "stable/unstable convergence")
def test_convergence_closed_forms():
    s = window_padded((1,), 0, 1)
    t = window_padded((2,), 0, 1)
    cert = stable_set_convergence(s, t, 20, P)
    for row in cert["data"]["rows"]:
        assert row["value"] == 0.5 ** (row["n"] + 1)  # closed form, error 0
        assert row["error"] == 0.0
    assert cert["data"]["rows"][11]["value"] < 1e-3
    # mirrored pair differing only at position 1
    s2 = window_padded((1,), 1, 1)
    t2 = window_padded((2,), 1, 1)
    cert2 = unstable_set_convergence(s2, t2, 20, P)
    for row in cert2["data"]["rows"]:
        assert row["value"] == 0.5 ** (row["n"] + 1)
        assert row["error"] == 0.0
    assert cert2["data"]["rows"][11]["value"] < 1e-3
    # worst case: pasts differing everywhere still drop below 1e-3 by n = 11
    all_ones = periodic_point((1,))
    two_past = SplicedSeq(periodic_point((2,)), all_ones, 0)
    worst = stable_set_convergence(all_ones, two_past, 20, P)
    assert worst["data"]["rows"][11]["value"] < 1e-3


@criterion(8, "horseshoe conjugacy and round trip")
def test_conjugacy_and_round_trip():
    rng = random.Random(30)
    for _ in range(100):
        word = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 12)))
        rep = conjugacy_check(periodic_point(word), HP, 30)
        assert rep["passed"]  # defect <= analytic tail bound, exactly
        assert rep["defect"] <= rep["bound"]
        assert rep["defect"] <= 1e-8
    for num in range(2 ** 12):
        word = tuple((num >> i) % 2 + 1 for i in range(12))
        seq = periodic_point(word)
        pt, _ = point_from_itinerary(seq, HP, 30)
        assert tuple(itinerary(pt, HP, back=0, fwd=12)) == word


@criterion(9, "horseshoe hyperbolic conditions")
def test_hyperbolic_conditions_exact_table_and_eps0():
    report = verify_hyperbolic_conditions(HP, 8)
    assert report["passed"] and report["grid_exact"]
    for k in range(1, 9):
        for n in range(1, 9):
            diag = rectangle_diagonal(HP, k, n)
            predicted = predicted_diagonal(HP, k, n)
            assert diag == predicted  # bitwise equal floats from equal rationals
            assert _is_correctly_rounded_root(
                predicted, Fraction(1, 3) ** (2 * (k + 1)) + Fraction(3) ** (-2 * n)
            )
    assert report["eps0"] == float(1 - Fraction(2, 3))
    assert abs(report["brute_min_gap"] - report["eps0"]) <= 1e-12


@criterion(10, "reproducibility")
def test_identical_config_and_seed_reproduce_bytes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 2\nr = 1/2\nseed = 1234\nhorizon = 100\nsets = 2\ntargets = 2\n")
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        assert cli_main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
        assert (
            cli_main(
                [
                    "horseshoe",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out / "hs"),
                    "--format",
                    "json,csv,svg",
                ]
            )
            == 0
        )
        snapshot = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                snapshot[str(path.relative_to(out))] = path.read_bytes()
        outputs.append(snapshot)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
