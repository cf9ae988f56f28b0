"""End-to-end command-line behavior: exit codes, files, verify mode."""

import hashlib
import json
import math
import re
import sys
from fractions import Fraction
import time
import tracemalloc
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shiftchaos.certify import VerificationResult, check_return_digits, verify_certificate
from shiftchaos.schema import (
    MAX_CONJUGACY_DEPTH,
    MAX_CONJUGACY_SAMPLES,
    MAX_METRIC_DEPTH,
    MAX_STEPS,
    MAX_WINDOW,
    certificate,
)
from shiftchaos.cli import _write_json, load_config, main, parse_descriptor, verify_file
from shiftchaos.cli import ConfigError, RunConfig
from shiftchaos.horseshoe import HorseshoeParams

from conftest import ROOT_IDS, ROOT_PARAMS, _pull_back, _ref_enumeration, planar_orbit_csv


def run(*argv):
    return main(list(argv))


def test_certify_default_emits_verified_files(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run("certify", "--out", str(out), "--seed", "5") == 0
    files = sorted(out.glob("*.json"))
    assert len(files) >= 5
    for path in files:
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert run("--verify", str(path)) == 0


def test_certify_rejects_zero_r(tmp_path):
    assert run("certify", "--r", "0", "--out", str(tmp_path / "x")) == 2


def test_certify_rejects_zero_tolerance(tmp_path):
    assert run("certify", "--tol", "0", "--out", str(tmp_path / "x")) == 2


def test_verify_detects_tampering(tmp_path):
    out = tmp_path / "certs"
    assert run("certify", "--out", str(out), "--seed", "1") == 0
    path = out / "li_yorke.json"
    payload = json.loads(path.read_text())
    payload["data"]["max_value"] = 12.0
    path.write_text(json.dumps(payload))
    assert run("--verify", str(path)) == 1


def test_verify_missing_file_is_usage_error(tmp_path):
    assert run("--verify", str(tmp_path / "nope.json")) == 2


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        "3",
        '"li_yorke"',
        "null",
        '{"schema": 1, "kind": "li_yorke", "data": [1]}',
        '{"schema": 1, "kind": "conjugacy", "data": "rows"}',
        '{"schema": 1, "kind": ["li_yorke"], "data": {}}',
    ],
)
def test_verify_non_object_payload_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "odd.json"
    path.write_text(text)
    assert run("--verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert run("--verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_deeply_nested_sequence_payload_fails(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run("certify", "--out", str(out), "--seed", "7") == 0
    path = out / "sensitivity_s0_e0.json"
    payload = json.loads(path.read_text())
    seq = payload["data"]["sequence"]
    for _ in range(500):
        seq = {"kind": "flipped", "base": seq, "m": 2}
    payload["data"]["sequence"] = seq
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert "malformed certificate" in capsys.readouterr().out


def test_verify_recomputes_horseshoe_reports(tmp_path):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--k", "2", "--n", "2", "--seed", "3") == 0
    for name in ("hyperbolic_report.json", "conjugacy_report.json"):
        assert run("--verify", str(out / name)) == 0
    path = out / "conjugacy_report.json"
    payload = json.loads(path.read_text())
    payload["data"]["rows"][0]["defect"] = 0.25
    path.write_text(json.dumps(payload))
    assert run("--verify", str(path)) == 1
    assert run("--verify", str(out / "rectangles.csv")) == 2  # not a JSON report


def _tamper(path, edit):
    payload = json.loads(path.read_text())
    edit(payload["data"])
    path.write_text(json.dumps(payload))


def _set(key, value):
    return lambda data: data.__setitem__(key, value)


@pytest.fixture(scope="module")
def fresh_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fresh")
    assert run("certify", "--out", str(out / "c"), "--seed", "3") == 0
    assert run("horseshoe", "--out", str(out / "h"), "--k", "2", "--n", "2", "--seed", "3") == 0
    return out


@pytest.mark.parametrize("order", list(permutations(range(3))))
def test_verify_of_many_files_reports_each_and_exits_with_the_worst(
    fresh_outputs, tmp_path, capsys, order
):
    ok = fresh_outputs / "c" / "li_yorke.json"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(ok.read_text())
    _tamper(tampered, _set("max_value", 12.0))
    paths = [str(p) for p in (ok, tampered, tmp_path / "missing.json")]
    paths = [paths[i] for i in order]
    capsys.readouterr()
    singles = []
    for path in paths:
        singles.append((run("--verify", path), capsys.readouterr()))
    assert sorted(code for code, _ in singles) == [0, 1, 2]
    assert run("--verify", *paths) == 2
    joined = capsys.readouterr()
    assert joined.out == "".join(c.out for _, c in singles)
    assert joined.err == "".join(c.err for _, c in singles)
    readable = [path for path in paths if not path.endswith("missing.json")]
    assert run("--verify", *readable) == 1
    assert run("--verify", str(ok), str(ok)) == 0


@pytest.mark.parametrize(
    "edit",
    [
        _set("rows", []),
        lambda data: data["rows"].pop(),
        _set("strictly_decreasing", False),
        _set("matches_prediction", False),
        lambda data: data["rows"][0].__setitem__("n", 2),
    ],
    ids=["no-rows", "short-rows", "decreasing", "prediction", "row-n"],
)
def test_verify_diameter_compares_rows_and_flags(tmp_path, edit):
    out = tmp_path / "certs"
    assert run("certify", "--out", str(out), "--seed", "1") == 0
    path = out / "diameter_condition.json"
    assert run("--verify", str(path)) == 0
    _tamper(path, edit)
    assert run("--verify", str(path)) == 1


@pytest.mark.parametrize(
    "name, edit",
    [
        ("hyperbolic_report.json", _set("grid_exact", False)),
        ("hyperbolic_report.json", _set("passed", False)),
        ("hyperbolic_report.json", _set("strictly_decreasing", False)),
        ("hyperbolic_report.json", _set("eps0_horizontal", 0.5)),
        ("hyperbolic_report.json", lambda data: data["rows"][-1].__setitem__("k", 6)),
        ("conjugacy_report.json", _set("passed", False)),
        ("conjugacy_report.json", lambda data: data["rows"][0].__setitem__("passed", False)),
    ],
    ids=["grid-exact", "passed", "decreasing", "eps0-horizontal", "row-gap",
         "conjugacy-passed", "conjugacy-row-passed"],
)
def test_verify_horseshoe_reports_compare_flags_and_rows(tmp_path, name, edit):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--k", "2", "--n", "2", "--seed", "3") == 0
    path = out / name
    assert run("--verify", str(path)) == 0
    _tamper(path, edit)
    assert run("--verify", str(path)) == 1


def test_verify_refuses_a_weight_base_past_the_depth_cap(tmp_path, capsys):
    out = tmp_path / "certs"
    assert run("certify", "--out", str(out), "--seed", "1") == 0
    path = out / "sensitivity_s0_e0.json"
    _tamper(path, _set("r", 1 - 1e-6))  # depth 42,139,657 at tolerance 1e-12
    assert run("--verify", str(path)) == 1
    assert "malformed certificate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit",
    [
        _set("rows", []),
        lambda data: data["rows"].pop(),
        lambda data: data["rows"].reverse(),  # each row alone still recomputes
    ],
    ids=["no-rows", "short-rows", "reordered"],
)
def test_verify_conjugacy_rebuilds_every_sample(tmp_path, edit):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--k", "2", "--n", "2", "--seed", "3") == 0
    path = out / "conjugacy_report.json"
    _tamper(path, edit)
    assert run("--verify", str(path)) == 1


@pytest.mark.parametrize("keep", [1, 3])
def test_verify_hyperbolic_report_cut_at_its_end_fails(tmp_path, capsys, keep):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--k", "2", "--n", "2") == 0
    path = out / "hyperbolic_report.json"
    _tamper(path, lambda data: data.__setitem__("rows", data["rows"][:keep]))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["  - stored rows does not recompute"]


@pytest.mark.parametrize(
    "name", ["transitivity_s0_t0.json", "li_yorke.json", "diameter_condition.json"]
)
def test_verify_payload_without_data_is_usage_error(fresh_outputs, tmp_path, capsys, name):
    payload = json.loads((fresh_outputs / "c" / name).read_text())
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "kind": payload["kind"], **payload.pop("data")}))
    capsys.readouterr()
    assert run("--verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    result = verify_certificate(json.loads(path.read_text()))
    assert not result.ok and not result.shaped


@pytest.mark.parametrize(
    "name, key, value, message",
    [
        ("c/diameter_condition.json", "max_depth", MAX_METRIC_DEPTH + 1, "malformed certificate"),
        ("c/separation_n1.json", "degree", MAX_METRIC_DEPTH + 1, "malformed certificate"),
        ("h/conjugacy_report.json", "depth", MAX_CONJUGACY_DEPTH + 1, "malformed certificate"),
        ("h/conjugacy_report.json", "samples", MAX_CONJUGACY_SAMPLES + 1, "malformed certificate"),
        ("c/sensitivity_s0_e0.json", "k", 1 << 40, "malformed certificate"),
        ("c/periodic_density_s0_d0.json", "k", 1 << 40, "malformed certificate"),
        ("c/periodic_density_s0_d0.json", "k", MAX_WINDOW + 1, "malformed certificate"),
        ("c/li_yorke.json", "horizon", MAX_WINDOW + 1, "malformed certificate"),
        ("c/stable_convergence.json", "n_max", MAX_STEPS + 1, "malformed certificate"),
        ("c/unstable_convergence.json", "n_max", 1 << 40, "malformed certificate"),
        # r**1079 is subnormal: the terminal bound certifies nothing
        ("c/unstable_convergence.json", "n_max", 1080, "malformed certificate"),
        ("c/poisson_recurrence.json", "depths", MAX_STEPS + 1, "malformed certificate"),
        # 10**27 words are too many for the exhaustive separation oracle
        ("c/separation_n3.json", "m", 10 ** 9, "stored exhaustive_at_low_degree does not"),
        # exact powers of a 17-bit lambda at the depth cap take seconds
        ("h/conjugacy_report.json", "lambda", "1/131071", "malformed certificate"),
    ],
)
def test_verify_bounds_the_work_of_stored_sizes(
    fresh_outputs, tmp_path, capsys, name, key, value, message
):
    path = tmp_path / "tampered.json"
    path.write_text((fresh_outputs / name).read_text())
    _tamper(path, _set(key, value))
    capsys.readouterr()
    start = time.perf_counter()
    assert run("--verify", str(path)) == 1
    assert time.perf_counter() - start < 0.5
    assert message in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("periodic_density_s0_d0.json", "delta", True),
        ("sensitivity_s0_e0.json", "eps", True),
        ("li_yorke.json", "tolerance", True),
        ("li_yorke.json", "tolerance", 5),
        ("li_yorke.json", "tolerance", math.inf),  # written as Infinity
        ("stable_convergence.json", "tolerance", True),
        ("unstable_convergence.json", "tolerance", 5),
        ("stable_convergence.json", "tolerance", math.inf),
    ],
)
def test_verify_requires_finite_positive_float_inputs(
    fresh_outputs, tmp_path, capsys, name, key, value
):
    path = tmp_path / name
    path.write_text((fresh_outputs / "c" / name).read_text())
    _tamper(path, _set(key, value))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert f"{key} must be a finite positive float" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["poisson_recurrence.json", "stable_convergence.json"])
def test_verify_bounds_steps_times_truncation_depth(fresh_outputs, tmp_path, capsys, name):
    # at r = 0.9999 each distance with a universal side reads 375,326 symbols
    path = tmp_path / name
    path.write_text((fresh_outputs / "c" / name).read_text())

    def edit(data):
        data["r"] = 0.9999
        if "times" in data:
            data["depths"] = 40
            data["times"] = [data["times"][0] + 7 * i for i in range(40)]

    _tamper(path, edit)
    capsys.readouterr()
    start = time.perf_counter()
    assert run("--verify", str(path)) == 1
    assert time.perf_counter() - start < 0.5
    assert "exceeds the budget of" in capsys.readouterr().out


@pytest.mark.parametrize("line", ["r = 0.9999", "r = 0.99\nrecurrence_depth = 2048"])
def test_certify_rejects_a_config_its_verifier_would_refuse(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("line", ["sets = -2", "targets = -3", "sets = 1\ntargets = -1"])
def test_certify_rejects_negative_sets_and_targets(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 2
    assert "need sets >= 0 and targets >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_certify_with_zero_sets_writes_the_four_set_free_reports(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sets = 0\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "diameter_condition.json", "separation_n1.json", "separation_n2.json",
        "separation_n3.json"]


@pytest.mark.parametrize("sets", [RunConfig.sets, 0])
def test_certify_writes_the_suite_of_certify(tmp_path, capsys, sets):
    from shiftchaos.certify import suite

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"sets = {sets}\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 0
    rows = [row.split() for row in capsys.readouterr().out.splitlines()[1:]]
    files = suite(RunConfig.m, RunConfig.r, RunConfig.tol, RunConfig.seed, sets,
                  RunConfig.targets, RunConfig.recurrence_depth, RunConfig.horizon,
                  RunConfig.metric_depth)
    assert [name for name, _ in files] == [name for name, _ in rows]
    assert sorted(p.name for p in out.iterdir()) == sorted(name for name, _ in files)
    for name, cert in files:
        assert json.loads((out / name).read_text()) == cert


@pytest.mark.parametrize(
    "flags, message",
    [(("--r", "0.6"), "certify needs r <= 1/2: its Li-Yorke proximity bound is not proven above"),
     (("--horizon", "12286"),
      "horizon 12286 is too long at r = 0.5: the Li-Yorke proximity bound underflows"),
     (("--tol", "2e-3"),
      "recurrence_depth 10 needs a truncation depth above it; at r=0.5, tol=0.002 it is 10")],
)
def test_certify_refuses_before_building_with_zero_sets(tmp_path, capsys, flags, message):
    # with sets = 0 no witness builder runs: only the checks made before any
    # file is built can refuse these runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sets = 0\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out), *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, claim",
    [(("--r", "0.6"), "r <= 1/2"), (("--r", "0.9"), "r <= 1/2"),
     (("--horizon", "16000"), "underflows"), (("--horizon", "12286"), "underflows")],
)
def test_certify_refuses_an_unproven_li_yorke_bound(tmp_path, capsys, flags, claim):
    out = tmp_path / "c"
    assert run("certify", "--out", str(out), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and claim in err
    assert not out.exists()


def _echoing_certificate(kind):
    """A report or certificate of `kind` whose echoed integer inputs are 0
    (target_start, universal_seed) or 1 (the conjugacy seed)."""
    from shiftchaos import (Alphabet, CylinderSet, MetricParams, UnstableSetId, periodic,
                            poisson_recurrence_witness, transitivity_witness)
    from shiftchaos.horseshoe import conjugacy_payload

    u_set = UnstableSetId(Alphabet(2), periodic((1,), 0))
    if kind == "transitivity":
        return transitivity_witness(u_set, CylinderSet((2, 1), 0))
    if kind == "poisson_recurrence":
        return poisson_recurrence_witness(u_set, 3, MetricParams(0.5))
    return certificate("conjugacy", conjugacy_payload(HorseshoeParams(), 20, 1, 5))


@pytest.mark.parametrize(
    "kind, key",
    [("transitivity", "target_start"), ("transitivity", "universal_seed"),
     ("poisson_recurrence", "universal_seed"), ("conjugacy", "seed")],
)
def test_verify_refuses_a_boolean_in_an_echoed_integer_field(tmp_path, capsys, kind, key):
    # the payload echoes the stored value, so only a type check in the
    # payload function tells false from 0 and true from 1
    path = tmp_path / f"{kind}.json"
    _write_json(path, _echoing_certificate(kind))
    assert run("--verify", str(path)) == 0
    _tamper(path, lambda data: data.__setitem__(key, bool(data[key])))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    out = capsys.readouterr().out
    assert f"malformed certificate: {key} must be an integer" in out


@pytest.mark.parametrize(
    "key, value, claim",
    [("horizon", 12286, "underflows"), ("r", 0.6, "r <= 1/2"), ("r", 5e-324, "distal claim")],
)
def test_verify_refuses_a_li_yorke_file_certify_would_refuse(
    fresh_outputs, tmp_path, capsys, key, value, claim
):
    # the refusals of `certify` hold under --verify: a malformed certificate,
    # not a claim that the rebuild refutes
    path = tmp_path / "li_yorke.json"
    path.write_text((fresh_outputs / "c" / "li_yorke.json").read_text())
    _tamper(path, _set(key, value))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    out = capsys.readouterr().out
    assert "malformed certificate" in out and claim in out


@pytest.mark.parametrize(
    "flags, claim",
    [
        # the Poisson fallback witness at a truncation depth <= recurrence_depth
        (("--r", "0.07"), "truncation depth"), (("--r", "0.06"), "truncation depth"),
        (("--r", "0.05"), "truncation depth"), (("--r", "0.01"), "truncation depth"),
        (("--r", "1e-20"), "not a normal float"),
        (("--tol", "2e-3"), "truncation depth"), (("--tol", "5e-3"), "truncation depth"),
        (("--tol", "1e-2"), "truncation depth"), (("--tol", "0.5"), "truncation depth"),
    ],
)
def test_certify_refuses_an_error_its_witnesses_cannot_absorb(tmp_path, capsys, flags, claim):
    out = tmp_path / "c"
    assert run("certify", "--out", str(out), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and claim in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("lines", ["tol = 2e-3", "r = 0.45\ntol = 1.5e-3"])
def test_certify_refuses_a_tolerance_its_periodic_witnesses_cannot_absorb(
    tmp_path, capsys, lines
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("recurrence_depth = 1\n" + lines + "\n")
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 2
    assert "periodic witness at delta=0.001" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--r", "0.08"), ("--r", "0.5"), ("--tol", "1e-3")])
def test_certify_accepts_an_error_its_witnesses_absorb(tmp_path, flags):
    assert run("certify", "--out", str(tmp_path / "c"), *flags) == 0


def test_certify_takes_alphabets_past_255(tmp_path):
    for m in ("255", "256", "300"):
        out = tmp_path / m
        assert run("certify", "--m", m, "--out", str(out)) == 0
        assert all(verify_file(path, quiet=True) == 0 for path in out.iterdir())


def test_orbit_takes_symbols_past_64_bits(tmp_path):
    out = tmp_path / "o"
    assert run("orbit", "--start", "universal:99999999999", "--m", str(2 ** 70),
               "--out", str(out)) == 0
    assert len((out / "orbit.csv").read_text().splitlines()) == 52


@pytest.mark.parametrize(
    "command",
    [("certify",), ("horseshoe",), ("orbit", "--start", "universal", "--steps", "3")],
    ids=["certify", "horseshoe", "orbit"],
)
def test_an_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    for out in (blocker, blocker / "sub"):
        assert run(*command, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot make output directory ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
def test_certify_refuses_return_times_past_the_int_digit_limit(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 255\nrecurrence_depth = 900\ntol = 1e-290\nsets = 1\ntargets = 0\n")
    out = tmp_path / "c"
    start = time.perf_counter()
    assert run("certify", "--config", str(cfg), "--out", str(out)) == 2
    assert time.perf_counter() - start < 2
    assert f"limit of {sys.get_int_max_str_digits()} digits" in capsys.readouterr().err
    assert not out.exists()
    check_return_digits(2, MAX_STEPS)  # two symbols stay admitted at every depth


@pytest.mark.parametrize("command", ["horseshoe", "certify"])
def test_a_huge_k_is_refused_before_its_grid_size_is_built(tmp_path, capsys, command):
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        status = run(command, "--k", "1000000000000", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2 and not out.exists()
    assert peak < 1 << 20
    assert "rectangle cap exceeded" in capsys.readouterr().err


def test_verify_refutes_a_terminal_bound_the_error_overturns(tmp_path, capsys):
    from shiftchaos import MetricParams, UniversalSeq, periodic, splice, stable_set_convergence

    u = UniversalSeq(2)
    cert = stable_set_convergence(
        splice(periodic((1,)), u), splice(periodic((2,)), u), 20, MetricParams(0.5)
    )
    path = tmp_path / "stable_convergence.json"
    _write_json(path, cert)
    assert run("--verify", str(path)) == 0
    _tamper(path, _set("tolerance", 1e-3))  # the last row's error grows to 4.9e-4
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert "  - stable-set distance failed its terminal bound" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "name, key, edit, claim",
    [
        ("transitivity_s0_t0.json", "shift_count", 0, "universal member missed the target window"),
        ("periodic_density_s0_d0.json", "k", 0, "periodic witness missed its delta bound"),
        ("sensitivity_s0_e0.json", "k", 0, "sensitivity partner not eps-close"),
        ("poisson_recurrence.json", "times", lambda times: [2] + times[1:],
         "recurrence distance at depth 1 exceeded its threshold"),
        ("li_yorke.json", "min_time", 1, "scrambled pair is not min_bound-close at min_time"),
    ],
)
def test_verify_reports_a_refuted_claim_as_a_failure(
    fresh_outputs, tmp_path, capsys, name, key, edit, claim
):
    path = tmp_path / name
    path.write_text((fresh_outputs / "c" / name).read_text())
    _tamper(path, lambda data: data.__setitem__(key, edit(data[key]) if callable(edit) else edit))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [f"  - {claim}"]


# Every stored key of a certificate that is neither an input nor a witness.
DERIVED_KEYS = {
    "transitivity_s0_t0.json": (),
    "periodic_density_s0_d0.json": ("witness", "distance_value", "distance_error", "degenerate"),
    "sensitivity_s0_e0.json": (
        "eps0", "partner", "close_value", "close_error", "far_value", "far_error", "degenerate",
    ),
    "poisson_recurrence.json": ("thresholds", "distance_values", "distance_errors"),
    "li_yorke.json": (
        "s", "t", "min_value", "min_error", "min_bound", "max_value", "max_error", "eps0",
    ),
    "stable_convergence.json": ("rows",),
    "unstable_convergence.json": ("rows",),
}


def _other(value):
    """A JSON value of the same kind as `value` that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, list):
        return value + value[-1:]
    return {"kind": "periodic", "block": [2, 1, 1], "phase": 1}  # a sequence payload


@pytest.mark.parametrize("name", sorted(DERIVED_KEYS))
def test_verify_rebuilds_every_derived_key(fresh_outputs, name):
    stored = json.loads((fresh_outputs / "c" / name).read_text())
    assert verify_certificate(stored).ok
    for key in DERIVED_KEYS[name] + ("note",):
        for edit in (lambda d: d.__setitem__(key, _other(d.get(key, 1.0))), lambda d: d.pop(key, None)):
            payload = json.loads(json.dumps(stored))
            edit(payload["data"])
            if payload == stored:
                continue  # deleting a key that is not stored
            assert verify_certificate(payload).failures == (f"stored {key} does not recompute",)


@pytest.mark.parametrize("schema", [None, "1", True, 99, 1.0], ids=["missing", "string", "true", "99", "float"])
def test_verify_requires_schema_one(fresh_outputs, tmp_path, capsys, schema):
    payload = json.loads((fresh_outputs / "c" / "li_yorke.json").read_text())
    if schema is None:
        del payload["schema"]
    else:
        payload["schema"] = schema
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("--verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _cut(key, keep):
    return lambda data: data.__setitem__(key, data[key][:keep])


@pytest.mark.parametrize(
    "name, edit",
    [
        ("periodic_density_s0_d0.json", _set("distance_error", -3.6e16)),
        ("periodic_density_s0_d0.json", _set("degenerate", True)),
        ("sensitivity_s0_e0.json", _set("close_error", 0.5)),
        ("sensitivity_s0_e0.json", _set("far_error", "0")),
        ("sensitivity_s0_e0.json", _set("degenerate", None)),
        ("sensitivity_s0_e0.json", _set("m", 1)),
        ("sensitivity_s0_e0.json", _set("m", 3)),  # the partner flips mod 2
        ("poisson_recurrence.json", lambda data: data["distance_errors"].__setitem__(0, 1.0)),
        ("poisson_recurrence.json", lambda data: data.__setitem__("depths", data["depths"] - 1)),
        ("poisson_recurrence.json", _cut("times", 2)),
        ("poisson_recurrence.json", _cut("thresholds", 1)),
        ("poisson_recurrence.json", _cut("distance_values", 3)),
        ("poisson_recurrence.json", _cut("distance_errors", 0)),
        ("li_yorke.json", _set("min_error", 0.25)),
        ("li_yorke.json", _set("max_error", None)),
        ("li_yorke.json", _set("m", 1)),
        ("stable_convergence.json", lambda data: data["rows"][3].__setitem__("error", 0.5)),
    ],
    ids=[
        "density-distance_error", "density-degenerate", "sensitivity-close_error",
        "sensitivity-far_error", "sensitivity-degenerate", "sensitivity-m-1", "sensitivity-m-3",
        "poisson-distance_errors", "poisson-depths", "poisson-times", "poisson-thresholds",
        "poisson-distance_values", "poisson-no-errors", "li_yorke-min_error",
        "li_yorke-max_error", "li_yorke-m", "convergence-row-error",
    ],
)
def test_verify_checks_every_stored_certificate_field(fresh_outputs, tmp_path, name, edit):
    path = tmp_path / name
    path.write_text((fresh_outputs / "c" / name).read_text())
    assert run("--verify", str(path)) == 0
    _tamper(path, edit)
    assert run("--verify", str(path)) == 1


LEGACY = Path(__file__).parent / "data" / "legacy"


def test_legacy_payload_kinds_still_verify():
    """Files written with the older payload kinds (periodic, window_padded,
    and spliced or flipped trees of them) still verify."""
    kinds = set()
    for path in sorted(LEGACY.glob("*.json")):
        assert run("--verify", str(path)) == 0
        kinds.update(re.findall(r'"kind": "(\w+)"', path.read_text()))
    assert {"periodic", "window_padded", "spliced", "flipped"} <= kinds


def _put_symbol(keys, value):
    """Edit putting `value` in the word at data[keys[0]][keys[1]]..., in
    place of the first symbol that int() would read it as."""
    def edit(data):
        *path, last = keys
        for key in path:
            data = data[key]
        if type(data[last]) is list:
            data[last][data[last].index(int(value))] = value
        else:  # the pad symbol of a window_padded payload
            data[last] = value
    return edit


@pytest.mark.parametrize(
    "value", [2.7, 2.0, "1", True], ids=["float", "integral-float", "string", "bool"]
)
@pytest.mark.parametrize(
    "source, keys",
    [
        ("c/periodic_density_s0_d0.json", ("witness", "block")),
        ("c/stable_convergence.json", ("s", "center")),
        ("legacy/periodic_density_s0_d0.json", ("sequence", "past", "window")),
        ("legacy/periodic_density_s0_d0.json", ("sequence", "past", "pad")),
    ],
    ids=["periodic", "eventually-periodic", "window-padded", "pad"],
)
def test_verify_refuses_symbols_that_are_not_integers(
    fresh_outputs, tmp_path, capsys, source, keys, value
):
    # int() reads each of these as the symbol it replaces; the file must not
    # verify as the sequence that reading gives
    folder, name = source.split("/")
    path = tmp_path / name
    path.write_text(((LEGACY if folder == "legacy" else fresh_outputs / folder) / name).read_text())
    assert verify_file(path, quiet=True) == 0
    _tamper(path, _put_symbol(keys, value))
    capsys.readouterr()
    assert verify_file(path) == 1
    assert "malformed certificate" in capsys.readouterr().out


def _boolean_field(node, kind, key):
    """The first sequence payload of `kind` below `node` (depth first) whose
    `key` holds 0 or 1, or None."""
    if isinstance(node, dict):
        if node.get("kind") == kind and node.get(key) in (0, 1):
            return node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            found = _boolean_field(child, kind, key)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize(
    "folder, kind, key",
    [
        ("c", "periodic", "phase"),
        ("c", "eventually_periodic", "center_start"),
        ("c", "universal", "seed"),
        ("c", "universal", "offset"),
        ("c", "spliced", "offset"),
        ("legacy", "window_padded", "start"),
    ],
)
def test_verify_refuses_true_and_false_in_integer_fields(
    fresh_outputs, tmp_path, capsys, folder, kind, key
):
    # Python reads true as 1 and false as 0, the values these fields hold
    for path in sorted((LEGACY if folder == "legacy" else fresh_outputs / folder).glob("*.json")):
        payload = json.loads(path.read_text())
        node = _boolean_field(payload["data"], kind, key)
        if node is not None:
            break
    else:
        pytest.fail(f"no {kind} payload holds {key} at 0 or 1")
    node[key] = bool(node[key])
    tampered = tmp_path / path.name
    tampered.write_text(json.dumps(payload))
    assert verify_file(path, quiet=True) == 0
    capsys.readouterr()
    assert verify_file(tampered) == 1
    assert "malformed certificate" in capsys.readouterr().out


@pytest.mark.parametrize(
    "side, part, start",
    [("s", "past", -10 ** 12), ("t", "past", -10 ** 12), ("t", "future", 10 ** 12)],
)
def test_verify_bounds_the_span_of_a_stored_splice(tmp_path, capsys, side, part, start):
    """A spliced payload whose flat center would span 10**12 positions is
    read as a lazy splice, so verifying it reads bounded windows."""
    path = tmp_path / "li_yorke.json"
    path.write_text((LEGACY / "li_yorke.json").read_text())
    _tamper(path, lambda data: data[side][part].__setitem__("start", start))
    capsys.readouterr()
    assert run("--verify", str(path)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_undecodable_bytes_is_usage_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run("--verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "recode, code",
    [
        (lambda b: b"\xef\xbb\xbf" + b, 2),  # a UTF-8 BOM
        (lambda b: b.decode().encode("utf-16"), 2),  # with its BOM
        (lambda b: b.decode().encode("utf-16-le"), 2),
        (lambda b: b.decode().encode("utf-32"), 2),
        (lambda b: b.replace(b"\n", b"\n\xff", 1), 2),  # one byte that is not UTF-8
        (lambda b: b.replace(b"\n", b"\r\n"), 0),  # JSON whitespace
    ],
    ids=["bom", "utf-16", "utf-16-le", "utf-32", "xff", "crlf"],
)
def test_verify_reads_certificates_as_utf8_only(fresh_outputs, tmp_path, capsys, recode, code):
    """RFC 8259: a certificate is UTF-8 without a BOM.  json.loads(bytes)
    would also take a BOM, UTF-16 and UTF-32."""
    path = tmp_path / "li_yorke.json"
    path.write_bytes(recode((fresh_outputs / "c" / "li_yorke.json").read_bytes()))
    capsys.readouterr()
    assert run("--verify", str(path)) == code
    if code:
        assert capsys.readouterr().err.startswith(f"error: cannot load {path}: ")


def test_write_json_writes_sorted_indented_ascii(tmp_path):
    data = {"b": [1, 2.5, None], "a": "café →", "c": {"z": True, "y": -0.0}}
    path = tmp_path / "x.json"
    _write_json(path, certificate("odd", data))
    text = json.dumps({"schema": 1, "kind": "odd", "data": data}, sort_keys=True, indent=2) + "\n"
    assert path.read_bytes() == text.encode("ascii")


@pytest.mark.parametrize(
    "command",
    [("certify",), ("orbit", "--start", "universal", "--steps", "3"), ("horseshoe",)],
    ids=["certify", "orbit", "horseshoe"],
)
def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys, command):
    cfg, out = tmp_path / "bad.cfg", tmp_path / "out"
    cfg.write_bytes(b"m = 2\n\xff\xfe\n")
    assert run(*command, "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ") and "Traceback" not in err
    assert not out.exists()


def test_config_is_read_as_utf8_without_a_bom(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfm = 2\n")
    with pytest.raises(ConfigError, match=re.escape("unknown key '\\ufeffm'")):
        load_config(cfg, {})
    cfg.write_bytes(b"m = 3\r\nseed = 4\r\n# caf\xc3\xa9\r\n")  # CRLF lines, a UTF-8 comment
    config = load_config(cfg, {})
    assert (config.m, config.seed) == (3, 4)


@pytest.mark.parametrize(
    "line",
    [
        "horizon = 9",
        f"horizon = {MAX_WINDOW + 1}",
        "recurrence_depth = 0",
        f"recurrence_depth = {MAX_STEPS + 1}",
        "metric_depth = 0",
        f"metric_depth = {MAX_METRIC_DEPTH + 1}",
        f"conjugacy_depth = {MAX_CONJUGACY_DEPTH + 1}",
        f"conjugacy_samples = {MAX_CONJUGACY_SAMPLES + 1}",
        "mu = inf",
        "lambda = 1/131071",
        "mu = 65537/3",
    ],
)
def test_config_rejects_sizes_past_their_caps_and_infinite_mu(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    for command in ("certify", "horseshoe"):
        out = tmp_path / command
        assert run(command, "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


@pytest.mark.parametrize("bad", [("--lam", "7"), ("--mu", "2"), "lambda = 1e-5", "mu = 65537/3"])
@pytest.mark.parametrize(
    "command",
    [("certify",), ("orbit", "--start", "universal", "--steps", "3"), ("horseshoe",)],
    ids=["certify", "orbit", "horseshoe"],
)
def test_bad_lambda_or_mu_is_usage_error_for_every_subcommand(tmp_path, capsys, command, bad):
    """lambda and mu are validated whatever the subcommand, also where the
    run does not use them, from a flag or from a config file."""
    flags = bad
    if isinstance(bad, str):
        (tmp_path / "run.cfg").write_text(bad + "\n")
        flags = ("--config", str(tmp_path / "run.cfg"))
    out = tmp_path / "out"
    assert run(*command, "--out", str(out), *flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_default_lambda_and_mu_given_explicitly_are_accepted(tmp_path):
    out = tmp_path / "o"
    assert run("orbit", "--start", "universal", "--steps", "3", "--out", str(out),
               "--lam", "2/6", "--mu", "3.0") == 0


@pytest.mark.parametrize(
    "flag, value", [("--r", "abc"), ("--lam", "abc"), ("--r", "1/0"), ("--mu", "1/0")]
)
def test_malformed_numeric_flag_is_usage_error(tmp_path, capsys, flag, value):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mu", ["inf", "1e400", "nan"])
def test_horseshoe_rejects_non_finite_mu(tmp_path, capsys, mu):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--mu", mu) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags", [("--r", "0.999999"), ("--tol", "5e-324"), ("--tol", "inf"), ("--tol", "nan")]
)
def test_config_rejects_a_tolerance_no_truncation_depth_reaches(tmp_path, capsys, flags):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "universal", *flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 2\nr = 1/2\nlambda = 1/3\nseed = 4\n# comment\nhorizon = 64\n")
    config = load_config(cfg, {"seed": 9})
    assert config.seed == 9  # flag wins
    assert config.horizon == 64
    assert config.r == 0.5


@pytest.mark.parametrize(
    "line", ["conjugacy_depth = 1", "conjugacy_depth = -4", "conjugacy_samples = -3"]
)
def test_horseshoe_rejects_bad_conjugacy_settings(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "hs"
    assert run("horseshoe", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_orbit_rejects_negative_steps(tmp_path, capsys):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "periodic:1,2", "--steps", "-5") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("start", ["universal:1", "point:0.1,0.2"])
def test_orbit_refuses_steps_past_the_window_cap(tmp_path, capsys, start):
    out = tmp_path / "orb"
    steps = str(MAX_WINDOW + 1)
    assert run("orbit", "--out", str(out), "--start", start, "--steps", steps) == 2
    assert capsys.readouterr().err == f"error: steps must lie in [0, {MAX_WINDOW}]\n"
    assert not out.exists()


def test_run_config_defaults_are_class_attributes():
    assert RunConfig.r == 0.5 and RunConfig.tol == 1e-12
    assert RunConfig() == RunConfig(2, 0.5) == RunConfig(m=2, tol=1e-12)
    assert RunConfig(r=0.25) != RunConfig() and RunConfig(r=0.25).r == 0.25
    assert RunConfig.r == 0.5  # an instance never writes through to the class
    with pytest.raises(TypeError, match="bogus"):
        RunConfig(bogus=1)
    config = RunConfig()
    with pytest.raises(AttributeError):
        config.r = 0.25
    with pytest.raises(AttributeError):
        del config.tol
    assert repr(RunConfig(seed=3)).startswith("RunConfig(m=2, r=0.5, lam=Fraction(1, 3), ")


def test_verification_result_keeps_its_shaped_default():
    assert VerificationResult("x", True, ()).shaped
    result = VerificationResult("x", False, ("bad",), shaped=False)
    assert not result.shaped and result == VerificationResult("x", False, ("bad",), False)
    assert repr(result) == "VerificationResult(kind='x', ok=False, failures=('bad',), shaped=False)"


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    with pytest.raises(ConfigError):
        load_config(cfg, {})


def test_horseshoe_rectangle_count_and_svg(tmp_path):
    out = tmp_path / "hs"
    assert (
        run(
            "horseshoe",
            "--out",
            str(out),
            "--k",
            "3",
            "--n",
            "3",
            "--format",
            "json,csv,svg",
            "--seed",
            "2",
        )
        == 0
    )
    rows = (out / "rectangles.csv").read_text().splitlines()
    assert rows[0] == "word,x_lo,x_hi,y_lo,y_hi"
    assert len(rows) - 1 == 2 ** 7  # 128 rectangles
    svg = (out / "horseshoe.svg").read_text()
    assert svg.count("<rect") == 128
    assert svg.startswith("<?xml")
    report = json.loads((out / "hyperbolic_report.json").read_text())
    assert report["data"]["passed"]


REPORTS = {"hyperbolic_report.json", "conjugacy_report.json"}


@pytest.mark.parametrize(
    "formats, expected",
    [
        (None, REPORTS | {"rectangles.csv"}),
        ("json", REPORTS),
        ("csv", REPORTS | {"rectangles.csv"}),
        ("svg", REPORTS | {"horseshoe.svg"}),
        ("json,csv", REPORTS | {"rectangles.csv"}),
        ("json,svg", REPORTS | {"horseshoe.svg"}),
        ("csv,svg", REPORTS | {"rectangles.csv", "horseshoe.svg"}),
        ("json,csv,svg", REPORTS | {"rectangles.csv", "horseshoe.svg"}),
    ],
)
def test_horseshoe_format_selects_the_files(tmp_path, formats, expected):
    out = tmp_path / "hs"
    argv = ["horseshoe", "--out", str(out), "--k", "2", "--n", "2"]
    if formats is not None:
        argv += ["--format", formats]
    assert run(*argv) == 0
    assert {path.name for path in out.iterdir()} == expected


def test_horseshoe_cap_exceeded(tmp_path):
    assert run("horseshoe", "--out", str(tmp_path / "x"), "--k", "15", "--n", "15") == 2


def _expected_rectangle_files(hp, k, n):
    """rectangles.csv and horseshoe.svg text rebuilt one rectangle at a time,
    with the row and <rect> formatting of the first release.  Each rectangle
    is the exact image of the unit square under the branches its word names
    (a float parameter as the rational it holds), not the library's digit
    sums: x under x -> lam x + (a - 1)(1 - lam) for a_0, a_-1, .., a_-k, y
    under the inverse branches y -> (y + (a - 1)(mu - 1)) / mu for a_1..a_n."""
    lam, mu = Fraction(hp.lam), Fraction(hp.mu)
    rows = ["word,x_lo,x_hi,y_lo,y_hi"]
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">',
    ]
    colors = {1: "#3465a4", 2: "#cc0000"}
    for word in product((1, 2), repeat=k + 1 + n):
        x_lo, x_hi = _pull_back(word[k::-1], 1 - lam, lam)
        y_lo, y_hi = _pull_back(word[k + 1 :], (mu - 1) / mu, 1 / mu)
        chars = [str(s) for s in word]
        text = "".join(chars[: k + 1]) + "." + "".join(chars[k + 1 :])
        bounds = (x_lo, x_hi, y_lo, y_hi)
        rows.append(",".join([text] + [repr(float(v)) for v in bounds]))
        x = float(x_lo) * 1000
        y = (1 - float(y_hi)) * 1000
        w = (float(x_hi) - float(x_lo)) * 1000
        h = (float(y_hi) - float(y_lo)) * 1000
        svg.append(
            f'<rect x="{x:.6f}" y="{y:.6f}" width="{w:.6f}" height="{h:.6f}" '
            f'fill="{colors[word[k + 1]]}" fill-opacity="0.8"/>'
        )
    svg.append("</svg>")
    return "\n".join(rows) + "\n", "\n".join(svg) + "\n"


@pytest.mark.parametrize(
    "params,hp",
    [((), HorseshoeParams()),
     (("--lam", "21840/65521", "--mu", "65521/21841"),
      HorseshoeParams(Fraction(21840, 65521), Fraction(65521, 21841))),
     (("--lam", "0.3", "--mu", "3.5"), HorseshoeParams(0.3, 3.5)),
     (("--lam", repr((2 ** 52 + 1) / 2 ** 63), "--mu", repr(2.0 ** 64 - 2.0 ** 11)),
      HorseshoeParams((2 ** 52 + 1) / 2 ** 63, 2.0 ** 64 - 2.0 ** 11))],
    ids=["exact", "16-bit", "float", "64-bit-float"],
)
@pytest.mark.parametrize("k,n", [(0, 1), (0, 6), (5, 1), (3, 4)])
def test_horseshoe_files_match_per_rectangle_rebuild(tmp_path, params, hp, k, n):
    # one past or one future digit, a single past interval, and the first
    # release's shape, at each parameter kind the pinned runs and caps use
    out = tmp_path / "hs"
    argv = ["horseshoe", "--out", str(out), "--k", str(k), "--n", str(n), "--format", "json,csv,svg"]
    assert run(*argv, *params) == 0
    csv_text, svg_text = _expected_rectangle_files(hp, k, n)
    assert (out / "rectangles.csv").read_bytes() == csv_text.encode()
    assert (out / "horseshoe.svg").read_bytes() == svg_text.encode()


# sha256 of every file these runs write.  The exact and 16-bit pins were
# taken before exact parameters were summed over a common denominator.  The
# float pin was taken when floats joined the exact path: its files hold the
# correctly rounded values of the rationals 0.3 and 3.5 hold, which the
# pull-back oracle accepts row for row (horseshoe.svg kept its bytes).  The
# exact hyperbolic report and both 16-bit reports were pinned again when
# every square root became the correctly rounded one: a diagonal of each
# and the 16-bit conjugacy bounds moved by one ulp
HORSESHOE_PINS = {
    ("--k", "6", "--n", "6", "--lam", "1/3", "--mu", "3", "--seed", "5"): {
        "conjugacy_report.json": "9dd9f715bf4284dad4e906a7765c1b7dc54be6c5bfa5821314c40b23b29b368f",
        "horseshoe.svg": "c2466ad860e4be8afca0d0758d6f58149f6b75769dc8f63705da0a1b7a017079",
        "hyperbolic_report.json": "160ce50398bd3a1f601151f0f3534e4dd9657c4b08bf2a5381db88617c315f92",
        "rectangles.csv": "1f02524dd252e70abd651faf4e021b03c3f0eb6a97d48bbf60bb0002bb2ef39b",
    },
    ("--k", "3", "--n", "3", "--lam", "21840/65521", "--mu", "65521/21841"): {
        "conjugacy_report.json": "51dd89c068f62fc0391a823a28cc757e1123467b67e8e05f33ed4a076c151a9d",
        "horseshoe.svg": "895bef3ed54763e820c3d0f967411891d85dc68f5a9f6487b7a9709fdba40ce3",
        "hyperbolic_report.json": "611611b41cebc7fbce8a8531d33b91007ed8db37b18bf6c6042797634a2a62a2",
        "rectangles.csv": "57ffa7b10e55b48cde8d97273922dc86efaaa572567adb1bea2ff239498cfd7d",
    },
    ("--k", "7", "--n", "7", "--lam", "0.3", "--mu", "3.5", "--seed", "5"): {
        "conjugacy_report.json": "9da792f7f278da0fdbc4708b5dc01852df1dff1e9b1f2cfe6dfac492d17dac39",
        "horseshoe.svg": "d31454ba6464f2618a30f623bf3d6a5e565c5f1dc9e2e2c9e936b5623e6bc3d1",
        "hyperbolic_report.json": "2b072003fd78591e6fbe5bce8625997c35c44a76b6bfb1cd4e588faba731af71",
        "rectangles.csv": "3997ab1ce2a6b4ecdfb1c6cd23a8eb00add3ce573e092aa287f10db3425253a1",
    },
}


@pytest.mark.parametrize("flags", list(HORSESHOE_PINS), ids=["exact", "16-bit", "float"])
def test_horseshoe_files_match_their_pinned_bytes(tmp_path, flags):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--format", "json,csv,svg", *flags) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == HORSESHOE_PINS[flags]


# sha256 of every file written by these runs.  A certify run writes dozens of
# files, so its digests live in `sha256sum` format under tests/data/pins.  All
# of these runs are at r = 1/2 or 1/4, and were pinned again when distances
# there became correctly rounded integer quotients.  Each poisson_recurrence.json
# (and the r = 0.3 one) was pinned again when return times became closed-form.
PINS = Path(__file__).parent / "data" / "pins"
CERTIFY_PINS = {
    (): "certify_seed5.sha256",
    ("sets = 20", "targets = 10", "horizon = 500", "recurrence_depth = 14"):
        "certify_suite_seed5.sha256",
}
ORBIT_PINS = {
    ("universal:7", "--steps", "1000"):
        "be579dc0d29a47fff95fdfd8f3f99616861ba826a5683f5cdc30e46601440f49",
    ("window:2,1,2@-3:1", "--steps", "300"):
        "5918b1218f62f27e5f4238b1ff3a1921d6f7bc08248a2c2a63514e58eb50df70",
    ("periodic:1,2,2@1", "--steps", "300"):
        "41fde4dc7c7115b4fae18b3459f5f9abaf9853bd79a7df29bd7b904bda37eb32",
    ("universal:3", "--r", "0.25", "--steps", "600"):
        "cc0d48e784b68749e58d55e060a25d7f2b9d516ca87f7df9e602e0cb2d9700e9",
    ("universal:1", "--m", "300", "--steps", "200"):
        "7e0187f5d6bf4e5b71e83ae0b1adaf32d3321c94b097d9eaf586fad8ea42e6e3",
    # rows past the clip depth L(1/2) = 1077, where the sweep's deep numeral slides
    ("universal:7", "--steps", "4000"):
        "09ab89fe91f504235c967a1cdbfa15f3bcf87d3dacc8c1ee2361b5c49e6eba32",
}


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def _pinned(name):
    """The digests of a `sha256sum` file under tests/data/pins, by file name."""
    return {f: digest for digest, f in map(str.split, (PINS / name).read_text().splitlines())}


@pytest.mark.parametrize("lines", list(CERTIFY_PINS), ids=["defaults", "suite"])
def test_certify_files_match_their_pinned_bytes(tmp_path, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in lines))
    out = tmp_path / "c"
    assert run("certify", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
    assert _digests(out) == _pinned(CERTIFY_PINS[lines])


@pytest.mark.parametrize(  # an id names its steps when they pass the clip depth
    "flags", list(ORBIT_PINS),
    ids=lambda flags: flags[0] if int(flags[-1]) <= 1077 else f"{flags[0]}-{flags[-1]}")
def test_orbit_files_match_their_pinned_bytes(tmp_path, flags):
    out = tmp_path / "o"
    assert run("orbit", "--out", str(out), "--start", *flags) == 0
    assert _digests(out) == {"orbit.csv": ORBIT_PINS[flags]}


def test_files_at_a_weight_base_off_the_powers_of_two_keep_their_bytes(tmp_path):
    # r = 0.3 runs the float kernel, whose sums were pinned before distances
    # at r = 2**-q became one correctly rounded integer quotient
    assert run("orbit", "--out", str(tmp_path / "o"), "--start", "universal:7",
               "--steps", "1000", "--r", "0.3") == 0
    assert _digests(tmp_path / "o") == {
        "orbit.csv": "ecc271db6a6be78097040fdcb770f41cc28b9af8a489b20720c792cc45bda203"}
    out = tmp_path / "c"
    assert run("certify", "--seed", "5", "--r", "0.3", "--out", str(out)) == 0
    assert _digests(out) == _pinned("certify_seed5_r03.sha256")


@pytest.mark.parametrize(
    "lam, mu",
    [("21840/65521", "65521/21841"), ("0.3", "3.5"),
     (repr((2 ** 52 + 1) / 2 ** 63), repr(2.0 ** 64 - 2.0 ** 11))],
    ids=["16-bit", "float", "64-bit-float"],
)
def test_conjugacy_report_at_the_caps_round_trips(tmp_path, lam, mu):
    # the largest depth and sample count, at 16 bits in every exact term, at
    # the float run that float rounding refuted (its bound underflowed to
    # 0.0), and at the slowest floats accepted: 64 bits in both ratios
    cfg = tmp_path / "caps.cfg"
    cfg.write_text(f"lambda = {lam}\nmu = {mu}\n"
                   f"conjugacy_depth = {MAX_CONJUGACY_DEPTH}\n"
                   f"conjugacy_samples = {MAX_CONJUGACY_SAMPLES}\n")
    out = tmp_path / "hs"
    argv = ["horseshoe", "--config", str(cfg), "--out", str(out), "--k", "1", "--n", "1"]
    assert run(*argv, "--format", "json") == 0
    payload = json.loads((out / "conjugacy_report.json").read_text())
    assert (payload["data"]["depth"], len(payload["data"]["rows"])) == (512, 50)
    assert verify_certificate(payload).ok


def test_float_mu_of_a_million_passes_and_verifies(tmp_path):
    # float rounding made the defect 1.0 against a bound of 4.5e-11 here
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--lam", "0.3", "--mu", "1e6") == 0
    for name in ("hyperbolic_report.json", "conjugacy_report.json"):
        assert run("--verify", str(out / name)) == 0


def test_float_lambda_of_twenty_bits_is_accepted(tmp_path):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), "--lam", repr(2.0 ** -20), "--format", "json") == 0
    for name in ("hyperbolic_report.json", "conjugacy_report.json"):
        assert run("--verify", str(out / name)) == 0


@pytest.mark.parametrize(
    "flags",
    [("--lam", "1e-5"), ("--mu", "1e20"), ("--lam", "5e-324", "--mu", "1.7976931348623157e308")],
    ids=["lam-1e-5", "mu-1e20", "extremes"],
)
def test_horseshoe_refuses_floats_past_64_bits(tmp_path, capsys, flags):
    out = tmp_path / "hs"
    assert run("horseshoe", "--out", str(out), *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 64 bits" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("lambda", "1e-05"), ("mu", "1e+20")])
def test_verify_reports_floats_past_64_bits_as_malformed(
    fresh_outputs, tmp_path, capsys, key, value
):
    for name in ("hyperbolic_report.json", "conjugacy_report.json"):
        path = tmp_path / name
        path.write_text((fresh_outputs / "h" / name).read_text())
        _tamper(path, _set(key, value))
        capsys.readouterr()
        assert run("--verify", str(path)) == 1
        assert "malformed certificate: float" in capsys.readouterr().out


def test_orbit_periodic_returns_to_start(tmp_path):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "periodic:1,2,2", "--steps", "3") == 0
    rows = (out / "orbit.csv").read_text().splitlines()
    assert rows[1] == "0,0.0"
    assert rows[-1] == "3,0.0"  # steps == period


def test_orbit_horseshoe_fixed_point(tmp_path):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "point:0,0", "--steps", "10") == 0
    rows = (out / "orbit.csv").read_text().splitlines()
    assert len(rows) == 12
    assert all(row == f"{n},0.0,0.0,1" for n, row in enumerate(rows[1:]))


@pytest.mark.parametrize("steps", [1 << 14, 1 << 16])
def test_planar_orbit_writes_its_rows_in_fixed_memory(tmp_path, steps):
    # a list of the 2**16 + 2 lines would hold 6.5 MiB; the exact start's
    # rows keep one byte of branch history each
    for start in ("point:0,0", "point:1/2,1/4"):
        argv = ["orbit", "--out", str(tmp_path / "orb"), "--start", start, "--steps", str(steps)]
        assert main(argv) == 0  # warm: the horseshoe layer is loaded
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 19, start
        with open(tmp_path / "orb" / "orbit.csv", "rb") as fh:
            assert sum(1 for _ in fh) == steps + 2


# all-1, all-2, period 2 (at lambda = 1/3, mu = 3), escaping, and mixed
PLANAR_STARTS = ["1/2,0", "1,1", "1/2,1/4", "0,1/6", "1/7,3/4"]


@pytest.mark.parametrize("lam, mu", ROOT_PARAMS, ids=ROOT_IDS)
@pytest.mark.parametrize("start", PLANAR_STARTS)
def test_exact_planar_orbits_match_the_fraction_oracle(tmp_path, start, lam, mu):
    out = tmp_path / "orb"
    status = run("orbit", "--out", str(out), "--start", f"point:{start}", "--steps", "3000",
                 "--lam", str(lam), "--mu", str(mu))
    want = planar_orbit_csv(*map(Fraction, start.split(",")), lam, mu, 3000)
    assert (out / "orbit.csv").read_text() == want
    assert status == (1 if want.endswith(",escape\n") else 0)


def test_long_exact_planar_orbit_matches_the_fraction_oracle(tmp_path):
    # x's denominator reaches 3**20000 here, about 31,700 bits
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "point:1/2,1/4", "--steps", "20000") == 0
    want = planar_orbit_csv(Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), 3, 20000)
    assert (out / "orbit.csv").read_text() == want


def test_float_start_escapes_where_its_exact_value_does(tmp_path):
    # the float 0.1 lies just above 1/10: its 38th iterate is in the gap,
    # while 1/10 itself never escapes; float steps, each rounded, reach the
    # gap at row 33
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "point:0,0.1", "--steps", "100") == 1
    rows = (out / "orbit.csv").read_text().splitlines()
    assert len(rows) == 40 and rows[-1].startswith("38,") and rows[-1].endswith(",escape")
    assert (out / "orbit.csv").read_text() == planar_orbit_csv(0, 0.1, Fraction(1, 3), 3, 100)


def test_negative_zero_start_is_the_origin(tmp_path):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "point:-0.0,0", "--steps", "5") == 0
    rows = (out / "orbit.csv").read_text().splitlines()
    assert rows[1:] == [f"{n},0.0,0.0,1" for n in range(6)]


def test_orbit_escape_marks_row_and_fails(tmp_path):
    out = tmp_path / "orb"
    assert run("orbit", "--out", str(out), "--start", "point:0.5,0.5", "--steps", "5") == 1
    rows = (out / "orbit.csv").read_text().splitlines()
    assert rows[-1].endswith(",escape")


def test_orbit_bad_descriptor(tmp_path):
    assert run("orbit", "--out", str(tmp_path / "x"), "--start", "prime:7") == 2


def test_orbit_universal_dips_match_recurrence_certificate(tmp_path):
    from shiftchaos import (
        Alphabet,
        MetricParams,
        UnstableSetId,
        periodic,
        poisson_recurrence_witness,
    )

    orb_out = tmp_path / "orb"
    assert run("orbit", "--out", str(orb_out), "--start", "universal", "--steps", "2000") == 0
    rows = (orb_out / "orbit.csv").read_text().splitlines()[1:]
    distances = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    # the `universal` orbit start has an all-1 past: certify the same set
    u_set = UnstableSetId(Alphabet(2), periodic((1,), 0))
    cert = poisson_recurrence_witness(u_set, 4, MetricParams(0.5))
    assert cert["data"]["times"] == [43, 284, 1605, 8368]
    for n, thr in zip(cert["data"]["times"][:3], cert["data"]["thresholds"]):
        assert distances[n] < thr  # the first three dips land inside the orbit horizon


def orbit_oracle(m, seed, steps, r=0.5, depth=60):
    """d(shift^n u, u) for n = 0..steps by direct summation over the
    word-by-word enumeration (the past of u is all 1s, so positions below
    -n never differ); the dropped tail beyond `depth` weighs < 2r**depth."""
    prefix = _ref_enumeration(m, seed, steps + depth + 1)

    def u(i):
        return 1 if i < 0 else prefix[i]

    values = []
    for n in range(steps + 1):
        total = 0.0
        for j in range(-n, depth + 1):
            if u(j + n) != u(j):
                total += r ** j if j >= 1 else r ** (1 - j)
        values.append(total)
    return values


@pytest.mark.parametrize(
    "seed, m, steps", [(0, 2, 300), (2 ** 63, 2, 300), (5, 3, 120), (1, 4, 60)]
)
def test_orbit_universal_matches_direct_sum(tmp_path, seed, m, steps):
    out = tmp_path / "orb"
    argv = ["orbit", "--out", str(out), "--start", f"universal:{seed}", "--m", str(m)]
    assert run(*argv, "--steps", str(steps)) == 0
    rows = (out / "orbit.csv").read_text().splitlines()[1:]
    expected = orbit_oracle(m, seed, steps)
    assert len(rows) == steps + 1
    for n, row in enumerate(rows):
        index, value = row.split(",")
        assert int(index) == n
        assert abs(float(value) - expected[n]) <= 2e-12


@pytest.mark.parametrize(
    "start, m",
    [
        ("periodic:7,9", 2),
        ("periodic:1,3", 2),
        ("periodic:1,4", 3),
        ("window:1,3@0", 2),
        ("window:1,2@0:3", 2),
    ],
)
def test_orbit_rejects_symbols_above_m(tmp_path, capsys, start, m):
    out = tmp_path / "orb"
    argv = ["orbit", "--out", str(out), "--start", start, "--m", str(m)]
    assert run(*argv, "--steps", "3") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_orbit_accepts_symbols_up_to_m(tmp_path):
    out = tmp_path / "orb"
    argv = ["orbit", "--out", str(out), "--start", "periodic:1,3", "--m", "3"]
    assert run(*argv, "--steps", "2") == 0
    assert (out / "orbit.csv").read_text().splitlines()[-1] == "2,0.0"


def test_parse_descriptor_variants():
    from shiftchaos import PlanePoint, UniversalSeq, periodic, window_padded

    assert parse_descriptor("periodic:1,2@1") == periodic((1, 2), 1)
    assert parse_descriptor("window:2,1@0:2") == window_padded((2, 1), 0, 2)
    assert parse_descriptor("universal:3") == UniversalSeq(2, 3)
    assert parse_descriptor("universal", m=4) == UniversalSeq(4, 0)
    with pytest.raises(ConfigError):
        parse_descriptor("periodic:1,2", m=1)
    assert isinstance(parse_descriptor("point:1/4,0.5"), PlanePoint)
    with pytest.raises(ConfigError):
        parse_descriptor("point:2,0")


def test_no_subcommand_is_usage_error():
    assert run() == 2


# -- one mutated leaf ---------------------------------------------------------

REPORT_FILES = (
    "c/diameter_condition.json",
    "c/separation_n2.json",
    "h/hyperbolic_report.json",
    "h/conjugacy_report.json",
)
CERTIFICATE_FILES = (
    "c/transitivity_s0_t0.json",
    "c/periodic_density_s0_d0.json",
    "c/sensitivity_s0_e0.json",
    "c/poisson_recurrence.json",
    "c/li_yorke.json",
    "c/stable_convergence.json",
    "c/unstable_convergence.json",
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-3, 30), st.floats(), st.text(max_size=6)
)


def _leaves(node, path=()):
    """Paths to the scalars and empty containers of a decoded JSON value."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_survives_one_mutated_leaf(fresh_outputs, data):
    name = data.draw(st.sampled_from(REPORT_FILES + CERTIFICATE_FILES), label="file")
    payload = json.loads((fresh_outputs / name).read_text())
    leaf = data.draw(st.sampled_from(list(_leaves(payload["data"]))), label="leaf")
    *parents, key = leaf
    node = payload["data"]
    for step in parents:
        node = node[step]
    value = data.draw(JSON_LEAVES, label="value")
    assume(type(value) is not type(node[key]) or value != node[key])
    node[key] = value
    path = fresh_outputs / "mutated.json"
    path.write_text(json.dumps(payload))
    code = verify_file(path, quiet=True)
    if name not in REPORT_FILES:
        assert code in (0, 1)
    elif leaf == ("m",):
        # the diameter and separation tables are the same for every alphabet
        # size, so another valid m recomputes to the mutated report
        assert code in (0, 1)
    else:
        assert code == 1
