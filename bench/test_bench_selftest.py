"""Self-tests of the benchmark's oracles, tracing and failure accounting.

    python3 -m pytest bench -q

At small sizes (k = 2, n = 2 rectangles, 50 orbit steps, a one-set
certification suite) every oracle must agree with the package, and a
deliberately corrupted output must count as a failed job.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from shiftchaos import cli  # noqa: E402
from shiftchaos.sequences import enumeration_prefix  # noqa: E402

SMALL = {
    "certify": run.CertifySuite(sets=1, targets=1, horizon=20, recurrence_depth=3),
    "exact": run.Horseshoe(k=2, n=2),
    "float": run.Horseshoe(k=2, n=2, lam="0.3", mu="3.5"),
    "orbit": run.OrbitUniversal(steps=50),
}
SEED = 7


@pytest.fixture
def spawner():
    s = run.Spawner(time.perf_counter() + 120)
    yield s
    s.close()


def _emit(workload, tmp_path: Path) -> Path:
    """Run the workload's CLI job in-process; returns the job directory."""
    job_dir = tmp_path / "job"
    job_dir.mkdir()
    workload.prepare(tmp_path)
    args = workload.cli_args(tmp_path, SEED)
    args[args.index("--out") + 1] = str(job_dir / "out")
    assert cli.main(args) == 0
    return job_dir


def _rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_rectangle_oracle_agrees_on_every_row(kind, tmp_path):
    w = SMALL[kind]
    out = _emit(w, tmp_path) / "out"
    lines = (out / "rectangles.csv").read_text().splitlines()[1:]
    assert len(lines) == 2 ** (w.k + 1 + w.n)
    for i, line in enumerate(lines):
        word, bounds = oracles.rectangle_row(i, w.k, w.n, *w.params())
        fields = line.split(",")
        assert fields[0] == word
        assert all(oracles.bound_matches(f, b, w.exact) for f, b in zip(fields[1:], bounds))
    assert w.check(out, SEED) == []


def test_orbit_oracle_agrees_with_the_cli(tmp_path):
    w = SMALL["orbit"]
    out = _emit(w, tmp_path) / "out"
    prefix = enumeration_prefix(2, SEED, w.steps + 65)
    assert oracles.check_orbit(out, prefix, w.steps) == []


def test_certificate_names_match_the_suite(tmp_path):
    w = SMALL["certify"]
    out = _emit(w, tmp_path) / "out"
    assert len(oracles.expected_certificate_names(w.sets, w.targets)) == 4 + 6 + 4
    assert w.check(out, SEED) == []
    assert len(oracles.expected_certificate_names(20, 10)) == 308


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_clean_output_passes_the_audit(kind, tmp_path, spawner):
    w = SMALL[kind]
    job_dir = _emit(w, tmp_path)
    (seconds, scaled_s), failures, files = run.audit_job(spawner, w, job_dir, SEED, None)
    assert failures == []
    assert seconds > 0 and scaled_s > 0 and files
    _, failures, _ = run.audit_job(spawner, w, job_dir, SEED, files)
    assert failures == []


def _nudge(path: Path, line: int, column: int, factor: float) -> None:
    """Scale one CSV number by `factor`."""
    lines = path.read_text().splitlines()
    fields = lines[line].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _bump_certificate(out: Path) -> None:
    path = out / "li_yorke.json"
    data = json.loads(path.read_text())
    data["data"]["max_value"] += 0.25
    path.write_text(json.dumps(data))


CORRUPTIONS = {
    # (workload, corruption of its output directory)
    "rectangle-exact": ("exact", lambda out: _nudge(out / "rectangles.csv", 5, 2, 1 + 1e-15)),
    "rectangle-float": ("float", lambda out: _nudge(out / "rectangles.csv", 5, 4, 1 + 1e-9)),
    "svg": ("exact", lambda out: _rewrite(out / "horseshoe.svg", "<rect ", "<!-- ")),
    "orbit-row": ("orbit", lambda out: _nudge(out / "orbit.csv", 8, 1, 1 + 1e-9)),
    "certificate": ("certify", _bump_certificate),
    "missing-file": ("certify", lambda out: (out / "sensitivity_s0_e1.json").unlink()),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_a_failure(case, tmp_path, spawner):
    kind, corrupt = CORRUPTIONS[case]
    w = SMALL[kind]
    job_dir = _emit(w, tmp_path)
    corrupt(job_dir / "out")
    _, failures, _ = run.audit_job(spawner, w, job_dir, SEED, None)
    assert failures, f"corruption {case!r} went unnoticed"


def test_changed_bytes_count_as_a_failure(tmp_path, spawner):
    w = SMALL["exact"]
    job_dir = _emit(w, tmp_path)
    _, _, reference = run.audit_job(spawner, w, job_dir, SEED, None)
    path = job_dir / "out" / "conjugacy_report.json"
    path.write_text(path.read_text() + "\n")
    _, failures, _ = run.audit_job(spawner, w, job_dir, SEED, reference)
    assert failures == ["outputs differ from the first job of this seed"]


def test_failing_cli_job_is_counted(tmp_path, spawner):
    bad = run.Horseshoe(k=2, n=0)  # the CLI rejects n < 1 with exit code 2
    job, _, _ = run.run_job(spawner, bad, tmp_path, SEED, 0, False, None)
    assert job.failures and job.failures[0].startswith("exit code 2")
    assert job.items == 0


def test_traced_job_reports_every_layer(tmp_path, spawner):
    w = SMALL["certify"]
    w.prepare(tmp_path)
    plain, files, _ = run.run_job(spawner, w, tmp_path, SEED, 0, False, None)
    traced, _, spans = run.run_job(spawner, w, tmp_path, SEED, 1, True, files)
    assert plain.failures == [] and traced.failures == []
    assert set(traced.layers) == set(run.PER_LAYER)
    assert traced.layers["certify.li_yorke_pair.calls"] == 1
    assert traced.layers["metric.distance.calls"] > 0
    assert traced.layers["cli.files_written"] == 14
    assert traced.layers["cli.verify_file.calls"] == 28  # in the job and in the audit
    assert len(spans) == 2  # the job's process and the audit's
    merged: list = []
    for process_spans in spans:
        run.append_spans(merged, process_spans)
    names = {span[0] for span in merged}
    assert "cli.cmd_certify" in names and "metric.distance" in names
    assert "sequences.symbol_at" not in names  # hot leaves keep counts only
    assert all(parent is None or 0 <= parent < i
               for i, (_, _, _, parent, _) in enumerate(merged))
    roots = [span for span in merged if span[3] is None]
    assert {span[0] for span in roots} == {"cli.main", "cli.verify_file"}


def test_tracer_takes_its_own_cost_out_of_the_caller():
    """A caller of a hot leaf keeps about its untraced self time: the
    wrapper's bookkeeping is not charged to it."""
    import tracer

    def leaf(x):
        return x

    def caller(fn):
        for i in range(20000):
            fn(i)

    def fastest(fn) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    untraced = fastest(lambda: caller(leaf))
    rec = tracer.Recorder(0)
    rec.calibrate()
    traced_leaf = rec.wrap("sequences.symbol_at", leaf)
    traced_caller = rec.wrap("cli.caller", caller)
    wall = fastest(lambda: traced_caller(traced_leaf))
    calls, total, self_s = rec.stats["cli.caller"]
    assert calls == 5 and wall > 3 * untraced  # tracing a hot leaf is costly
    assert self_s / calls < 2 * untraced       # but the caller is not charged for it
    assert total / calls < wall / 2


def test_scaling_reads_the_reference_work_at_the_reference_time(tmp_path, spawner):
    """A child that runs the launcher's reference work reports, scaled,
    about REFERENCE_S: scaling divides the machine's speed out."""
    probe = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import spawner; "
             "spawner.reference(); sys.stdout.write(repr(spawner.reference()))")
    result = spawner.run([sys.executable, "-c", probe], tmp_path, "probe")
    assert result["returncode"] == 0 and result["reference_s"] > 0
    inside = float((tmp_path / "probe.out").read_text())
    assert 0.5 < run.scaled(inside, result) / run.REFERENCE_S < 2


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "orbit-universal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
