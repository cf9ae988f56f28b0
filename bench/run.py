"""End-to-end and per-layer benchmark of the shiftchaos command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs CLI jobs in a closed loop, one at a time: each job is a
fresh ``python -m shiftchaos.cli`` child process, started only after the
previous job finished and was checked.  After each job the benchmark

* re-checks everything the job emitted in a second child process, timed
  inside that process: the auditor's ``--verify`` path (``cli.verify_file``)
  for JSON files, and for orbit tables, which carry no witness to verify,
  a re-derivation of every row with the package;
* checks the outputs against its own oracles (``oracles.py``), which never
  call the function that produced them;
* compares the output bytes with the first job of the same input.

Every job gets its own input derived from ``--seed`` (``input_seed``),
except that the first two share one.  Before every job the benchmark also
times one fresh interpreter importing the package (``setup_s``).

The shared machine changes speed by itself: the same work takes up to 1.7
times as long from one second to the next, and for minutes at a time.  Every process runs on one CPU, and
the launcher samples the speed just before and after every child it
starts (``spawner.reference``); each time the child took is reported at
the speed where that reference takes ``REFERENCE_S`` (``scaled``).  The
raw times are kept in the run's record.

A job fails if it exits non-zero, an emitted file fails to re-verify, an
oracle check fails or its bytes differ.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics; with ``--trace 1`` every input
runs twice, untraced and then traced (``tracer.py``), and the traced jobs'
per-layer metrics are reported instead.  Every run also writes
``.bench_runs/BENCH_<workload>_seed<N>_trace<T>.json`` with the run's
environment, sizes, samples and metrics; traced runs add the spans file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

RUN_LIMIT_S = 170       # a run must end within 180 s; no child outlives this
REFERENCE_S = 0.030     # about the median time of spawner.reference() on the baseline machine
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)  # highest first


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits non-zero without a result."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifySuite:
    """`shiftchaos certify` on a seeded suite; items are verified files."""

    sets: int = 20
    targets: int = 10
    horizon: int = 500
    recurrence_depth: int = 14

    def prepare(self, work: Path) -> None:
        (work / "certify.cfg").write_text(
            f"m = 2\nsets = {self.sets}\ntargets = {self.targets}\n"
            f"horizon = {self.horizon}\nrecurrence_depth = {self.recurrence_depth}\n"
        )

    def cli_args(self, work: Path, seed: int) -> list[str]:
        return ["certify", "--config", str(work / "certify.cfg"), "--seed", str(seed), "--out", "out"]

    def audit_args(self, seed: int) -> list[str]:
        return []

    def check(self, out: Path, seed: int) -> list[str]:
        return oracles.check_certify(out, self.sets, self.targets)

    def items(self, out: Path) -> int:
        return sum(1 for _ in out.glob("*.json"))


@dataclass(frozen=True)
class Horseshoe:
    """`shiftchaos horseshoe` over window [-k, n]; items are rectangles."""

    k: int = 6
    n: int = 7
    lam: str = "1/3"
    mu: str = "3"

    @property
    def exact(self) -> bool:
        return "." not in self.lam + self.mu

    def prepare(self, work: Path) -> None:
        pass

    def cli_args(self, work: Path, seed: int) -> list[str]:
        return ["horseshoe", "--k", str(self.k), "--n", str(self.n), "--lam", self.lam,
                "--mu", self.mu, "--format", "json,csv,svg", "--seed", str(seed), "--out", "out"]

    def audit_args(self, seed: int) -> list[str]:
        return []

    def params(self) -> tuple:
        """lambda and mu as the CLI parses them: exact rationals or floats."""
        return tuple(Fraction(v) if self.exact else float(v) for v in (self.lam, self.mu))

    def check(self, out: Path, seed: int) -> list[str]:
        return oracles.check_horseshoe(out, self.k, self.n, *self.params(), self.exact, seed)

    def items(self, out: Path) -> int:
        return 2 ** (self.k + 1 + self.n)


@dataclass(frozen=True)
class OrbitUniversal:
    """`shiftchaos orbit` from the seeded universal sequence; items are rows."""

    steps: int = 1000

    def prepare(self, work: Path) -> None:
        pass

    def cli_args(self, work: Path, seed: int) -> list[str]:
        return ["orbit", "--start", f"universal:{seed}", "--steps", str(self.steps), "--out", "out"]

    def audit_args(self, seed: int) -> list[str]:
        # orbit tables carry no witness: the audit re-derives every row
        return ["--orbit", f"universal:{seed}"]

    def check(self, out: Path, seed: int) -> list[str]:
        from shiftchaos.sequences import enumeration_prefix

        prefix = enumeration_prefix(2, seed, self.steps + 65)
        return oracles.check_orbit(out, prefix, self.steps)

    def items(self, out: Path) -> int:
        return self.steps + 1


WORKLOADS = {
    "certify-suite": CertifySuite(),
    "horseshoe-exact": Horseshoe(n=6),
    "horseshoe-float": Horseshoe(k=7, lam="0.3", mu="3.5"),
    "orbit-universal": OrbitUniversal(),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "job_s.p50": "s",
    "items_per_s": "1/s",
    "verify_s.p50": "s",
    "peak_rss_mb": "MB",
}

WITNESSES = (
    "transitivity_witness", "periodic_density_witness", "sensitivity_witness",
    "poisson_recurrence_witness", "li_yorke_pair", "stable_set_convergence",
    "unstable_set_convergence",
)

PER_LAYER = {  # name -> unit
    "horseshoe.level_rectangles.self_s": "s",
    "horseshoe.rectangle_for_word.calls": "count",
    "horseshoe.rectangle_for_word.self_s": "s",
    "horseshoe.rects": "count",
    "horseshoe.verify_hyperbolic_conditions.self_s": "s",
    "horseshoe.conjugacy_check.calls": "count",
    "horseshoe.conjugacy_check.self_s": "s",
    "cli.cmd_horseshoe.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "cli.verify_file.calls": "count",
    "cli.verify_file.self_s": "s",
    "cli.verify_file.failures": "count",
    "metric.distance.calls": "count",
    "metric.distance.self_s": "s",
    "metric.distance.total_s": "s",
    "metric.distance.exact_calls": "count",
    "metric.distance.truncated_calls": "count",
    "metric.distance.max_error": "distance",
    "metric.distance.symbols_compared": "count",
    "metric.set_distance.calls": "count",
    "metric.set_distance.self_s": "s",
    "sequences.window.calls": "count",
    "sequences.window.symbols": "count",
    "sequences.window.self_s": "s",
    "sequences.symbol_at.calls": "count",
    "sequences.symbol_at.self_s": "s",
    "sequences.enumeration_prefix.calls": "count",
    "sequences.enumeration_prefix.cache_hits": "count",
    "sequences.enumeration_prefix.self_s": "s",
    **{f"certify.{w}.{k}": u for w in WITNESSES
       for k, u in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))},
    "certify.verify_certificate.calls": "count",
    "certify.verify_certificate.self_s": "s",
    "certify.verify_certificate.failures": "count",
    "cylinders.calls": "count",
    "cylinders.self_s": "s",
    "sequences.self_s": "s",
    "metric.self_s": "s",
    "certify.self_s": "s",
    "horseshoe.self_s": "s",
    "cli.self_s": "s",
    "trace.job_s": "s",
    "trace.overhead_ratio": "ratio",
}


def input_seed(workload: str, seed: int, index: int) -> int:
    """The program's `index`-th input seed, derived from the benchmark seed.

    The cost of a certification suite depends on the unstable sets it draws
    (recurrence return times alone move its audit time by up to 2x), so a
    run covers as many inputs as it runs jobs for runs to agree.
    """
    return random.Random(f"{workload}/{seed}/{index}").randrange(1 << 32)


# ---------------------------------------------------------------------------
# Spawning
# ---------------------------------------------------------------------------


class Spawner:
    """Client of spawner.py, which starts and reaps every child process."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], cwd: Path, log: str) -> dict:
        timeout = max(1.0, self.deadline - time.perf_counter())
        request = {
            "argv": argv, "cwd": str(cwd), "env": self.env, "timeout": timeout,
            "stdout": str(cwd / f"{log}.out"), "stderr": str(cwd / f"{log}.err"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("process launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def scaled(seconds: float, result: dict) -> float:
    """`seconds`, spent in the child of spawner reply `result`, at the
    machine speed where the launcher's reference work takes REFERENCE_S."""
    return seconds * REFERENCE_S / result["reference_s"]


def check_import(spawner: Spawner, work: Path) -> None:
    """Check that children import the package from this checkout (this also
    fills its bytecode cache before anything is timed)."""
    probe = "import shiftchaos, sys; sys.stdout.write(shiftchaos.__file__)"
    result = spawner.run([sys.executable, "-c", probe], work, "probe")
    where = (work / "probe.out").read_text()
    if result["returncode"] != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"cannot import shiftchaos from {SRC}: {(work / 'probe.err').read_text()}")


def time_import(spawner: Spawner, work: Path) -> tuple[float, float]:
    """Wall time of a fresh interpreter starting and importing the package,
    raw and scaled."""
    result = spawner.run([sys.executable, "-c", "import shiftchaos"], work, "setup")
    if result["returncode"] != 0:
        raise BenchError(f"import shiftchaos failed: {(work / 'setup.err').read_text()}")
    return result["wall_s"], scaled(result["wall_s"], result)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    seed: int
    traced: bool
    wall_s: float = 0.0          # raw, spawn to exit
    wall_scaled_s: float = 0.0   # scaled to REFERENCE_S
    rss_mb: float = 0.0
    verify_s: float = 0.0        # raw, inside the audit process
    verify_scaled_s: float = 0.0
    items: int = 0
    failures: list[str] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


def digest(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def audit_job(spawner: Spawner, workload, job_dir: Path, seed: int,
              reference: dict | None, trace_id: int | None = None,
              ) -> tuple[tuple[float, float], list[str], dict]:
    """Check the outputs in job_dir/out: re-verify them in a child process
    (traced when `trace_id` is given), run the oracles and compare the bytes
    with `reference`.  Returns the audit's time (raw and scaled), the
    failures and the output digests."""
    out = job_dir / "out"
    files = digest(out)
    argv = [sys.executable, str(BENCH / "child.py"), "audit", "--dir", str(out),
            *workload.audit_args(seed)]
    if trace_id is not None:
        argv += ["--spans", str(job_dir / "audit.spans.json"), "--job-id", str(trace_id)]
    result = spawner.run(argv, job_dir, "audit")
    try:
        audit = json.loads((job_dir / "audit.out").read_text().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        audit = None
    if result["returncode"] != 0 or audit is None:
        return (0.0, 0.0), [f"audit crashed: {(job_dir / 'audit.err').read_text()[-300:]}"], files
    failures = list(audit["failures"])
    try:
        failures += workload.check(out, seed)
    except (OSError, ValueError, IndexError) as exc:
        failures.append(f"malformed output: {exc!r}")
    if reference is not None and files != reference:
        failures.append("outputs differ from the first job of this seed")
    return (audit["seconds"], scaled(audit["seconds"], result)), failures, files


def run_job(spawner: Spawner, workload, work: Path, seed: int, job_id: int,
            traced: bool, reference: dict | None) -> tuple[Job, dict, list]:
    """One CLI job and its audit; returns the job, its output digests and,
    when traced, the span lists of its processes.  The job's directory is
    removed afterwards."""
    job_dir = work / f"job{job_id}"
    out = job_dir / "out"
    job_dir.mkdir()
    cli = workload.cli_args(work, seed)
    if traced:
        argv = [sys.executable, str(BENCH / "child.py"), "job", "--spans",
                str(job_dir / "job.spans.json"), "--job-id", str(job_id), "--", *cli]
    else:
        argv = [sys.executable, "-m", "shiftchaos.cli", *cli]
    run = spawner.run(argv, job_dir, "job")
    job = Job(seed, traced, run["wall_s"], scaled(run["wall_s"], run), run["maxrss_kb"] / 1024)
    files: dict = {}
    if run["returncode"] != 0 or not out.is_dir():
        job.failures.append(f"exit code {run['returncode']}: {(job_dir / 'job.err').read_text()[-300:]}")
    else:
        (job.verify_s, job.verify_scaled_s), job.failures, files = audit_job(
            spawner, workload, job_dir, seed, reference, job_id if traced else None)
    if not job.failures:
        job.items = workload.items(out)
    spans = []
    if traced:
        dumps = [json.loads(p.read_text()) for p in sorted(job_dir.glob("*.spans.json"))]
        written = {p.name: p.stat().st_size for p in out.rglob("*") if p.is_file()}
        job.layers = layer_values(dumps, written)
        job.layers["trace.job_s"] = job.wall_s
        spans = [d["spans"] for d in dumps]
    shutil.rmtree(job_dir)
    return job, files, spans


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_values(dumps: list[dict], written: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced job from its recorder dumps and the
    sizes of the files it wrote."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    for dump in dumps:
        for name, row in dump["stats"].items():
            merged = stats.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(row):
                merged[i] += value
        for name, value in dump["counters"].items():
            if name.endswith(".max_error"):
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    counters["cli.files_written"] = len(written)
    counters["cli.bytes_written"] = sum(written.values())
    values = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        rows = [row for name, row in stats.items()
                if name == layer or (layer.count(".") == 0 and name.startswith(layer + "."))]
        column = {"calls": 0, "total_s": 1, "self_s": 2}.get(kind)
        if column is not None and rows:
            values[metric] = sum(row[column] for row in rows)
        else:
            values[metric] = counters.get(metric, 0)
    return values


def append_spans(spans: list, process_spans: list) -> None:
    """Append one process's spans, turning its parent indexes into indexes
    of the run's span list (a span's id is its index there)."""
    base = len(spans)
    spans += [(name, start, end, None if parent is None else parent + base, job_id)
              for name, start, end, parent, job_id in process_spans]


def percentile_tail(samples: list[float]) -> dict | None:
    """The highest listed percentile (nearest rank) with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(len(ordered) * p / 100)
        if len(ordered) - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1], "samples": len(ordered)}
    return None


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shiftchaos").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shiftchaos" / "__init__.py").is_file():
        print(f"error: no shiftchaos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the orbit oracle reads the package's enumeration
    workload = WORKLOADS[args.workload]
    # one CPU for every process of the run: the vCPUs of the shared machine
    # change speed independently, and the reference must see the job's
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    RUNS.mkdir(exist_ok=True)
    work = RUNS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    spawner = Spawner(started + RUN_LIMIT_S)
    jobs: list[Job] = []
    spans: list = []
    setup: list[tuple[float, float]] = []  # raw, scaled
    references: dict[int, dict] = {}
    pairs: list[tuple[Job, Job]] = []
    try:
        check_import(spawner, work)
        workload.prepare(work)
        loop_start = time.perf_counter()
        iterations = 0
        while True:
            # set-up is sampled once per job so that its samples span the run
            setup.append(time_import(spawner, work))
            if args.trace:
                # the same input untraced and traced, back to back
                seed = input_seed(args.workload, args.seed, len(pairs))
            else:
                # the first two jobs share an input, so that every run checks
                # that equal inputs give byte-identical outputs
                seed = input_seed(args.workload, args.seed, max(len(jobs) - 1, 0))
            for traced in (False, True) if args.trace else (False,):
                job, files, job_spans = run_job(
                    spawner, workload, work, seed, len(jobs), traced, references.get(seed))
                jobs.append(job)
                for process_spans in job_spans:
                    append_spans(spans, process_spans)
                if seed not in references and not job.failures:
                    references[seed] = files
            if args.trace:
                pairs.append((jobs[-2], jobs[-1]))
            iterations += 1
            elapsed = time.perf_counter() - loop_start
            # start no iteration that would likely end past the measuring time
            if elapsed * (iterations + 1) / iterations > args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced]
    failed = [j for j in jobs if j.failures]
    walls = [j.wall_scaled_s for j in plain]
    end_to_end = {
        "setup_s": statistics.median(s for _, s in setup),
        "job_s.p50": statistics.median(walls),
        "items_per_s": sum(j.items for j in plain) / sum(walls),
        "verify_s.p50": statistics.median(
            [j.verify_scaled_s for j in plain if not j.failures] or [0.0]),
        "peak_rss_mb": statistics.median([j.rss_mb for j in plain]),
    }
    per_layer = {}
    if traced:
        for name in PER_LAYER:
            per_layer[name] = statistics.median([j.layers.get(name, 0) for j in traced])
        per_layer["trace.overhead_ratio"] = statistics.median(
            [t.wall_scaled_s / p.wall_scaled_s for p, t in pairs])
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in (per_layer if args.trace else end_to_end).items()}

    record = {
        "workload": args.workload,
        "size": asdict(workload),
        "seed": args.seed,
        "input_seeds": [j.seed for j in jobs],
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "src_sha256": source_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "client": "closed loop, 1 client, 1 job in flight",
        "samples": {"setup": len(setup), "jobs": len(plain), "traced_jobs": len(traced)},
        "attempted": len(jobs),
        "failed": len(failed),
        "error_rate": len(failed) / len(jobs),
        "failures": [f for j in failed for f in j.failures][:20],
        "job_s_tail": percentile_tail(walls),
        "reference_s": REFERENCE_S,
        "setup_s_samples": [s for _, s in setup],
        "job_s_samples": walls,
        "verify_s_samples": [j.verify_scaled_s for j in plain],
        "raw_setup_s_samples": [r for r, _ in setup],
        "raw_job_s_samples": [j.wall_s for j in plain],
        "raw_verify_s_samples": [j.verify_s for j in plain],
        "peak_rss_mb_samples": [j.rss_mb for j in plain],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RUNS / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if traced:
        (RUNS / f"spans_{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job_id"], "spans": spans}))

    tail = record["job_s_tail"]
    print(f"workload {args.workload}  seed {args.seed}  size {record['size']}  "
          f"inputs {len(set(record['input_seeds']))}")
    print(f"python {record['python']}  nproc {record['nproc']}  git {record['git_sha'] or 'n/a'}")
    print(f"jobs {len(plain)} untraced, {len(traced)} traced; failed {len(failed)}; "
          f"error_rate {record['error_rate']:.4f}")
    print("job_s tail: " + (f"p{tail['percentile']} = {tail['value']:.6f} s" if tail
                            else f"none ({len(walls)} samples, a tail needs at least 20)"))
    for name, value in end_to_end.items():
        print(f"  {name:14s} {value:.6f} {END_TO_END[name]}")
    print(f"unscaled: setup_s {statistics.median(r for r, _ in setup):.6f} s  "
          f"job_s.p50 {statistics.median(j.wall_s for j in plain):.6f} s")
    for f in record["failures"][:5]:
        print(f"  FAIL {f}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
