"""Child-process entry points of the benchmark.

    child.py job --spans PATH --job-id N -- CLI-ARGS...
        run one shiftchaos CLI job with the span recorder installed
    child.py audit --dir OUT [--orbit START] [--spans PATH --job-id N]
        re-check every output in OUT with the package: each JSON file with
        cli.verify_file and, given --orbit, every orbit.csv row by
        re-deriving it with metric.distance from the start descriptor

Audits print one JSON line: {"seconds": ..., "passes": ..., "checked": ...,
"failures": [...]}.  An untraced audit repeats its pass until MIN_AUDIT_S
has passed and reports the mean pass time: a pass of a few milliseconds
is otherwise at the mercy of whatever else the machine runs at that
moment.  Every pass starts with the package's enumeration cache cleared,
as in a fresh process; "seconds" never includes interpreter start-up.  A
traced audit makes one pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import tracer

MIN_AUDIT_S = 0.5


def _timed(check, passes_until: float) -> dict:
    from shiftchaos import sequences

    times: list[float] = []
    failures = None
    while not times or sum(times) < passes_until:
        sequences.enumeration_prefix.cache_clear()
        start = time.perf_counter()
        result = check()
        times.append(time.perf_counter() - start)
        failures = result if failures is None else failures
    return {"seconds": sum(times) / len(times), "passes": len(times), "failures": failures}


def _job(args) -> int:
    import shiftchaos.cli

    rec = tracer.install(args.job_id)
    try:
        code = shiftchaos.cli.main(args.cli)
    finally:
        rec.dump(args.spans)
    return code


def _rederive_orbit(path: Path, start: str) -> list[str]:
    """Recompute every row of an orbit table d(shift^n u, u) with the
    package and compare within the error bound it certifies."""
    from shiftchaos import cli, metric

    u = cli.parse_descriptor(start)
    p, tol = metric.MetricParams(cli.RunConfig.r), cli.RunConfig.tol
    lines = path.read_text().splitlines()[1:]
    for n, line in enumerate(lines):
        d = metric.distance(u.shift(n), u, p, tol)
        if abs(float(line.partition(",")[2]) - d.value) > 2 * tol:
            return [f"{path.name} row {n} does not re-derive"]
    return []


def _audit(args) -> int:
    import shiftchaos.cli

    rec = tracer.install(args.job_id) if args.spans else None
    verify_file = shiftchaos.cli.verify_file
    files = sorted(args.dir.glob("*.json"))

    def check() -> list[str]:
        failures = [f"{path.name} does not re-verify" for path in files
                    if verify_file(path, quiet=True) != 0]
        if args.orbit:
            failures += _rederive_orbit(args.dir / "orbit.csv", args.orbit)
        return failures

    result = _timed(check, 0.0 if rec else MIN_AUDIT_S)
    if rec is not None:
        rec.dump(args.spans)
    print(json.dumps({**result, "checked": len(files) + bool(args.orbit)}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    job = sub.add_parser("job")
    job.add_argument("--spans", type=Path, required=True)
    job.add_argument("--job-id", type=int, required=True)
    job.add_argument("cli", nargs=argparse.REMAINDER)
    audit = sub.add_parser("audit")
    audit.add_argument("--dir", type=Path, required=True)
    audit.add_argument("--orbit", default=None, metavar="START")
    audit.add_argument("--spans", type=Path, default=None)
    audit.add_argument("--job-id", type=int, default=0)
    args = parser.parse_args(argv)
    if args.mode == "job":
        args.cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
        return _job(args)
    return _audit(args)


if __name__ == "__main__":
    sys.exit(main())
