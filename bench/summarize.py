"""Summarize benchmark result files across seeds.

    python3 bench/summarize.py [RESULT.json ...] [--write baseline.json]

Reads the ``BENCH_*.json`` files that ``bench/run.py`` writes (by default
every file under ``.bench_runs/``), groups them by workload and trace mode,
and prints for each metric the number of runs, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--write`` stores the
same table with the runs' environment, for later changes to quote as
their before numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for record in records:
        key = f"{record['workload']}/trace{record['trace']}"
        groups.setdefault(key, []).append(record)
    table = {}
    for key, runs in sorted(groups.items()):
        metrics = {}
        section = "per_layer" if runs[0]["trace"] else "end_to_end"
        for name in runs[0][section]:
            values = [run[section][name] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            metrics[name] = {
                "runs": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
        first = runs[0]
        table[key] = {
            "workload": first["workload"],
            "size": first["size"],
            "seconds": first["seconds"],
            "seeds": sorted(run["seed"] for run in runs),
            "jobs": sum(run["samples"]["jobs"] for run in runs),
            "traced_jobs": sum(run["samples"]["traced_jobs"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "python": sorted({run["python"] for run in runs}),
            "git_sha": sorted({str(run["git_sha"]) for run in runs}),
            "src_sha256": sorted({run["src_sha256"] for run in runs}),
            "nproc": sorted({run["nproc"] for run in runs}),
            "metrics": metrics,
        }
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    files = args.files or sorted((ROOT / ".bench_runs").glob("BENCH_*.json"))
    table = summarize([json.loads(path.read_text()) for path in files])
    for key, group in table.items():
        print(f"{key}: {len(group['seeds'])} runs, {group['jobs']} jobs, "
              f"{group['traced_jobs']} traced, {group['failed']} failed")
        for name, m in group["metrics"].items():
            print(f"  {name:48s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}")
    if args.write:
        args.write.write_text(json.dumps(table, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
