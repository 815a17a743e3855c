"""Summarise benchmark result files into one ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label LABEL [--out-dir DIR] RESULT.json ...

Each RESULT is a ``.phasebench/results/<workload>-seed<N>-trace0.json``
file written by ``phasebench/run.py --trace 0``. For each workload the
output holds, over the given runs: the median, the quartiles and the
interquartile range of each end-to-end metric (quartiles by the
inclusive method), the seeds, whether every check passed, the cases
that failed, and the machine and source the runs measured, read from
their recorded environment: ``nproc`` (CPUs usable by the run), the
CPU model, ``git_sha`` and ``src_sha256``. The file goes to
``DIR/BENCH_<label>.json`` (default: the root of this checkout).

Exit code 2, with nothing written, when a file is not a JSON object
holding a finished untraced full-size result, or when the runs of one
workload measured different sources or machines.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = {"nproc": "cpus_usable", "cpu": "cpu", "git_sha": "git_sha",
            "src_sha256": "src_sha256"}


def read_result(path):
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not a JSON object")
    if record.get("smoke") or record.get("trace") or record.get("traced_call_walls_s"):
        raise ValueError(f"{path}: not an untraced full-size run")
    if "result" not in record:
        raise ValueError(f"{path}: the run did not finish")
    return record


def spread(values):
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(records):
    """{workload: summary} over result records, one or more per workload."""
    by_workload = {}
    for record in records:
        by_workload.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, runs in sorted(by_workload.items()):
        runs.sort(key=lambda r: r["seed"])
        entry = {}
        for key, env_key in IDENTITY.items():
            seen = {r["environment"].get(env_key) for r in runs}
            if len(seen) != 1:
                raise ValueError(f"{workload}: runs differ in {key}: {sorted(map(str, seen))}")
            entry[key] = seen.pop()
        entry.update(seeds=[r["seed"] for r in runs], runs=len(runs),
                     all_correct=all(r["result"]["correct"] for r in runs),
                     failed=sum(r["result"]["failed"] for r in runs),
                     attempted=sum(r["result"]["attempted"] for r in runs))
        names = sorted({name for r in runs for name in r["result"]["metrics"]})
        entry["metrics"] = {}
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"]["metrics"]]
            if len(values) != len(runs):
                raise ValueError(f"{workload}: metric {name} is missing from some runs")
            unit = runs[0]["result"]["metrics"][name]["unit"]
            entry["metrics"][name] = dict(spread(values), unit=unit)
        out[workload] = entry
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--out-dir", default=str(ROOT))
    p.add_argument("results", nargs="+", help="phasebench trace-0 result JSON files")
    args = p.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        print(f"error: label {args.label!r} may hold only letters, digits, '.', '_' and '-'",
              file=sys.stderr)
        return 2
    try:
        workloads = summarise([read_result(path) for path in args.results])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({"schema_version": 1, "label": args.label,
                                "workloads": workloads}, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
