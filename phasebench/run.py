"""Run one phasesynth benchmark workload and print its metrics.

    python3 phasebench/run.py --workload {train-64,synth-128,eval-64}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout (``src/phasesynth`` must exist).
Set-up (input generation, plus a checkpoint for synth-128 and eval-64)
runs five times in child processes; ``setup_s`` is their median. The
timed calls then repeat until ``--seconds`` have passed (at least two
calls, one with ``--smoke``), and ``cases_per_s`` is the median over
calls. With ``--trace 1`` the calls alternate between untraced and
traced ones instead, for the per-layer metrics and the tracing
overhead. Every run ends with the correctness checks. The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (environment, checks, call times and, when
traced, the spans) goes to ``.phasebench/results/``. Exit code 2 means
the run could not start.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".phasebench"
SETUP_REPEATS = 5
MIN_CALLS = 2
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("train-64", "synth-128", "eval-64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="8-case inputs, one set-up and one timed call")
    return p.parse_args(argv)


def environment():
    """CPU, NumPy/BLAS, Python and source identity recorded with every result."""
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phasesynth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def run_setup(name, seed, out_dir, smoke):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-m", "phasebench.prepare", name, str(seed),
                           str(out_dir), "1" if smoke else "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_calls(call, work, seconds, min_calls):
    """Repeat whole calls until `seconds` pass; returns [(cases, wall_s, ok, result)]."""
    calls = []
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < seconds:
        out = tempfile.mkdtemp(prefix="call", dir=work)
        t0 = time.perf_counter()
        cases, result, ok = call(out)
        calls.append((cases, time.perf_counter() - t0, ok, result))
    return calls


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "phasesynth" / "__init__.py").is_file():
        print(f"error: no phasesynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread: at these matrix sizes a second one made synth-128
    # slower, and a run then depends on one core only (see README)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from phasebench import checks, workloads
    from phasebench.trace import Tracer

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setups = [run_setup(wl.name, args.seed, work / f"setup{i}", args.smoke)
                  for i in range(1 if args.smoke else SETUP_REPEATS)]
        call = functools.partial(workloads.call, wl, setups[0], args.seed)
        traced = []
        if args.trace:
            # untraced and traced calls alternate, so that drift in machine
            # speed does not enter the overhead
            tracer = Tracer()
            calls = []
            start = time.perf_counter()
            while not traced or time.perf_counter() - start < args.seconds:
                calls += timed_calls(call, work, 0, 1)
                with tracer:
                    traced += timed_calls(functools.partial(call, log_hook=tracer.log_hook),
                                          work, 0, 1)
            metrics = tracer.metrics(
                train_cases=sum(c[0] for c in traced) if wl.name == "train-64" else 0)
            metrics["phantom.generate_ms"] = (
                1e3 * statistics.median(s["generate_s"] / s["cases"] for s in setups), "ms")
            overhead = statistics.median(c[1] / c[0] for c in traced) / statistics.median(
                c[1] / c[0] for c in calls) - 1.0
            metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        else:
            calls = timed_calls(call, work, args.seconds, 1 if args.smoke else MIN_CALLS)
            # set-up ran in children, so the parent's peak is the workload's
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (statistics.median(s["generate_s"] + s["train_s"] for s in setups), "s"),
                "cases_per_s": (statistics.median(c[0] / c[1] for c in calls), "cases/s"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "smoke": args.smoke, "environment": environment(), "setup": setups,
                  "call_walls_s": [c[1] for c in calls],
                  "traced_call_walls_s": [c[1] for c in traced]}
        if args.trace:
            record["trace"] = tracer.dump()

        all_calls = calls + traced
        results = [c[3] for c in all_calls]
        if wl.name == "train-64":
            found = checks.train_checks(
                setups[0], results, args.seed,
                retrain=lambda: call(tempfile.mkdtemp(prefix="call", dir=work))[1])
        elif wl.name == "synth-128":
            found = checks.synth_checks(setups[0], results[-1], args.seed)
        else:
            found = checks.eval_checks(setups[0], results[-1], args.seed)
        for label, ok, detail in found:
            print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

        attempted = sum(c[0] for c in all_calls)
        failed = sum(c[0] for c in all_calls if not c[2])
        summary = {
            "correct": all(ok for _, ok, _ in found),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        }
        record.update(checks=[{"check": c, "ok": ok, "detail": d} for c, ok, d in found],
                      result=summary)
        path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, default=str))
        print("# environment: " + json.dumps(record["environment"]))
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
