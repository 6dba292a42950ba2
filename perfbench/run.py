"""freetoeplitz benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compat|session|matrix \\
        [--seed 0] [--seconds 40] [--trace 0|1]

With ``--trace 0`` it prints the end-to-end metrics (set-up time, wall
time of the operation list, per-operation latency, peak memory); with
``--trace 1`` the per-layer metrics of one traced pass.  Every answer is
checked after the timed region.  The report lines come first; the last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

The workload runs in a fresh interpreter (``worker.py``) so that import
cost and peak memory are its own; set-up is timed in several more fresh
interpreters and reported as the median.  This script imports nothing
from the package and exits non-zero, printing no result, when the
package sources are missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
# BLAS threads for numpy, pinned for every run and recorded with it
BLAS_THREADS = 1
# fresh interpreters timed for setup_s besides the measured one
SETUP_RUNS = 5
# the whole run, every interpreter included, ends within this many seconds
DEADLINE_S = 170
START = time.monotonic()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def commit():
    # a checkout without .git must not report the commit of a repository
    # that happens to enclose it
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:  # no git installed
            pass
    return "unknown (not a git checkout)"


def worker(args, *extra):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - START))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_out():
    """A workload past the deadline is a failed run, reported as such."""
    elapsed = time.monotonic() - START
    print("FAILED the workload did not finish within %d s" % DEADLINE_S)
    metrics = {"wall_s": {"value": elapsed, "unit": "s"}}
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("compat", "session", "matrix"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "freetoeplitz" / "__init__.py").is_file():
        raise SystemExit("no package sources under %s" % (ROOT / "src"))

    runs = [worker(args)]
    while not args.trace and runs[-1] is not None and len(runs) <= SETUP_RUNS:
        runs.append(worker(args, "--setup-only"))
    if runs[-1] is None:
        return timed_out()
    res = runs[0]
    setups = [r["setup_s"] for r in runs]
    env = dict(res["env"])
    env.update(
        blas_threads=BLAS_THREADS,
        nproc=nproc(),
        commit=commit(),
        platform=platform.platform(),
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
    )
    print("env: " + json.dumps(env, sort_keys=True))

    metrics = {}
    if args.trace:
        for name, (value, unit) in res["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        for name, us in res["kernel_us_per_pair"].items():
            text = "not available" if us is None else "%.3f us/pair" % us
            print("kernel %-16s %s (%s kernel in use)" % (name, text, env["kernel"]))
        print("call edges (traced pass):")
        for line in res["edges"]:
            print("  " + line)
    else:
        # percentiles over the operations of a pass, each operation
        # timed as the median of its runs; interpolated, so that with a
        # few operations a percentile is not one operation's time alone
        lat = res["op_ms"]
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(res["wall_s"]), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(
            "samples: %d passes of %d operations, %d set-ups"
            % (len(res["wall_s"]), len(lat), len(setups))
        )
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(
        "fail_frac: %d/%d = %.4g"
        % (res["failed"], res["attempted"], res["failed"] / res["attempted"])
    )
    for why in res["reasons"]:
        print("FAILED " + why)
    print(
        json.dumps(
            {
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
