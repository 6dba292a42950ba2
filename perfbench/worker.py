"""Run one workload in this process and print its raw figures as JSON.

Started by ``run.py`` in a fresh interpreter, so that import cost and
peak memory belong to the workload.  ``--setup-only`` stops after the
set-up (import of freetoeplitz plus building the inputs).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import freetoeplitz  # noqa: E402
import numpy  # noqa: E402

import workloads  # noqa: E402

# report at most this many failure reasons; all of them are counted
MAX_REASONS = 10


def run_pass(wl, keep=True):
    """One pass over the operation list; wall time is the sum of the ops.

    Unless ``keep``, each result is reduced to its digest as soon as it
    is summarised, so that what the harness holds, and so the peak
    memory, does not grow with the number of passes.
    """
    clock = time.perf_counter
    latencies, results = [], []
    for op in wl.ops:
        t0 = clock()
        try:
            res = wl.run_op(op)
        except Exception as e:  # an uncaught exception is a failed op
            res = ("exception %s: %s" % (type(e).__name__, e), None)
        latencies.append(clock() - t0)
        if res[1] is not None:
            res = wl.summarize(op, res)
        results.append(res if keep else workloads.digest(wl.describe(op, res)))
        del res
    gc.collect()
    return sum(latencies), latencies, results


def op_latencies(wl, passes):
    """Each operation's median time over every run of it in the measurement."""
    runs = {}
    for p in passes:
        for op, t in zip(wl.ops, p[1]):
            runs.setdefault(workloads.op_key(op), []).append(t)
    return [statistics.median(runs[workloads.op_key(op)]) for op in wl.ops]


def verify(wl, first, later, golden):
    """Failure reason per (pass, op); later passes, given as digests,
    must repeat the first."""
    reasons = {}
    for k, why in wl.check(first, golden).items():
        reasons[(0, k)] = why
    want = [workloads.digest(wl.describe(op, r)) for op, r in zip(wl.ops, first)]
    for p, digests in enumerate(later, 1):
        for k, d in enumerate(digests):
            if d != want[k]:
                reasons[(p, k)] = "output differs from the first pass"
    return reasons


def kernel_us_per_pair():
    """bench_kernel.py's random and mirror pairs, per importable kernel."""
    path = ROOT / "benchmarks" / "bench_kernel.py"
    spec = importlib.util.spec_from_file_location("bench_kernel", path)
    bk = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bk)
    count = 20000
    pairs = bk.make_pairs(count, 10)
    sets = {"random": pairs[:count], "mirror": pairs[count:]}
    kernels = {"pure": bk._pure.form_factors}
    if bk._speedups is not None:
        kernels["compiled"] = bk._speedups.form_factors
    out = {}
    for impl in ("pure", "compiled"):
        for kind, ps in sets.items():
            fn = kernels.get(impl)
            out["%s_%s" % (impl, kind)] = (
                None if fn is None else 1e6 * bk.bench(fn, ps) / len(ps)
            )
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _T0
    if not Path(freetoeplitz.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("freetoeplitz was not imported from %s" % (ROOT / "src"))
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0
    golden = json.loads((HERE / "golden.json").read_text())[wl.name]
    out["env"] = {
        "kernel": freetoeplitz.KERNEL_IMPL,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, keep=not passes))
        elapsed = time.perf_counter() - start
        # a traced run times one untraced pass, for the tracing overhead
        if args.trace or elapsed + passes[-1][0] > args.seconds:
            break
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["wall_s"] = [p[0] for p in passes]
    out["op_ms"] = [1e3 * t for t in op_latencies(wl, passes)]
    later = [p[2] for p in passes[1:]]

    if args.trace:
        import tracer

        with tracer.Tracer() as tr:
            traced = run_pass(wl, keep=False)
        later.append(traced[2])
        out["layers"] = tr.layer_metrics()
        out["layers"]["trace.overhead_s"] = (traced[0] - passes[0][0], "s")
        out["edges"] = tr.edge_lines()
        missed = sorted(tracer.EXPECTED[wl.name] - tr.reached())
        out["missed"] = missed
        out["kernel_us_per_pair"] = kernel_us_per_pair()

    reasons = verify(wl, passes[0][2], later, golden)
    if args.trace and out["missed"]:
        reasons[(-1, -1)] = "wrapped names never reached: %s" % ", ".join(out["missed"])
    out["attempted"] = len(wl.ops) * (len(later) + 1)
    out["failed"] = len({key for key in reasons if key[1] >= 0})
    out["correct"] = not reasons
    out["reasons"] = [
        "pass %d op %d: %s" % (p, k, why) for (p, k), why in sorted(reasons.items())
    ][:MAX_REASONS]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
