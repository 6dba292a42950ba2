"""Record the answers the benchmark checks against into golden.json.

Run from the root of a checkout whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/record_golden.py

It runs every operation any seed can draw: the three compat cases, the
whole session pool, and each matrix symbol in the pool.  The CLI text
must stay byte-identical across later changes, so a later change that
needs a new record has changed an answer.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def record(wl, ops, table):
    for op in ops:
        result = wl.summarize(op, wl.run_op(op))
        value = workloads.golden_value(wl, op, result)
        if value is not None:
            table[workloads.op_key(op)] = value


def main():
    golden = {"compat": {}, "session": {}, "matrix": {}}
    wl = workloads.Compat(0)
    record(wl, wl.ops, golden["compat"])
    wl = workloads.Session(0)
    pool = workloads.session_pool()
    record(wl, [op for ops in pool.values() for op in ops], golden["session"])
    for k, symbol in enumerate(workloads.symbol_pool()):
        wl = workloads.Matrix(0, symbol=symbol)
        # the first symbol's export is shared by every seed
        record(wl, wl.ops[:3] if k == 0 else wl.ops[1:3], golden["matrix"])
    path = HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print("wrote %s: %s" % (path, {k: len(v) for k, v in golden.items()}))


if __name__ == "__main__":
    main()
