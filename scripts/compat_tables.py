"""Evidence tables for the two star-compatibility identities.

For unit weights at each requested (n, max_len), runs
``check_compatibility`` and prints a Markdown table with one row per
class (len f1, len f2, len g) that holds a violation: the number of
violations of each identity and the smallest witness of each.  Smallest
means first in the checker's order: by g, then f2, then f1, each word
compared letter by letter with t1 < b1 < t2 < b2 < ...  Run from the
repository root:

    PYTHONPATH=src python3 scripts/compat_tables.py 2:7 3:5
"""

from __future__ import annotations

import argparse
import time

from freetoeplitz.expr import format_word
from freetoeplitz.form import WeightSystem
from freetoeplitz.toeplitz import check_compatibility


def compat_table(n, max_len, ws):
    """{(len f1, len f2, len g): {prop: [count, first violation]}}, sorted."""
    table = {}
    for v in check_compatibility(n, max_len, ws):
        row = table.setdefault((len(v.f1), len(v.f2), len(v.g)), {})
        entry = row.setdefault(v.prop, [0, v])
        entry[0] += 1
    return dict(sorted(table.items()))


def _witness(entry):
    if entry is None:
        return ""
    v = entry[1]
    return "f1 = `%s`, f2 = `%s`, g = `%s`: %s vs %s" % (
        format_word(v.f1), format_word(v.f2), format_word(v.g), v.lhs, v.rhs
    )


def format_table(n, max_len, table, seconds):
    totals = [sum(row[p][0] for row in table.values() if p in row) for p in (1, 2)]
    lines = [
        "## n=%d, max_len=%d" % (n, max_len),
        "",
        "%d violations of identity 1 and %d of identity 2 in %d classes;"
        " `check_compatibility` took %.1f s." % (*totals, len(table), seconds),
        "",
        "| len f1 | len f2 | len g | identity 1 | identity 2 "
        "| smallest identity-1 witness | smallest identity-2 witness |",
        "|---:|---:|---:|---:|---:|---|---|",
    ]
    for key, row in table.items():
        counts = [row[p][0] if p in row else 0 for p in (1, 2)]
        lines.append(
            "| %d | %d | %d | %d | %d | %s | %s |"
            % (*key, *counts, _witness(row.get(1)), _witness(row.get(2)))
        )
    return "\n".join(lines)


def _size(text):
    n, _, max_len = text.partition(":")
    return int(n), int(max_len)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="+", type=_size, help="n:max_len, e.g. 2:7")
    args = parser.parse_args(argv)
    for n, max_len in args.sizes:
        t0 = time.perf_counter()
        table = compat_table(n, max_len, WeightSystem.unit(n))
        print(format_table(n, max_len, table, time.perf_counter() - t0))
        print()


if __name__ == "__main__":
    main()
