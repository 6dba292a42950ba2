"""Per-layer spans recorded from outside the package.

The tracer wraps the public functions of each freetoeplitz module and
aggregates what passes through them; no file of the package changes.
Modules bind imported names at import time (``form.form_factors``,
``toeplitz.project``, ``cli.project``, ``matrixrep.ToeplitzOperator``),
so a function is replaced under every name that any loaded freetoeplitz
module binds to it, and a method is replaced on its class, aliases
included (``ToeplitzOperator.__call__``).

Spans are not kept one by one: the pairing kernel alone is entered
millions of times on ``compat``.  Each span name aggregates calls,
total time, self time (total minus the time of its child spans) and
escaping exceptions, and each (parent, child) edge aggregates calls and
time, which is enough to say where the wall time went.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from freetoeplitz import (
    cli,
    expr,
    form,
    freealg,
    kernel,
    matrixrep,
    projection,
    scanproj,
    toeplitz,
)

ROOT = "<workload>"
# one per module; each reports <layer>.errors
LAYERS = ("kernel", "form", "freealg", "projection", "toeplitz", "matrixrep", "scanproj", "expr", "cli")


def _targets():
    """Span name -> the functions it covers, as (owner, attribute)."""
    ws = form.WeightSystem
    elt = freealg.AlgebraElement
    return {
        "kernel": [(kernel, "form_factors")],
        "form.form_words": [(ws, "form_words")],
        "form.weight": [(ws, "weight")],
        "form.form": [(ws, "form")],
        "freealg.mul": [(elt, "__mul__"), (elt, "__rmul__")],
        "freealg.add": [(elt, "__add__"), (elt, "__sub__")],
        "freealg.pow": [(elt, "__pow__")],
        "projection.project": [(projection, "project")],
        "projection.project_word": [(projection, "project_word")],
        "toeplitz.apply": [(toeplitz.ToeplitzOperator, "apply")],
        "toeplitz.check_compatibility": [(toeplitz, "check_compatibility")],
        "toeplitz.check_adjoint": [(toeplitz, "check_adjoint")],
        "matrixrep.matrix_of": [(matrixrep, "matrix_of")],
        "matrixrep.adjoint_defect": [(matrixrep, "adjoint_defect")],
        "matrixrep.commutator": [(matrixrep, "commutator_matrix")],
        "matrixrep.export": [(matrixrep, "to_csv"), (matrixrep, "to_json")],
        "scanproj.scan_project": [(scanproj, "scan_project")],
        "scanproj.monte_carlo_mean": [(scanproj, "monte_carlo_mean")],
        "expr.parse": [(expr, "parse_element")],
        "expr.format": [
            (expr, "format_element"),
            (expr, "format_scalar"),
            (expr, "format_word"),
        ],
        "cli.main": [(cli, "main")],
    }


# constructions are counted, not timed: there are too many to span
_COUNTERS = {
    "freealg.scalar_new": (freealg.Scalar, "__init__"),
    "freealg.element_new": (freealg.AlgebraElement, "__init__"),
}

SPANS = tuple(_targets())
COUNTERS = tuple(_COUNTERS)

# which wrapped names each workload must reach; a name that reads zero
# here means a binding was missed, not that the layer was idle
EXPECTED = {
    "compat": {
        "kernel",
        "form.form_words",
        "form.weight",
        "toeplitz.check_compatibility",
        "cli.main",
    },
    "session": {
        "kernel",
        "form.form_words",
        "form.weight",
        "form.form",
        "freealg.scalar_new",
        "freealg.element_new",
        "freealg.mul",
        "freealg.add",
        "freealg.pow",
        "projection.project",
        "projection.project_word",
        "toeplitz.apply",
        "toeplitz.check_adjoint",
        "scanproj.scan_project",
        "scanproj.monte_carlo_mean",
        "expr.parse",
        "expr.format",
        "cli.main",
    },
    "matrix": {
        "kernel",
        "form.form_words",
        "form.weight",
        "freealg.scalar_new",
        "freealg.element_new",
        "freealg.mul",
        "freealg.add",
        "projection.project",
        "projection.project_word",
        "toeplitz.apply",
        "matrixrep.matrix_of",
        "matrixrep.adjoint_defect",
        "matrixrep.commutator",
        "matrixrep.export",
        "expr.parse",
        "expr.format",
        "cli.main",
    },
}


class Stat:
    __slots__ = ("calls", "total", "self", "errors", "nonzero", "dense_bytes", "nonzeros")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0
        self.nonzero = 0
        self.dense_bytes = 0
        self.nonzeros = 0


def _count_nonzero_pairings(stat, result):
    if result is not None:
        stat.nonzero += 1


def _count_matrix(stat, m):
    stat.dense_bytes += m.entries.size * m.entries.itemsize
    stat.nonzeros += int(np.count_nonzero(m.entries))


_OBSERVERS = {
    "kernel": _count_nonzero_pairings,
    "matrixrep.matrix_of": _count_matrix,
    "matrixrep.commutator": _count_matrix,
}


class Tracer:
    """Wraps the package while installed; use as a context manager."""

    def __init__(self):
        self.stats = {name: Stat() for name in SPANS + COUNTERS}
        self.edges = {}
        # one frame per open span: [name, time covered by child spans]
        self._stack = [[ROOT, 0.0]]
        self._patches = []

    def _span(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                stat.calls += 1
                stat.total += dt
                stat.self += dt - frame[1]
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
                parent[1] += dt
            if observe is not None:
                # keep the observer's own cost out of the parent's self time
                t1 = clock()
                observe(stat, result)
                parent[1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # the class and any alias of the method inside it
            homes = [owner]
        else:
            homes = [
                m
                for key, m in list(sys.modules.items())
                if m is not None
                and (key == "freetoeplitz" or key.startswith("freetoeplitz."))
            ]
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    self._patches.append((home, key, value))
                    setattr(home, key, wrapper)

    def install(self):
        for name, sites in _targets().items():
            for owner, attr in sites:
                self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        for name, (owner, attr) in _COUNTERS.items():
            self._replace(owner, attr, self._counter(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patches:
            home, key, value = self._patches.pop()
            setattr(home, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reached(self):
        return {name for name, s in self.stats.items() if s.calls > 0}

    def layer_metrics(self):
        """The per-layer metrics, keyed by their BENCHMARK.json names."""
        s = self.stats
        k = s["kernel"]
        out = {
            "kernel.calls": (k.calls, "count"),
            "kernel.self_s": (k.self, "s"),
            "kernel.nonzero_frac": (k.nonzero / k.calls if k.calls else 0.0, "frac"),
            "form.form_words.calls": (s["form.form_words"].calls, "count"),
            "form.form_words.self_s": (s["form.form_words"].self, "s"),
            "form.weight.calls": (s["form.weight"].calls, "count"),
            "form.weight.self_s": (s["form.weight"].self, "s"),
            "form.form.calls": (s["form.form"].calls, "count"),
            "form.form.self_s": (s["form.form"].self, "s"),
            "freealg.scalar_new": (s["freealg.scalar_new"].calls, "count"),
            "freealg.element_new": (s["freealg.element_new"].calls, "count"),
            "freealg.mul.calls": (s["freealg.mul"].calls, "count"),
            "freealg.mul.self_s": (s["freealg.mul"].self, "s"),
            "freealg.add.self_s": (s["freealg.add"].self, "s"),
            "freealg.pow.self_s": (s["freealg.pow"].self, "s"),
            "projection.project.calls": (s["projection.project"].calls, "count"),
            "projection.project.self_s": (s["projection.project"].self, "s"),
            "projection.project_word.calls": (s["projection.project_word"].calls, "count"),
            "projection.project_word.self_s": (s["projection.project_word"].self, "s"),
            "toeplitz.apply.calls": (s["toeplitz.apply"].calls, "count"),
            "toeplitz.apply.self_s": (s["toeplitz.apply"].self, "s"),
            "toeplitz.check_compatibility.self_s": (s["toeplitz.check_compatibility"].self, "s"),
            "toeplitz.check_adjoint.self_s": (s["toeplitz.check_adjoint"].self, "s"),
            "matrixrep.matrix_of.self_s": (s["matrixrep.matrix_of"].self, "s"),
            "matrixrep.adjoint_defect.self_s": (s["matrixrep.adjoint_defect"].self, "s"),
            "matrixrep.commutator.self_s": (s["matrixrep.commutator"].self, "s"),
            "matrixrep.export.self_s": (s["matrixrep.export"].self, "s"),
            "matrixrep.dense_bytes": (
                s["matrixrep.matrix_of"].dense_bytes + s["matrixrep.commutator"].dense_bytes,
                "bytes",
            ),
            "matrixrep.nonzeros": (
                s["matrixrep.matrix_of"].nonzeros + s["matrixrep.commutator"].nonzeros,
                "count",
            ),
            "scanproj.scan_project.calls": (s["scanproj.scan_project"].calls, "count"),
            "scanproj.scan_project.self_s": (s["scanproj.scan_project"].self, "s"),
            "scanproj.monte_carlo_mean.self_s": (s["scanproj.monte_carlo_mean"].self, "s"),
            "expr.parse.calls": (s["expr.parse"].calls, "count"),
            "expr.parse.self_s": (s["expr.parse"].self, "s"),
            "expr.format.self_s": (s["expr.format"].self, "s"),
            "cli.main.self_s": (s["cli.main"].self, "s"),
        }
        for layer in LAYERS:
            errors = sum(
                st.errors for name, st in s.items() if name.split(".")[0] == layer
            )
            out[layer + ".errors"] = (errors, "count")
        return out

    def edge_lines(self):
        """Call edges, heaviest first: parent -> child, calls, seconds."""
        rows = sorted(self.edges.items(), key=lambda kv: -kv[1][1])
        return [
            "%-28s -> %-30s %10d calls %10.4f s" % (p, c, n, t)
            for (p, c), (n, t) in rows
        ]

