"""Self-test of the tracer, on small versions of the three workloads,
and of how the harness counts failed operations.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from freetoeplitz import cli, form, kernel, projection, toeplitz  # noqa: E402

SMALL = {
    "compat": lambda: workloads.Compat(0, cases=((["--n", "2", "--max-len", "3"], None, 0, 1),)),
    "session": lambda: workloads.Session(0, per_kind=2),
    "matrix": lambda: workloads.Matrix(0, degree=4),
}


def run(wl, traced):
    results = []
    tr = tracer.Tracer()
    if traced:
        tr.install()
    try:
        for op in wl.ops:
            results.append(wl.summarize(op, wl.run_op(op)))
    finally:
        tr.uninstall()
    return tr, [workloads.digest(wl.describe(op, r)) for op, r in zip(wl.ops, results)]


def test_every_wrapped_name_is_expected_somewhere():
    assert set().union(*tracer.EXPECTED.values()) == set(tracer.SPANS + tracer.COUNTERS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_expected_name_is_reached(name):
    tr, _ = run(SMALL[name](), traced=True)
    assert tracer.EXPECTED[name] <= tr.reached()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_match_untraced(name):
    _, plain = run(SMALL[name](), traced=False)
    _, traced = run(SMALL[name](), traced=True)
    assert traced == plain


def test_import_time_bindings_are_wrapped_and_restored():
    bindings = (
        (form, "form_factors"),
        (kernel, "form_factors"),
        (toeplitz, "project"),
        (cli, "project"),
        (projection, "project"),
        (toeplitz.ToeplitzOperator, "__call__"),
        (toeplitz.ToeplitzOperator, "apply"),
    )
    before = [getattr(owner, attr) for owner, attr in bindings]
    with tracer.Tracer():
        during = [getattr(owner, attr) for owner, attr in bindings]
    after = [getattr(owner, attr) for owner, attr in bindings]
    assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tr, _ = run(SMALL["compat"](), traced=True)
        counts.append({k: v for k, (v, unit) in tr.layer_metrics().items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["kernel.calls"] > 0


def test_escaping_exceptions_are_counted():
    with tracer.Tracer() as tr:
        with pytest.raises(ValueError):
            form.WeightSystem.unit(2).weight((3,))
    assert tr.layer_metrics()["form.errors"] == (1, "count")


def test_failed_operations_are_counted():
    wl = SMALL["session"]()
    wl.ops = [
        # without "--" argparse reads the element as an option and exits 2
        ["cli", ["project", "--n", "2", "-1*t1"]],
        # a pairing probability outside [0, 1] raises ValueError
        ["mc", [1, -1], [1], 2.0, 10, 0],
    ]
    _, _, results = worker.run_pass(wl)
    assert results[0][0] == 2
    assert results[1][1] is None and results[1][0].startswith("exception ValueError")
    assert set(wl.check(results, {})) == {0, 1}


def test_malformed_output_fails_its_check():
    wl = SMALL["session"]()
    wl.ops = [["cli", ["project", "--n", "2", "--", "t1"]]]
    bad = wl.check([(0, "t1 +* \n")], {})
    assert bad[0].startswith("check raised")


def test_later_passes_keep_only_digests():
    wl = SMALL["session"]()
    _, _, kept = worker.run_pass(wl)
    _, _, digests = worker.run_pass(wl, keep=False)
    assert digests == [workloads.digest(wl.describe(op, r)) for op, r in zip(wl.ops, kept)]
    assert worker.verify(wl, kept, [digests], {}) == worker.verify(wl, kept, [], {})


def test_timeout_is_reported_as_a_failed_run(monkeypatch, capsys):
    import json

    import run

    monkeypatch.setattr(run, "DEADLINE_S", 0)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "compat", "--seconds", "1"])
    assert run.main() == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] == res["attempted"] == 1
