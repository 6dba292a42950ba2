"""The benchmark operations against their recorded answers, in process.

``perfbench/golden.json`` records a digest of each operation's output,
and ``perfbench/workloads.py`` checks an answer against it and against
its own oracles.  Running the operations here makes any change to the
output of ``fta`` or of the library calls that perfbench times fail
tier-1, without a benchmark run.
"""

import importlib.util
import json
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failures(wl):
    """One pass over wl.ops, each result summarised as perfbench's worker does."""
    golden = json.loads((PERFBENCH / "golden.json").read_text())[wl.name]
    results = []
    for op in wl.ops:
        res = wl.run_op(op)
        results.append(wl.summarize(op, res) if res[1] is not None else res)
    return wl.check(results, golden)


def test_compat_pass_matches_recorded_answers(workloads):
    assert failures(workloads.Compat(0)) == {}


def test_matrix_pass_matches_recorded_answers(workloads):
    assert failures(workloads.Matrix(0)) == {}


def test_session_pool_matches_recorded_answers(workloads):
    # every op that any seed's session pass can draw
    wl = workloads.Session(0)
    wl.ops = [op for ops in workloads.session_pool().values() for op in ops]
    assert len(wl.ops) == 400
    assert failures(wl) == {}
