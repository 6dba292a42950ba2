import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from freetoeplitz.cli import main
from freetoeplitz.matrixrep import OperatorMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_form_default_weights(capsys):
    code, out = run(capsys, "form", "t1", "t1*t2*b2", "--n", "2")
    assert code == 0
    assert out.strip() == "1"


def test_form_with_mu(capsys):
    code, out = run(capsys, "form", "t1", "t1*t2*b2", "--n", "2", "--mu", "2,3")
    assert code == 0
    assert out.strip() == "6"


def test_form_complex_output(capsys):
    code, out = run(capsys, "form", "i*t1", "t1", "--n", "1")
    assert code == 0
    assert out.strip() == "-i"


def test_project(capsys):
    code, out = run(capsys, "project", "t1*b1 + t1", "--n", "2")
    assert code == 0
    assert out.strip() == "1 + t1"


def test_toeplitz(capsys):
    code, out = run(
        capsys, "toeplitz", "--symbol", "b2*t1*b1", "--arg", "t1*t2", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "t1"


def test_matrix_csv(capsys):
    code, out = run(
        capsys, "matrix", "--symbol", "t1", "--degree", "1", "--n", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 2


def test_matrix_export_builds_no_dense_array(capsys, monkeypatch):
    argv = ["matrix", "--symbol=b1*t2 + t1 + 1/2*b2", "--degree", "8"]
    argv += ["--n", "2", "--mu", "2,3"]
    want = {fmt: run(capsys, *argv, "--format", fmt) for fmt in ("csv", "json")}

    def dense(self):
        raise AssertionError("dense view of %s built" % self.symbol_text)

    monkeypatch.setattr(OperatorMatrix, "entries", property(dense))
    for fmt, (code, out) in want.items():
        assert code == 0 and len(out) > 10000
        assert run(capsys, *argv, "--format", fmt) == (code, out)


def test_matrix_json_to_file(tmp_path, capsys):
    out_file = tmp_path / "m.json"
    code, _ = run(
        capsys,
        "matrix",
        "--symbol",
        "t1",
        "--degree",
        "2",
        "--format",
        "json",
        "--n",
        "2",
        "--out",
        str(out_file),
    )
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["order"] == "graded-lex"
    assert obj["symbol"] == "t1"
    assert obj["L"] == 2


def test_check_counterexamples(capsys):
    code, out = run(capsys, "check", "--suite", "counterexamples", "--n", "2")
    assert code == 0
    assert "(1, 0, 1, 0)" in out


def test_check_counterexamples_needs_n2(capsys):
    code = main(["check", "--suite", "counterexamples", "--n", "1"])
    assert code == 1


def test_check_symmetry(capsys):
    code, out = run(
        capsys, "check", "--suite", "symmetry", "--n", "2", "--trials", "50"
    )
    assert code == 0
    assert "0 violations" in out


def test_check_adjoint(capsys):
    code, out = run(
        capsys, "check", "--suite", "adjoint", "--n", "2", "--trials", "100"
    )
    assert code == 0


def test_check_compat_small(capsys):
    code, out = run(
        capsys, "check", "--suite", "compat", "--n", "2", "--max-len", "3"
    )
    assert code == 0
    assert "violations" in out


def test_scan(capsys):
    code, out = run(capsys, "scan", "t1*t2*b2*b1", "--algorithm", "left-right")
    assert code == 0
    assert out.strip() == "1"


def test_scan_zero(capsys):
    code, out = run(capsys, "scan", "b1*t1", "--algorithm", "left-right")
    assert code == 0
    assert out.strip() == "0"


def test_scan_trace(capsys):
    code, out = run(
        capsys, "scan", "t1*t2*b1", "--algorithm", "left-right", "--trace"
    )
    assert code == 0
    assert out.splitlines() == ["bar@2 theta@0", "t2"]


def test_scan_random(capsys):
    code, out = run(
        capsys,
        "scan",
        "t1*b1",
        "--algorithm",
        "random",
        "--p",
        "1.0",
        "--seed",
        "3",
    )
    assert code == 0
    assert out.strip() == "1"


def test_weights_file(tmp_path, capsys):
    cfg = tmp_path / "weights.txt"
    cfg.write_text("mu = 2, 3\n")
    code, out = run(
        capsys, "form", "t1", "t1", "--n", "2", "--weights", str(cfg)
    )
    assert code == 0
    assert out.strip() == "2"


def test_weights_file_and_mu_conflict(tmp_path, capsys):
    cfg = tmp_path / "weights.txt"
    cfg.write_text("mu = 2, 3\n")
    with pytest.raises(SystemExit) as e:
        main(["form", "t1", "t1", "--mu", "5,7", "--weights", str(cfg)])
    assert e.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert run(capsys, "form", "t1", "t1", "--mu", "5,7") == (0, "5\n")


def test_malformed_expression_exits_2():
    assert main(["form", "t1 +", "t1", "--n", "2"]) == 2
    assert main(["project", "qq", "--n", "2"]) == 2
    assert main(["project", "t\u00b2", "--n", "2"]) == 2  # a superscript is no digit


def test_domain_error_exits_1():
    assert main(["form", "t1", "t1", "--n", "2", "--mu", "2"]) == 1


@pytest.mark.parametrize(
    "flag,message",
    [("--mu", "error: malformed rational: ''\n"), ("--weights", "error: [Errno 2] ")],
)
def test_empty_weight_flag_is_an_error(capsys, flag, message):
    # an empty value is not the absent flag: it does not mean unit weights
    assert main(["form", "t1", "t1", flag, ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        # w(t1) overflows a float; then w(t1*t1) alone does
        ("--symbol=t1", "--degree", "2", "--n", "1", "--mu", "1" + "0" * 400),
        ("--symbol=t1", "--degree", "2", "--n", "1", "--mu", "1" + "0" * 200),
        # w(t1) underflows to 0.0, the divisor of a weight ratio
        ("--symbol=t1", "--degree", "2", "--n", "1", "--mu", "1/1" + "0" * 400),
        # a coefficient, then an entry 10^308 * sqrt(w(t1)), past float range
        ("--symbol=1%s*t1" % ("0" * 400), "--degree", "2", "--n", "1"),
        ("--symbol=1%s*t1" % ("0" * 308), "--degree", "1", "--n", "1", "--mu", "100"),
    ],
)
def test_matrix_outside_float_range_exits_1(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "freetoeplitz.cli", "matrix", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "outside float range" in proc.stderr


def test_usage_error_exits_2_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "freetoeplitz.cli", "bogus"],
        capture_output=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "freetoeplitz.cli", "check", "--suite", "nope"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_entry_point_help_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "freetoeplitz.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "fta" in proc.stdout


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    return exc.value.code, [line for line in err.splitlines() if "error:" in line]


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--suite", "compat", "--max-len", "-1"),
        ("check", "--suite", "symmetry", "--trials", "-5"),
        ("check", "--suite", "adjoint", "--trials", "0"),
        ("matrix", "--symbol", "t1", "--degree", "-1"),
        ("form", "t1", "t1", "--n", "0"),
        ("form", "t1", "t1", "--n", "10001"),
        ("scan", "t1", "--n", "0"),
        ("scan", "t1", "--n", "10001"),
        ("scan", "t1*b1", "--algorithm", "random", "--p", "2"),
        ("scan", "t1*b1", "--algorithm", "random", "--p", "-1"),
        ("scan", "t1*b1", "--algorithm", "random", "--p", "nan"),
        ("scan", "t1*b1", "--algorithm", "random", "--p", "inf"),
    ],
)
def test_out_of_range_flags_exit_2(capsys, argv):
    code, errors = _usage_error(capsys, *argv)
    assert code == 2
    assert len(errors) == 1 and argv[-2] in errors[0]


def test_smallest_flag_values_accepted(capsys):
    code, out = run(capsys, "check", "--suite", "symmetry", "--trials", "1", "--max-len", "0")
    assert (code, out) == (0, "symmetry: 0 violations in 1 trial (seed 0)\n")
    code, out = run(capsys, "matrix", "--symbol", "t1", "--degree", "0", "--n", "1")
    assert (code, out) == (0, "row,col,re,im\n")


def test_deep_nesting_exits_2(capsys):
    code = main(["project", "(" * 3000 + "t1" + ")" * 3000, "--n", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and "nesting" in err
    assert len(err.splitlines()) == 1


def test_check_compat_reports_partial_check(capsys):
    code, out = run(capsys, "check", "--suite", "compat", "--n", "2", "--max-len", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "compat: 24 violations (n=2, max_len=2)"
    assert len(lines) == 2 and "partial check" in lines[1]
    assert "g = b2*t1*b1" in lines[1] and "g = t2*b2" not in lines[1]
    code, out = run(capsys, "check", "--suite", "compat", "--n", "2", "--max-len", "3")
    assert code == 0
    assert "partial" not in out and len(out.splitlines()) == 1


def test_check_compat_n1_names_the_witnesses_out_of_reach(capsys):
    witness1 = "identity-1 counterexample (f1 = t1, f2 = 1, g = t1*b1*t1)"
    witness2 = "identity-2 counterexample (f1 = t1, f2 = t1*t1, g = b1)"
    argv = ("check", "--suite", "compat", "--n", "1", "--max-len")
    for max_len in (0, 1):
        code, out = run(capsys, *argv, str(max_len))
        assert code == 0
        assert out.splitlines() == [
            "compat: 0 violations (n=1, max_len=%d)" % max_len,
            "compat: partial check: max_len=%d cannot reach the %s or the %s"
            % (max_len, witness1, witness2),
        ]
    code, out = run(capsys, *argv, "2")
    assert code == 1
    assert out.splitlines() == [
        "compat: 1 violation (n=1, max_len=2)",
        "compat: partial check: max_len=2 cannot reach the " + witness1,
    ]
    code, out = run(capsys, *argv, "3")
    assert (code, out) == (1, "compat: 14 violations (n=1, max_len=3)\n")


# A small grammar of fta command lines.  Expressions have at most three
# leaves, and a power only at the top with exponent at most 3, and
# --n, --max-len and --degree stay at most 3, so every case is cheap;
# inputs known to take unbounded time, such as t1^999999999, are never
# drawn.  Leaves and flag values include malformed ones.
_LEAF = st.one_of(
    st.builds("{}{}".format, st.sampled_from("tb"), st.integers(0, 4)),
    st.sampled_from(["1", "-1", "0", "1/2", "2/3", "i", "(1/2)i", "1/0"]),
    st.sampled_from(["", "t", "(", ")", "^", "star(", "q", "1/", "*"]),
)
_BASE = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*"), inner),
        st.builds("star({})".format, inner),
        st.builds("({})".format, inner),
    ),
    max_leaves=3,
)
_EXPR = st.one_of(_BASE, st.builds("({})^{}".format, _BASE, st.integers(0, 3)))
_SMALL = st.integers(-1, 3).map(str)


def _flag(name, *values):
    return st.tuples(st.just(name), st.sampled_from(values))


_COMMON = st.one_of(
    st.tuples(st.just("--n"), _SMALL),
    _flag("--mu", "1", "2,3", "1/2,5/3,2", "0,1", "x", "-1,2", ""),
    _flag("--weights", ".", ""),
    st.just(("--help",)),
)


def _command(name, *parts):
    """The subcommand, its parts in order, then up to three common flags."""
    return st.tuples(*parts, st.lists(_COMMON, max_size=3)).map(
        lambda c: [name] + [a for part in c[:-1] + tuple(c[-1]) for a in part]
    )


_SYMBOL = _EXPR.map("--symbol={}".format)
_ARGV = st.one_of(
    _command("form", st.tuples(_EXPR, _EXPR)),
    _command("project", st.tuples(_EXPR)),
    _command("toeplitz", st.tuples(_SYMBOL, _EXPR.map("--arg={}".format))),
    _command(
        "matrix",
        st.tuples(_SYMBOL, st.just("--degree"), _SMALL),
        _flag("--format", "csv", "json", "xml"),
    ),
    _command(
        "check",
        _flag("--suite", "symmetry", "adjoint", "compat", "counterexamples", "nope"),
        st.tuples(st.just("--max-len"), _SMALL),
        st.tuples(st.just("--trials"), st.integers(0, 20).map(str)),
        st.tuples(st.just("--seed"), st.integers(-2, 2).map(str)),
    ),
    _command(
        "scan",
        st.tuples(_EXPR),
        _flag("--algorithm", "left-right", "random", "other"),
        _flag("--p", "0", "0.5", "1", "2", "-1", "nan", "x"),
        st.sampled_from([(), ("--trace",)]),
    ),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ARGV)
def test_fuzz_main_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    assert code in (0, 1, 2), argv
