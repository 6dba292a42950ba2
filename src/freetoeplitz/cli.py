"""Command-line front end (installed as ``fta``).

Exit codes: 0 success, 1 domain error, 2 usage error (including
malformed expressions).
"""

from __future__ import annotations

import argparse
import sys

from . import expr, matrixrep, scanproj, toeplitz
from .expr import ExprError
from .form import WeightSystem, parse_rational, parse_weight_config
from .projection import project


# largest generator count; a WeightSystem holds n weights from the start
MAX_N = 10_000


def _int_in(low, high=None):
    """argparse type: an integer in [low, high], else a usage error (exit 2)."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d: %s" % (low, text))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d: %s" % (high, text))
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _probability(text):
    """argparse type: a float in [0, 1], so neither nan nor inf, else exit 2."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("must lie in [0, 1]: %s" % text)
    return value


_probability.__name__ = "float"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fta",
        description="Exact Toeplitz quantization of the free *-algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    n_type = _int_in(1, MAX_N)

    def common(p):
        p.add_argument("--n", type=n_type, default=2, help="generator count")
        weights = p.add_mutually_exclusive_group()
        weights.add_argument("--mu", help="comma-separated positive rationals")
        weights.add_argument("--weights", help="file in 'mu = r1, r2, ...' format")

    p = sub.add_parser("form", help="evaluate the sesquilinear form")
    p.add_argument("first")
    p.add_argument("second")
    common(p)

    p = sub.add_parser("project", help="project onto the holomorphic part")
    p.add_argument("expression")
    common(p)

    p = sub.add_parser("toeplitz", help="apply a Toeplitz operator")
    p.add_argument("--symbol", required=True)
    p.add_argument("--arg", required=True)
    common(p)

    p = sub.add_parser("matrix", help="truncated operator matrix")
    p.add_argument("--symbol", required=True)
    p.add_argument("--degree", type=_int_in(0), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    common(p)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("symmetry", "adjoint", "compat", "counterexamples"),
    )
    p.add_argument("--max-len", type=_int_in(0), default=4)
    p.add_argument("--trials", type=_int_in(1), default=1000)
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("scan", help="word-scanning projection")
    p.add_argument("word")
    p.add_argument(
        "--algorithm", choices=("left-right", "random"), default="left-right"
    )
    p.add_argument("--p", type=_probability, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--n", type=n_type, default=2)
    return parser


def _weights(args):
    n = args.n
    if args.weights:
        with open(args.weights) as fh:
            mu = parse_weight_config(fh.read())
        if len(mu) != n:
            raise ValueError("weight file has %d parameters, need %d" % (len(mu), n))
        return WeightSystem(n, mu=mu)
    if args.mu:
        mu = [parse_rational(p) for p in args.mu.split(",")]
        if len(mu) != n:
            raise ValueError("--mu has %d parameters, need %d" % (len(mu), n))
        return WeightSystem(n, mu=mu)
    return WeightSystem.unit(n)


def _cmd_form(args, out):
    ws = _weights(args)
    a = expr.parse_element(args.first, args.n)
    b = expr.parse_element(args.second, args.n)
    print(expr.format_scalar(ws.form(a, b)), file=out)
    return 0


def _cmd_project(args, out):
    ws = _weights(args)
    a = expr.parse_element(args.expression, args.n)
    print(expr.format_element(project(ws, a)), file=out)
    return 0


def _cmd_toeplitz(args, out):
    ws = _weights(args)
    g = expr.parse_element(args.symbol, args.n)
    phi = expr.parse_element(args.arg, args.n)
    op = toeplitz.ToeplitzOperator(g, ws)
    print(expr.format_element(op.apply(phi)), file=out)
    return 0


def _cmd_matrix(args, out):
    ws = _weights(args)
    g = expr.parse_element(args.symbol, args.n)
    space = matrixrep.TruncatedSpace.build(args.n, args.degree)
    m = matrixrep.matrix_of(ws, g, space)
    text = matrixrep.to_csv(m) if args.format == "csv" else matrixrep.to_json(m) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_check(args, out):
    ws = _weights(args)
    if args.suite == "counterexamples":
        vals = toeplitz.reproduce_counterexamples(ws)
        verdict = "reproduced" if vals.reproduced else "NOT reproduced"
        print("(%s, %s, %s, %s)\ncounterexamples %s" % (vals + (verdict,)), file=out)
        return 0 if vals.reproduced else 1
    if args.suite == "symmetry":
        bad = toeplitz.symmetry_suite(ws, args.trials, args.max_len, args.seed)
        text = "symmetry: %d violations in %d trials (seed %d)"
        print(text % (bad, args.trials, args.seed), file=out)
        return 0 if bad == 0 else 1
    if args.suite == "adjoint":
        violations = toeplitz.adjoint_suite(ws, args.trials, args.max_len, args.seed)
        if violations:
            print(toeplitz.format_adjoint_violations(violations), file=out)
        print("adjoint: %d violations (seed %d)" % (len(violations), args.seed), file=out)
        return 0 if not violations else 1
    violations, passed, partial = toeplitz.compat_suite(ws, args.max_len)
    text = "compat: %d violations (n=%d, max_len=%d)"
    print(text % (len(violations), args.n, args.max_len), file=out)
    if partial:
        print("compat: " + partial, file=out)
    return 0 if passed else 1


def _cmd_scan(args, out):
    w = expr.parse_word(args.word, args.n)
    if args.algorithm == "left-right":
        strategy = scanproj.LeftRightRightmost()
        outcome = scanproj.scan_project(w, strategy)
    else:
        strategy = scanproj.Stochastic(args.p)
        outcome = scanproj.scan_project(w, strategy, seed=args.seed)
    if args.trace and outcome.eliminations:
        print(outcome.format_trace(), file=out)
    print("0" if outcome.is_zero else expr.format_word(outcome.result), file=out)
    return 0


_COMMANDS = {
    "form": _cmd_form,
    "project": _cmd_project,
    "toeplitz": _cmd_toeplitz,
    "matrix": _cmd_matrix,
    "check": _cmd_check,
    "scan": _cmd_scan,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except ExprError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
