"""The three workloads: their seeded operation lists and answer checks.

An operation is plain JSON data, so that it can be keyed into the
recorded answers (``golden.json``).  It is either a CLI invocation,
``["cli", argv]``, run in process through ``cli.main`` with stdout
captured, or one of a few library calls that have no CLI.

Workloads are closed loop with one client: each operation starts when
the previous one has returned.  Inputs come from ``--seed``; the program
receives only the generated text or words.  Every generated element is
passed as ``--symbol=...``/``--arg=...`` or after ``--``, because an
element such as ``-1*t1`` would otherwise be read by argparse as an
option.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

from freetoeplitz import cli, expr, matrixrep, projection, scanproj, toeplitz
from freetoeplitz.form import WeightSystem, parse_rational
from freetoeplitz.freealg import AlgebraElement, theta_word

N = 2
GENS = ("t1", "t2", "b1", "b2")
HOLO = ("t1", "t2")
COEFFS = ("", "", "2*", "1/2*", "-1*", "-3/2*", "i*", "(1/3)i*", "(1 + i)*", "5/3*")
# unit weights, then the two product weight systems the session mixes in
MUS = (None, "2,3", "1/2,5/3")


def op_key(op):
    return hashlib.sha256(json.dumps(op).encode()).hexdigest()[:16]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def weights(mu):
    if mu is None:
        return WeightSystem.unit(N)
    return WeightSystem(N, mu=[parse_rational(p) for p in mu.split(",")])


def _mu_args(mu):
    return [] if mu is None else ["--mu", mu]


def run_cli(argv):
    """cli.main in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:
        # argparse rejected the command line: counted as a failure
        rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue()


class Workload:
    """A fixed operation list plus the checks of its answers."""

    name = None

    def run_op(self, op):
        """Run one operation; returns (exit code, result)."""
        if op[0] == "cli":
            return run_cli(op[1])
        return 0, getattr(self, "_op_" + op[0])(*op[1:])

    def summarize(self, op, result):
        """Compact form of a result, kept for the checks after timing."""
        return result

    def describe(self, op, result):
        """Result as text: what is digested and compared between passes."""
        rc, value = result
        if value is None:  # the operation raised
            return "rc=%s" % rc
        return "rc=%s\n%s" % (rc, self.text(op, value))

    def text(self, op, value):
        return value

    def expected_rc(self, op):
        return 0

    def check(self, results, golden):
        """Answer checks of one pass; returns {op index: reason}."""
        bad = {}
        for k, (op, res) in enumerate(zip(self.ops, results)):
            try:
                why = self._check_rc(op, res) or self.check_op(op, res, golden)
            except Exception as e:  # malformed output fails its check
                why = "check raised %s: %s" % (type(e).__name__, e)
            if why:
                bad[k] = why
        return bad

    def _check_rc(self, op, res):
        if res[0] != self.expected_rc(op):
            return "exit code %r, expected %r" % (res[0], self.expected_rc(op))
        return None

    def check_op(self, op, res, golden):
        want = golden.get(op_key(op))
        if want is None:
            return "no recorded answer for %s" % json.dumps(op)
        if digest(self.describe(op, res)) != want:
            return "stdout digest differs from the recorded answer"
        return None


# ---------------------------------------------------------------- compat

# (argv tail, known violation count, exit code, runs per pass); exit 1
# at n=1 is the expected answer: criterion 8 fails by design.  The n=2
# L=5 case takes most of a pass, so a run usually holds one pass; the two short
# cases run several times in it, so that their latency is the median of
# several samples rather than one.
COMPAT_CASES = (
    (["--n", "2", "--max-len", "5"], 8336, 0, 1),
    (["--n", "2", "--max-len", "4", "--mu", "2,3"], 1448, 0, 8),
    (["--n", "1", "--max-len", "8"], 791, 1, 8),
)


def violation_digest(violations):
    """Digest of the sorted violation set, independent of search order."""
    rows = sorted(
        "%d %r %r %r %s %s" % (v.prop, v.f1, v.f2, v.g, v.lhs, v.rhs)
        for v in violations
    )
    return digest("\n".join(rows))


class Compat(Workload):
    """The exhaustive star-compatibility checker through ``fta check``.

    The seed only orders the operations; their inputs are fixed.
    """

    name = "compat"

    def __init__(self, seed, cases=COMPAT_CASES):
        self.ops, self.cases = [], {}
        for tail, count, rc, times in cases:
            op = ["cli", ["check", "--suite", "compat"] + list(tail)]
            self.ops += [op] * times
            self.cases[op_key(op)] = (count, rc)
        random.Random(seed).shuffle(self.ops)

    def run_op(self, op):
        # the violation list never reaches stdout, so keep the checker's
        # return value; the capture is one extra call per operation
        real = toeplitz.check_compatibility
        captured = []

        def capture(*args, **kwargs):
            captured.append(real(*args, **kwargs))
            return captured[-1]

        toeplitz.check_compatibility = capture
        try:
            rc, text = run_cli(op[1])
        finally:
            toeplitz.check_compatibility = real
        return rc, (text, captured[-1] if captured else None)

    def summarize(self, op, result):
        # the count and digest of the violation list, not the list itself,
        # so that what the harness holds does not grow with the repeats
        rc, (text, violations) = result
        if violations is None:
            return rc, (text, None, "none")
        return rc, (text, len(violations), violation_digest(violations))

    def text(self, op, value):
        text, _, vd = value
        return "%sviolations %s" % (text, vd)

    def expected_rc(self, op):
        return self.cases[op_key(op)][1]

    def check_op(self, op, res, golden):
        count = self.cases[op_key(op)][0]
        text, found, _ = res[1]
        if found != count:
            return "violation list missing or not of the known size %d" % count
        if not text.startswith("compat: %d violations" % count):
            return "stdout %r does not report %d violations" % (text, count)
        return super().check_op(op, res, golden)


# --------------------------------------------------------------- session

# the kinds of session operation.  The mix is synthetic: no usage log
# says how often each kind is run, so every seed draws the same number
# of operations of every kind.
SESSION_KINDS = (
    "form",
    "project",
    "toeplitz",
    "scan",
    "mc",
    "symmetry",
    "adjoint",
    "counterexamples",
)
PER_KIND = 40
# the pools are fixed so that every op any seed can draw has a recorded
# answer.  The workload seed draws four fifths of each kind's pool and
# orders them; a larger pool made the total work vary by 7% (quartile
# spread over ten seeds) between seeds.
POOL_SEED = 20190502


def _word(rnd, lo, hi, letters=GENS):
    return [rnd.choice(letters) for _ in range(rnd.randint(lo, hi))]


def _element(rnd, max_terms, max_len, letters=GENS, min_terms=1):
    terms = []
    for _ in range(rnd.randint(min_terms, max_terms)):
        w = _word(rnd, 0, max_len, letters)
        terms.append(rnd.choice(COEFFS) + ("*".join(w) if w else "1"))
    return " + ".join(terms)


def _letters_to_word(letters):
    return [int(c[1:]) if c[0] == "t" else -int(c[1:]) for c in letters]


def _power(rnd, terms, k):
    base = rnd.sample(["t1", "t2", "b1", "b2", "1/2*t1", "i*b2", "-1*t2"], terms)
    return "(%s)^%d * %s" % (" + ".join(base), k, "*".join(_word(rnd, 1, 2)))


def _session_op(kind, rnd):
    mu = rnd.choice(MUS)
    if kind == "form":
        a, b = _element(rnd, 3, 4, min_terms=2), _element(rnd, 3, 4, min_terms=2)
        return ["cli", ["form", "--n", "2"] + _mu_args(mu) + ["--", a, b]]
    if kind == "project":
        # a plain element, or in equal shares a power that expands to 243
        # or 128 words
        shape = rnd.randrange(3)
        if shape == 0:
            e = _element(rnd, 4, 6, min_terms=3)
        else:
            e = _power(rnd, 3, 5) if shape == 1 else _power(rnd, 2, 7)
        return ["cli", ["project", "--n", "2"] + _mu_args(mu) + ["--", e]]
    if kind == "toeplitz":
        s, a = _element(rnd, 3, 4, min_terms=2), _element(rnd, 3, 4, HOLO, min_terms=2)
        return ["cli", ["toeplitz", "--n", "2"] + _mu_args(mu) + ["--symbol=" + s, "--arg=" + a]]
    if kind == "scan":
        w = "*".join(_word(rnd, 4, 8))
        p = rnd.choice(["0.5", "0.8", "1"])
        argv = ["scan", "--n", "2", "--algorithm", "random", "--p", p]
        return ["cli", argv + ["--seed", str(rnd.randint(0, 999)), "--trace", "--", w]]
    if kind == "mc":
        # Monte-Carlo outcome frequencies of the stochastic scan (library only)
        g = _letters_to_word(_word(rnd, 2, 5))
        phi = _letters_to_word(_word(rnd, 1, 4, HOLO))
        return ["mc", g, phi, rnd.choice([0.5, 0.8, 1.0]), 200, rnd.randint(0, 999)]
    argv = ["check", "--suite", kind, "--n", "2"] + _mu_args(mu)
    if kind == "symmetry":
        argv += ["--trials", "50", "--max-len", "4"]
    elif kind == "adjoint":
        argv += ["--trials", "50", "--max-len", "3"]
    return ["cli", argv + ["--seed", str(rnd.randint(0, 999))]]


def session_pool(per_kind=PER_KIND):
    rnd = random.Random(POOL_SEED)
    size = per_kind + per_kind // 4
    return {kind: [_session_op(kind, rnd) for _ in range(size)] for kind in SESSION_KINDS}


def _oracle_project(ws, a):
    """Projection by brute-force basis expansion, term by term."""
    out = AlgebraElement.zero()
    for w, c in a.items():
        out = out + c * projection.project_oracle(ws, w)
    return out


def _mu_of(argv):
    return argv[argv.index("--mu") + 1] if "--mu" in argv else None


# elements above this many words are checked by recorded digest only;
# the brute-force oracle is exponential in word length
ORACLE_MAX_TERMS = 40


class Session(Workload):
    """A stream of short interactive operations with mixed weights."""

    name = "session"

    def __init__(self, seed, per_kind=PER_KIND):
        rnd = random.Random(seed)
        pool = session_pool(per_kind)
        self.ops = [op for kind in SESSION_KINDS for op in rnd.sample(pool[kind], per_kind)]
        rnd.shuffle(self.ops)

    def _op_mc(self, g, phi, p, trials, seed):
        return scanproj.monte_carlo_mean(g, phi, scanproj.Stochastic(p), trials, seed)

    def text(self, op, value):
        if op[0] == "mc":
            return repr(sorted(value.items(), key=lambda kv: (kv[0] is not None, kv[0] or ())))
        return value

    def check_op(self, op, res, golden):
        why = (self._check_mc if op[0] == "mc" else self._check_cli)(op, res)
        return why or super().check_op(op, res, golden)

    def _check_mc(self, op, res):
        trials, freq = op[4], res[1]
        if abs(sum(freq.values()) - 1.0) > 1e-9:
            return "Monte-Carlo frequencies do not sum to 1"
        for word, f in freq.items():
            if abs(f * trials - round(f * trials)) > 1e-6:
                return "frequency %r is not a multiple of 1/%d" % (f, trials)
            if word is not None and any(c < 0 for c in word):
                return "outcome %r is not holomorphic" % (word,)
        return None

    def _check_cli(self, op, res):
        argv, text = op[1], res[1]
        cmd = argv[0]
        ws = weights(_mu_of(argv))
        if cmd in ("project", "toeplitz"):
            if cmd == "project":
                a = expr.parse_element(argv[-1], N)
            else:
                sym = next(x for x in argv if x.startswith("--symbol="))[9:]
                arg = next(x for x in argv if x.startswith("--arg="))[6:]
                a = expr.parse_element(arg, N) * expr.parse_element(sym, N)
            if len(a.terms) > ORACLE_MAX_TERMS:
                return None
            got = expr.parse_element(text.strip(), N)
            if got != _oracle_project(ws, a):
                return "%s output differs from project_oracle" % cmd
        elif cmd == "scan":
            word = expr.parse_word(argv[-1], N)
            lines = text.strip().split("\n")
            trace = []
            for line in lines[:-1]:
                bar, theta = line.split()
                t = theta[len("theta@"):]
                trace.append((int(bar[len("bar@"):]), None if t == "none" else int(t)))
            replayed = scanproj.replay(word, trace)
            want = "0" if replayed is None else expr.format_word(replayed)
            if lines[-1] != want:
                return "scan result does not replay from its trace"
        elif cmd == "check":
            suite = argv[argv.index("--suite") + 1]
            if suite == "counterexamples":
                w1, w12 = ws.weight((1,)), ws.weight((1, 2))
                want = "(%s, 0, %s, 0)\ncounterexamples reproduced\n" % (w12 * w1, w12)
                if text != want:
                    return "counterexamples: %r, expected %r" % (text, want)
            elif not text.startswith("%s: 0 violations" % suite):
                return "%s check reported violations" % suite
        return None


# ---------------------------------------------------------------- matrix

MATRIX_DEGREE = 10
MATRIX_MU = "2,3"
MATRIX_SYMBOL = "b1*t2 + t1 + 1/2*b2"
SYMBOL_POOL_SIZE = 24
# sampled columns per exported matrix checked against project_oracle
ORACLE_COLUMNS = 4


def symbol_pool():
    """Second symbols of one shape, so that the matrix cost hardly varies.

    t_a*b_a + b_a*t_b + t_b for a != b, with a real, an imaginary and a
    real coefficient; the seed picks a and the coefficient values.
    """
    rnd = random.Random(POOL_SEED)
    real = ("2*", "1/2*", "-3/2*", "5/3*")
    imag = ("i*", "(1/3)i*", "2i*", "-1/2i*")
    pool = []
    for _ in range(SYMBOL_POOL_SIZE):
        a = rnd.randint(1, N)
        b = 3 - a
        terms = (
            rnd.choice(real) + "t%d*b%d" % (a, a),
            rnd.choice(imag) + "b%d*t%d" % (a, b),
            rnd.choice(real) + "t%d" % b,
        )
        pool.append(" + ".join(terms))
    return pool


def _parse_entries(text):
    """Exported matrix, JSON or CSV, as {(row, col): complex}."""
    if text.startswith("{"):
        rows = json.loads(text)["entries"]
    else:
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
    return {(int(r), int(c)): complex(float(re), float(im)) for r, c, re, im in rows}


class Matrix(Workload):
    """The float truncation pipeline at n=2, degree L, dense numpy."""

    name = "matrix"

    def __init__(self, seed, degree=MATRIX_DEGREE, symbol=None):
        self.degree = degree
        self.symbols = (MATRIX_SYMBOL, symbol or random.Random(seed).choice(symbol_pool()))
        common = ["--degree", str(degree), "--n", "2", "--mu", MATRIX_MU]
        s1, s2 = self.symbols
        self.ops = [
            ["cli", ["matrix", "--symbol=" + s1] + common + ["--format", "json"]],
            ["cli", ["matrix", "--symbol=" + s2] + common + ["--format", "csv"]],
            ["adjoint_defect", s2, MATRIX_MU, degree],
            ["matrix_of", s1, MATRIX_MU, degree],
            ["matrix_of", s2, MATRIX_MU, degree],
            ["commutator", s1, s2, MATRIX_MU, degree],
        ]
        # building inputs: weights and parsed symbols
        self.ws = weights(MATRIX_MU)
        self.elements = {s: expr.parse_element(s, N) for s in self.symbols}
        self.built = {}

    def _op_adjoint_defect(self, symbol, mu, degree):
        # the space is built here, once per pass, and reused by matrix_of
        self.space = matrixrep.TruncatedSpace.build(N, degree)
        return matrixrep.adjoint_defect(self.ws, self.elements[symbol], self.space)

    def _op_matrix_of(self, symbol, mu, degree):
        m = matrixrep.matrix_of(self.ws, self.elements[symbol], self.space)
        self.built[symbol] = m
        return m

    def _op_commutator(self, s1, s2, mu, degree):
        m1, m2 = self.built.pop(s1), self.built.pop(s2)
        return matrixrep.to_csv(matrixrep.commutator_matrix(m1, m2))

    def summarize(self, op, result):
        if op[0] == "matrix_of":
            # the dense matrix itself is not kept past its operation
            m = result[1].entries
            rows, cols = m.nonzero()
            vals = m[rows, cols].tolist()
            return 0, dict(zip(zip(rows.tolist(), cols.tolist()), vals))
        return result

    def text(self, op, value):
        if op[0] == "matrix_of":
            return repr(sorted(value.items()))
        return value

    def check(self, results, golden):
        self._exports = {}
        for op, res in zip(self.ops, results):
            if op[0] == "cli" and res[0] == 0:
                sym = op[1][1][len("--symbol="):]
                try:
                    self._exports[sym] = _parse_entries(res[1])
                except Exception:
                    pass  # check_op reports the export as malformed
        return super().check(results, golden)

    def check_op(self, op, res, golden):
        kind = op[0]
        if kind == "cli":
            sym = op[1][1][len("--symbol="):]
            if sym not in self._exports:
                return "export of %s does not parse" % sym
            why = self._check_columns(sym, self._exports[sym])
            return why or super().check_op(op, res, golden)
        if kind == "adjoint_defect":
            want = golden.get(op_key(op))
            if want is None:
                return "no recorded answer for %s" % json.dumps(op)
            if not math.isclose(res[1], want, rel_tol=1e-9, abs_tol=1e-12):
                return "adjoint defect %r, recorded %r" % (res[1], want)
            return None
        if kind == "matrix_of":
            if res[1] != self._exports.get(op[1]):
                return "library matrix differs from the exported one"
            return None
        return self._check_commutator(op, res[1])

    def _check_columns(self, symbol, entries):
        """Sampled columns against the brute-force projection."""
        ws, g = self.ws, self.elements[symbol]
        space = matrixrep.TruncatedSpace.build(N, self.degree)
        rnd = random.Random(op_key(symbol))
        by_len = {}
        for k, i in enumerate(space.basis):
            by_len.setdefault(len(i), []).append(k)
        lengths = [0, 2, self.degree // 2, self.degree][:ORACLE_COLUMNS]
        for length in lengths:
            col = rnd.choice(by_len[length])
            k = space.basis[col]
            image = _oracle_project(ws, AlgebraElement.from_word(theta_word(k)) * g)
            want = {}
            for w, c in image.items():
                row = space.index.get(w)
                if row is not None:
                    scale = math.sqrt(float(ws.weight(w)) / float(ws.weight(k)))
                    want[row] = complex(c) * scale
            got = {r: v for (r, c), v in entries.items() if c == col}
            if set(got) != set(want) or any(
                abs(got[r] - want[r]) > 1e-12 * max(1.0, abs(want[r])) for r in want
            ):
                return "column %d of %s differs from project_oracle" % (col, symbol)
        return None

    def _check_commutator(self, op, text):
        """Exported commutator against A B - B A of the exported matrices."""
        a, b = (self._exports.get(s, {}) for s in op[1:3])

        def columns(m):
            cols = {}
            for (r, c), v in m.items():
                cols.setdefault(c, []).append((r, v))
            return cols

        ac, bc = columns(a), columns(b)
        want = {}
        for xc, y, sign in ((ac, bc, 1), (bc, ac, -1)):
            # (X Y)[r, c] = sum_k X[r, k] Y[k, c]
            for c, ys in y.items():
                for k, yv in ys:
                    for r, xv in xc.get(k, ()):
                        want[(r, c)] = want.get((r, c), 0) + sign * xv * yv
        got = _parse_entries(text)
        scale = max([abs(v) for v in want.values()] + [1.0])
        tol = 1e-9 * scale
        for key in set(got) | set(want):
            if abs(got.get(key, 0) - want.get(key, 0)) > tol:
                return "commutator entry %r differs from the product of the exports" % (key,)
        return None


WORKLOADS = {"compat": Compat, "session": Session, "matrix": Matrix}


def golden_value(workload, op, result):
    """What golden.json records for an operation."""
    if op[0] == "adjoint_defect":
        return result[1]
    if op[0] in ("matrix_of", "commutator"):
        return None  # checked against the exports, not recorded
    return digest(workload.describe(op, result))
