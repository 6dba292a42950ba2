"""Surface syntax for algebra elements.

Grammar (whitespace insignificant, products left-associative, '^' binds
tighter than '*'):

    expr      := term { ("+"|"-") term }
    term      := factor { "*" factor }
    factor    := atom [ "^" UINT ]
    atom      := scalar | generator | "(" expr ")" | "star" "(" expr ")"
    generator := "t" UINT | "b" UINT
    scalar    := [SIGN] (UINT ["/" UINT])? ["i"]

't j' is the generator theta_j, 'b j' its conjugate; a bare 'i' is the
imaginary unit.  The Unicode letter theta is accepted as an input alias
for 't' but never printed.  ``format_element`` emits canonical text that
parses back to the same element.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import AlgebraElement, Scalar


# deepest nesting of "(" and "star(": each level costs the parser four
# Python frames, so this keeps well inside the recursion limit of 1000
MAX_NESTING = 100

# str.isdigit also accepts other scripts' digits and superscripts
_DIGITS = frozenset("0123456789")


class ExprError(ValueError):
    """Malformed expression; offset is the 1-based character position."""

    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


class _Lexer:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.tokens = []
        self._scan()
        self.k = 0
        self.depth = 0

    def _scan(self):
        text = self.text
        m = len(text)
        p = 0
        while p < m:
            ch = text[p]
            if ch in " \t":
                p += 1
                continue
            off = p + 1
            if ch in "+-*^()/":
                self.tokens.append((ch, None, off))
                p += 1
            elif ch in _DIGITS:
                q = p
                while q < m and text[q] in _DIGITS:
                    q += 1
                self.tokens.append(("num", int(text[p:q]), off))
                p = q
            elif ch.isalpha() or ch == "θ":
                q = p
                while q < m and (text[q].isalpha() or text[q] == "θ"):
                    q += 1
                name = text[p:q]
                if name in ("t", "θ", "b"):
                    kind = 1 if name != "b" else -1
                    if q >= m or text[q] not in _DIGITS:
                        raise ExprError("generator needs an index", off)
                    r = q
                    while r < m and text[r] in _DIGITS:
                        r += 1
                    j = int(text[q:r])
                    if not 1 <= j <= self.n:
                        raise ExprError("generator index out of range", off)
                    self.tokens.append(("gen", kind * j, off))
                    p = r
                elif name == "i":
                    self.tokens.append(("imag", None, off))
                    p = q
                elif name == "star":
                    self.tokens.append(("star", None, off))
                    p = q
                else:
                    raise ExprError("unknown name %r" % name, off)
            else:
                raise ExprError("unexpected character %r" % ch, off)
        self.tokens.append(("end", None, m + 1))

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        if tok[0] != "end":
            self.k += 1
        return tok


def parse_element(text, n):
    """Parse an expression and lower it to a canonical element."""
    lx = _Lexer(text, n)
    value = _expr(lx)
    tok = lx.peek()
    if tok[0] != "end":
        raise ExprError("trailing input", tok[2])
    return value


def parse_word(text, n):
    """Parse an expression that must be a single word with coefficient 1."""
    elt = parse_element(text, n)
    terms = list(elt.items())
    if len(terms) != 1 or terms[0][1] != Scalar(1):
        raise ExprError("expected a single word with coefficient 1", 1)
    return terms[0][0]


def _expr(lx):
    value = _term(lx)
    while lx.peek()[0] in ("+", "-"):
        op = lx.next()[0]
        rhs = _term(lx)
        value = value + rhs if op == "+" else value - rhs
    return value


def _term(lx):
    value = _factor(lx)
    while True:
        tok = lx.peek()
        if tok[0] == "*":
            lx.next()
            value = value * _factor(lx)
        elif tok[0] == "imag":
            # juxtaposed imaginary unit, as in "(1/2)i"
            lx.next()
            value = value * Scalar(0, 1)
        else:
            return value


def _factor(lx):
    value = _atom(lx)
    if lx.peek()[0] == "^":
        lx.next()
        tok = lx.next()
        if tok[0] != "num":
            raise ExprError("expected integer exponent", tok[2])
        value = value ** tok[1]
    return value


def _atom(lx):
    tok = lx.peek()
    kind = tok[0]
    if kind in ("+", "-"):
        sign = 1 if kind == "+" else -1
        lx.next()
        nxt = lx.peek()
        if nxt[0] not in ("num", "imag"):
            raise ExprError("expected number after sign", nxt[2])
        return _scalar_atom(lx, sign)
    if kind in ("num", "imag"):
        return _scalar_atom(lx, 1)
    if kind == "gen":
        lx.next()
        return AlgebraElement.from_word((tok[1],))
    if kind in ("(", "star"):
        lx.next()
        if kind == "star":
            _expect(lx, "(")
        if lx.depth == MAX_NESTING:
            raise ExprError("nesting deeper than %d" % MAX_NESTING, tok[2])
        lx.depth += 1
        value = _expr(lx)
        _expect(lx, ")")
        lx.depth -= 1
        return value.star() if kind == "star" else value
    raise ExprError("expected scalar, generator or parenthesis", tok[2])


def _scalar_atom(lx, sign):
    tok = lx.peek()
    mag = Fraction(1)
    if tok[0] == "num":
        lx.next()
        mag = Fraction(tok[1])
        if lx.peek()[0] == "/":
            lx.next()
            den = lx.next()
            if den[0] != "num":
                raise ExprError("expected denominator", den[2])
            if den[1] == 0:
                raise ExprError("zero denominator", den[2])
            mag = Fraction(tok[1], den[1])
    elif tok[0] != "imag":
        raise ExprError("expected number", tok[2])
    if lx.peek()[0] == "imag":
        lx.next()
        c = Scalar(0, sign * mag)
    else:
        c = Scalar(sign * mag)
    return AlgebraElement({(): c})


def _expect(lx, kind):
    tok = lx.next()
    if tok[0] != kind:
        raise ExprError("expected %r" % kind, tok[2])


def format_scalar(c):
    """Exact scalar as 'a/b + c/d i' text."""
    if c.is_zero():
        return "0"
    parts = []
    if c.re:
        parts.append(str(c.re))
    if c.im:
        im = c.im
        if parts:
            sign = " + " if im > 0 else " - "
            im = abs(im)
            parts.append(sign + _imag_str(im))
        else:
            parts.append(_imag_str(im))
    return "".join(parts)


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return "%si" % im


def format_word(w):
    if not w:
        return "1"
    return "*".join(("t%d" % c) if c > 0 else ("b%d" % -c) for c in w)


def _coeff_prefix(c):
    """Coefficient rendered as a leading factor of a word term."""
    if c == Scalar(1):
        return ""
    s = format_scalar(c)
    if (c.re and c.im) or s.startswith("-"):
        s = "(%s)" % s
    return s + "*"


def format_element(a):
    """Canonical expression text; parses back to the same element."""
    if a.is_zero():
        return "0"
    bits = []
    for w in sorted(a.terms, key=lambda w: (len(w), w)):
        c = a.terms[w]
        if not w:
            s = format_scalar(c)
            if c.re and c.im:
                s = "(%s)" % s
            bits.append(s)
        else:
            bits.append(_coeff_prefix(c) + format_word(w))
    return " + ".join(bits)
