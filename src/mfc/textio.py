"""Workspace file format, expression parser and canonical serializer.

Grammar (line oriented, ``#`` comments; any other ``set`` key is an error):

    set order = <N>
    set strict = 0|1
    chart <name> { <id> : even|odd, ... }
    morphism <name> : <chart> -> <chart> kind=even|odd order=<N> { S = <expr> }
    function <name> on <chart> { <expr> }

Expressions use rational literals ``p/q``, identifiers, ``+ - * ^`` and
parentheses.  Multiplication is order-significant at the source level;
canonicalization (with Koszul signs) happens in the algebra kernel.  A number or
a product of numbers and identifiers stays one (monomial, coefficient) term, and
``superalg.mono_mul`` multiplies two; series are built only where a product meets
a sum, for ``mul`` (or ``scale``, by a number), and at the end of a body.
Momenta and derived variables are auto-declared, named by ``superforms.BUNDLES``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Dict, List, NoReturn, Optional, Set

from .morphisms import EPS, combined_chart, mk_thick
from .superalg import _ONE, EVEN, ODD, Chart, SuperSeries, Variable, mono_mul, mul
from .superforms import BUNDLES, COTANGENT, D, PIT, T, extend_chart, partner


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


# -- serializer ----------------------------------------------------------


def serialize(s: SuperSeries) -> str:
    """Canonical text form: deterministic, equal series give equal bytes."""
    if s.is_zero():
        return "0"
    items = sorted(s.terms.items(), key=lambda kv: (sum(kv[0]), tuple(-e for e in kv[0])))
    pieces = []
    for mono, coeff in items:
        factors = []
        for v, e in zip(s.chart.variables, mono):
            if e == 1:
                factors.append(v.name)
            elif e > 1:
                factors.append(f"{v.name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# -- lexer ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n\udc80-\udcff]*)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<arrow>->)
  | (?P<op>[-+*^(){}:,=])
""", re.VERBOSE)


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens = []
    line, start, pos = 1, 0, 0  # the line, the offset it starts at, the next lexeme's
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:  # finditer skipped the character at pos
            break
        kind, end = m.lastgroup, m.end()
        if kind == "ws":
            nl = text.rfind("\n", pos, end)
            if nl >= 0:
                line += text.count("\n", pos, end)
                start = nl + 1
        elif kind != "comment":
            tokens.append(Token(kind, m.group(), line, pos - start + 1))
        pos = end
    if pos < len(text):
        ch = text[pos]  # U+DC80..U+DCFF: a byte that utf-8 refused, escaped
        what = (f"byte {ord(ch) - 0xDC00:#x} is not UTF-8" if "\udc80" <= ch <= "\udcff"
                else f"unexpected character {ch!r}")
        raise ParseError(what, line, pos - start + 1)
    tokens.append(Token("eof", "", line, pos - start + 1))
    return tokens


# A power is expanded by repeated multiplication; it may take at most this
# many steps and reach at most this many terms before it is rejected.
MAX_POWER_TERMS = 1000
# One expression may multiply at most this many pairs of terms, summed over
# its products and power steps.  A bound on each product alone would still
# let (x+1)^500 take seconds through five hundred small steps.  No exponent may pass
# x^(MAX_TERM_PAIRS + 1), the longest product chain it admits, as a power of a power can.
MAX_TERM_PAIRS = 10000
# A number (a literal, or a series coefficient made by a sum, product or power) may
# have at most this many bits above and below the line, about 3000 digits: output is
# decimal, and CPython turns no integer of more than 4300 digits into text or back.
MAX_NUMBER_BITS = 10000
# Parentheses and unary minus may nest at most this deep: the parser
# recurses once per level and must stay well inside Python's stack limit.
MAX_NESTING = 100
# Orders (workspace settings and the CLI's --order) may be at most this: time
# and output grow steeply with the order, and tests and benchmarks use <= 12.
MAX_ORDER = 64


def _items(v) -> Collection:
    """The (monomial, coefficient) pairs of a value, zero dropped; a budget counts them."""
    return v.terms.items() if isinstance(v, SuperSeries) else (v,) if v[1] else ()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.pairs = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        """The current token; the position stays on the final ``eof``."""
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, at: Optional[Token] = None) -> NoReturn:
        """Raise ``msg`` at token ``at``, by default the lookahead."""
        t = at or self.peek()
        raise ParseError(msg, t.line, t.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            self.fail(f"expected {want!r}, found {t.text or t.kind!r}")
        return self.next()

    # expression grammar over a fixed chart -----------------------------

    def body(self, chart: Chart, order: int) -> SuperSeries:
        """One complete expression, with its own term-pair budget."""
        self.chart, self.order, self.const = chart, order, (0,) * len(chart)
        self.pairs = 0
        self.depth = 0
        return self.series(self.expr())

    def series(self, v) -> SuperSeries:
        if isinstance(v, SuperSeries):
            return v
        return SuperSeries(self.chart, {v[0]: v[1]} if v[1] else {}, self.order, _checked=True)

    def nest(self, at: Token):
        """Enter one more level of nesting, refused at ``at`` past the bound."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nests deeper than {MAX_NESTING} levels", at)

    def number(self, c: Fraction, at: Token) -> Fraction:
        """``c``, refused at ``at`` if it is past ``MAX_NUMBER_BITS``."""
        num, den = c.as_integer_ratio()
        if num.bit_length() > MAX_NUMBER_BITS or den.bit_length() > MAX_NUMBER_BITS:
            self.fail(f"number exceeds {MAX_NUMBER_BITS} bits", at)
        return c

    def product(self, a, b, at: Token):
        """a * b, refused at ``at`` if it would exceed a budget.  A number scales a
        series, and a series meets any other term in ``mul``."""
        self.pairs += len(_items(a)) * len(_items(b))
        if self.pairs > MAX_TERM_PAIRS:
            self.fail(f"expression multiplies more than {MAX_TERM_PAIRS} term pairs", at)
        if isinstance(a, tuple) and isinstance(b, tuple):
            out = mono_mul(self.chart, a, b, self.order)
        elif isinstance(a, tuple) and not any(a[0]):
            out = b.scale(a[1])
        elif isinstance(b, tuple) and not any(b[0]):
            out = a.scale(b[1])
        else:
            out = mul(self.series(a), self.series(b))
        for m, c in _items(out):
            if m and max(m) > MAX_TERM_PAIRS + 1:  # m is () on a chart of no variables
                name = self.chart.variables[m.index(max(m))].name
                self.fail(f"power of {name!r} exceeds {MAX_TERM_PAIRS + 1}", at)
            self.number(c, at)
        return out

    def expr(self):
        """A lone term as it is; a sum folded into one dict by monomial, kept as one
        term if it has at most one.  Terms come bounded; a sum of two coefficients
        is checked at its operator."""
        out = self.term()
        if self.peek().text not in ("+", "-"):
            return out
        terms, op = {}, None
        while True:
            for m, c in _items(out):
                c = -c if op and op.text == "-" else c
                terms[m] = self.number(terms[m] + c, op) if m in terms else c
            if self.peek().text not in ("+", "-"):
                break
            op, out = self.next(), self.term()
        if len(terms) <= 1:
            return next(iter(terms.items()), (self.const, 0))
        return SuperSeries(self.chart, {m: c for m, c in terms.items() if c}, self.order,
                           _checked=True)

    def term(self):
        out = self.factor()
        while self.peek().text == "*":
            op = self.next()
            out = self.product(out, self.factor(), op)
        return out

    def factor(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            self.nest(t)
            out = self.factor()
            self.depth -= 1
            return -out if isinstance(out, SuperSeries) else (out[0], -out[1])
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            e = self.expect("number")
            if "/" in e.text:
                self.fail("exponent must be an integer", e)
            n = int(e.text)
            if n > MAX_POWER_TERMS:
                self.fail(f"exponent must be at most {MAX_POWER_TERMS}", e)
            if n > 1 and len(terms := _items(base)) == 1:
                (mono, _), = terms
                for i in self.chart.odd_indices:
                    if mono[i]:
                        self.fail(f"odd variable {self.chart.variables[i].name!r} squared", e)
            out = (self.const, _ONE)
            for _ in range(n):
                out = self.product(out, base, e)
                if len(_items(out)) > MAX_POWER_TERMS:
                    self.fail(f"power expands past {MAX_POWER_TERMS} terms", e)
            return out
        return base

    def atom(self):
        t = self.next()
        if t.kind == "number":
            num, slash, den = t.text.partition("/")
            # a longer part is >= 10^3333 > 2^11000, and int() reads at most 4300 digits
            if max(len(num), len(den)) > MAX_NUMBER_BITS // 3:
                self.fail(f"number exceeds {MAX_NUMBER_BITS} bits", t)
            if slash and not int(den):
                self.fail(f"zero denominator in {t.text!r}", t)
            return self.const, self.number(Fraction(int(num), int(den or 1)), t)
        if t.kind == "ident":
            if t.text not in self.chart:
                self.fail(f"undeclared identifier {t.text!r}", t)
            i = self.chart.index(t.text)
            one = _ONE if self.chart.admits_var(i, self.order) else 0
            return self.const[:i] + (1,) + self.const[i + 1:], one
        if t.text == "(":
            self.nest(t)
            inner = self.expr()
            self.expect("op", ")")
            self.depth -= 1
            return inner
        self.fail(f"unexpected token {t.text or t.kind!r}", t)


def parse_series(text: str, chart: Chart, order: int) -> SuperSeries:
    """Parse a standalone expression on a known chart."""
    p = _Parser(tokenize(text))
    out = p.body(chart, order)
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return out


# -- workspace -------------------------------------------------------------


def bounded(text: str, what: str, most: int) -> int:
    """``text`` as an integer from 1 to ``most``; a ValueError naming ``what``
    otherwise.  Serves orders here and the CLI's --order and --trials."""
    if not text.isdecimal() or not 1 <= int(text) <= most:
        raise ValueError(f"{what} must be at least 1 and at most {most}, found {text!r}")
    return int(text)


_COVECTORS = tuple(BUNDLES[b].prefix for b in COTANGENT.values())  # q_, ys_


def _derived(name: str, coordinates: Set[str]) -> Optional[str]:
    """What a command derives under ``name`` beside a chart's coordinates, if
    anything: the T, PiT or d partner of another coordinate or of any
    (anti)momentum, the velocity of an odd velocity par_<v>, or the formal
    parameter that a pullback adds to the source and target charts."""
    if name == EPS:
        return "the formal parameter of a pullback"
    for b in (T, PIT, D):
        base = name[len(BUNDLES[b].prefix):]
        if name == partner(base, b) and (
                base in coordinates or base.startswith(_COVECTORS)
                or b == T and base in {partner(v, PIT) for v in coordinates}):
            return f"the {BUNDLES[b].role} of {base!r}"
    return None


def _declared(head: Token, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError from its checks is re-raised
    as a ParseError at the declaration's head token."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), head.line, head.col) from exc


class _Table(dict):
    """Declarations of one kind by name; a missing name is a KeyError saying so."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def __missing__(self, name):
        raise KeyError(f"no {self.kind} named {name!r} in workspace")

    def fresh(self, name: Token, head: Token) -> str:
        """The name a declaration gives, refused at its ``head`` if already taken."""
        if name.text in self:
            raise ParseError(f"duplicate {self.kind} {name.text!r}", head.line, head.col)
        return name.text

    def at(self, name: Token):
        """The declaration a reference names, refused at the reference if there is none."""
        if name.text not in self:
            raise ParseError(f"undeclared {self.kind} {name.text!r}", name.line, name.col)
        return self[name.text]


@dataclass
class Workspace:
    charts: Dict[str, Chart] = field(default_factory=lambda: _Table("chart"))
    morphisms: Dict[str, "object"] = field(default_factory=lambda: _Table("morphism"))
    functions: Dict[str, SuperSeries] = field(default_factory=lambda: _Table("function"))
    default_order: int = 3  # set order = <N>
    strict: bool = True  # set strict = 0|1


def parse_workspace(text: str) -> Workspace:
    ws = Workspace()
    p = _Parser(tokenize(text))
    while p.peek().kind != "eof":
        head = p.expect("ident")
        if head.text == "set":
            key = p.expect("ident")
            p.expect("op", "=")
            val = p.next()
            if key.text == "order":
                ws.default_order = _declared(val, bounded, val.text, "order", MAX_ORDER)
            elif key.text != "strict":
                p.fail(f"unknown setting {key.text!r}", key)
            elif val.text in ("0", "1"):
                ws.strict = val.text == "1"
            else:
                p.fail(f"strict must be 0 or 1, found {val.text!r}", val)
        elif head.text == "chart":
            name = ws.charts.fresh(p.expect("ident"), head)
            p.expect("op", "{")
            variables, names = [], []
            while p.peek().text != "}":
                names.append(p.expect("ident"))
                p.expect("op", ":")
                par = p.expect("ident")
                if par.text not in ("even", "odd"):
                    p.fail("parity must be 'even' or 'odd'", par)
                variables.append(Variable(names[-1].text, EVEN if par.text == "even" else ODD))
                if p.peek().text == ",":
                    p.next()
            p.expect("op", "}")
            coordinates = {v.name for v in variables}
            for t in names:
                if what := _derived(t.text, coordinates):
                    p.fail(f"coordinate {t.text!r} names {what}", t)
            ws.charts[name] = _declared(head, Chart, name, variables)
        elif head.text == "morphism":
            name = ws.morphisms.fresh(p.expect("ident"), head)
            p.expect("op", ":")
            src = p.expect("ident")
            p.expect("arrow")
            tgt = p.expect("ident")
            kind = order = None
            while p.peek().text != "{":
                key = p.expect("ident")
                p.expect("op", "=")
                val = p.next()
                if key.text == "kind":
                    kind = val
                elif key.text == "order":
                    order = _declared(val, bounded, val.text, "order", MAX_ORDER)
                else:
                    p.fail(f"unknown morphism attribute {key.text!r}", key)
            if kind is None or kind.text not in ("even", "odd"):
                p.fail("morphism needs kind=even|odd", kind)  # kind None: the "{"
            kind, order = kind.text, ws.default_order if order is None else order
            src, tgt = ws.charts.at(src), ws.charts.at(tgt)
            p.expect("op", "{")
            p.expect("ident", "S")
            p.expect("op", "=")
            chart = _declared(head, combined_chart, src, tgt, kind)
            s = p.body(chart, order)
            p.expect("op", "}")
            ws.morphisms[name] = _declared(head, mk_thick, src, tgt, kind, s, order,
                                           strict=ws.strict)
        elif head.text == "function":
            name = ws.functions.fresh(p.expect("ident"), head)
            p.expect("ident", "on")
            chart = ws.charts.at(p.expect("ident"))
            p.expect("op", "{")
            # auto-extend for derived variables mentioned in the body, which
            # ends at the first "}" (expressions have no braces); the body
            # parser reports a missing "}" at its position
            end = p.pos
            while p.tokens[end].text != "}" and p.tokens[end].kind != "eof":
                end += 1
            idents = {t.text for t in p.tokens[p.pos:end] if t.kind == "ident"}
            for bundle in (PIT, T):
                if any(i.startswith(BUNDLES[bundle].prefix) and i not in chart for i in idents):
                    chart = _declared(head, extend_chart, chart, bundle)
            body = p.body(chart, ws.default_order)
            p.expect("op", "}")
            ws.functions[name] = body
        else:
            p.fail(f"unknown declaration {head.text!r}")
    return ws
