"""Supercommutative algebra kernel.

Truncated polynomial/power series over exact rationals on an ordered
chart of even/odd variables.  All products, derivatives and
substitutions apply the Koszul sign rule; odd variables square to zero.
Momentum-class variables (and formal parameters) carry weight 1 and the
series is truncated at a fixed total weight (the filtration order).

Coefficients are stored as ``Fraction``s and monomials as exponent tuples.
Only products work in integer rows: ``mul`` and ``substitute`` (packed monomial,
numerator over a common denominator, odd mask) unpack each output term and make
its ``Fraction`` once.  A packed monomial is one int holding, from the low
bits up, an F-bit exponent field per chart variable, in chart order, and the
weight, so a product is one add and its truncation one compare; the odd mask
is its bits at the odd variables' fields.  The top bit of each field is a
guard: an operation whose exponents reach it reruns at twice the width (F =
8, 16, 32, 64).  Layouts are cached per chart shape.  The weight sits above
the fields, so the product kernel sorts the longer operand by packed monomial
and pairs each row of the shorter one with the prefix the truncation keeps,
reading the Koszul sign off one mask per outer row.  A one-term factor of
``mul``, ``partial`` and ``deriv`` shift exponents term by term instead, on the
``Fraction``s: ``partial`` lowers one, and ``deriv``, whose images are chart
variables, lowers one and raises another, adding coefficients only where two
terms land on one monomial.  ``_substitute_packed`` substitutes packed images into
several series with one shared table of image powers, keeps every
intermediate packed, and returns packed sums over their least common
denominator; ``substitute`` packs one series for it and unpacks its sum, and
the eliminator keeps its iterates packed in it from sweep to sweep.  Only even
variables reach an exponent of 2, and their images are even, so the table
squares each image over its unordered pairs of rows.  Weights only add up,
so a partial product of a term's factors stops at the order less the least
weights of the factors still to come.
"""

from __future__ import annotations

import functools
import operator
import struct
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import compress, repeat
from math import gcd, inf, lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

EVEN = 0
ODD = 1

Parity = int

ROLE_BASE = "base"
ROLE_VELOCITY = "velocity"
ROLE_ODD_VELOCITY = "odd-velocity"
ROLE_MOMENTUM = "momentum"
ROLE_ANTIMOMENTUM = "antimomentum"
ROLE_PARAM = "formal-parameter"

_ONE = Fraction(1)


class ChartMismatch(ValueError):
    """Operands live on different charts or filtration orders."""


class ParityError(ValueError):
    """A parity constraint was violated."""


class Variable(namedtuple("Variable", "name parity role weight base max_power")):
    """A named coordinate with parity, role and filtration weight.

    ``base`` records the coordinate a derived variable (velocity,
    momentum, ...) came from.  ``max_power`` is an optional nilpotency
    cap for even formal parameters (odd variables are capped at 1
    implicitly, see ``Chart.bounds``).  A validated tuple, so that hashing
    and comparing one, at every chart-cache lookup, runs in C.
    """

    __slots__ = ()

    def __new__(cls, name: str, parity: Parity, role: str = ROLE_BASE, weight: int = 0,
                base: Optional[str] = None, max_power: Optional[int] = None):
        if parity not in (EVEN, ODD):
            raise ParityError(f"bad parity for {name!r}: {parity}")
        if weight < 0:
            raise ValueError("weight must be nonnegative")
        return tuple.__new__(cls, (name, parity, role, weight, base, max_power))

    @classmethod
    def _make(cls, fields):  # so that ``_replace`` checks too
        return cls(*fields)


class Chart:
    """An ordered, named registry of variables.

    The registry order is total and defines the canonical monomial
    form: factors of a monomial are always listed in chart order and
    reordering costs the Koszul sign.
    """

    __slots__ = ("name", "variables", "_index", "names", "parities", "weights",
                 "bounds", "odd_indices", "capped", "images")

    def __init__(self, name: str, variables: Iterable[Variable]):
        self.name = name
        self.variables = tuple(variables)
        self._index = {}
        for i, v in enumerate(self.variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable {v.name!r} in chart {name!r}")
            self._index[v.name] = i
        self.names = tuple(self._index)
        self.parities = tuple(v.parity for v in self.variables)
        self.weights = tuple(v.weight for v in self.variables)
        # the one cap table: each variable's highest exponent, 1 if odd, else its
        # max_power, inf if it has none; ``capped`` is its finite (index, cap) pairs
        self.bounds = tuple(1 if v.parity else inf if v.max_power is None else v.max_power
                            for v in self.variables)
        self.odd_indices = tuple(i for i, p in enumerate(self.parities) if p == ODD)
        self.capped = tuple((i, b) for i, b in enumerate(self.bounds) if b != inf)
        self.images = {}  # bundle name -> ``deriv`` images, kept by superforms.apply_operator

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no variable {name!r} on chart {self.name!r}") from None

    def var(self, name: str) -> Variable:
        return self.variables[self.index(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.variables)

    def __iter__(self):
        return iter(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, Chart) and self.variables == other.variables

    def __repr__(self):
        names = ", ".join(v.name for v in self.variables)
        return f"Chart({self.name!r}: {names})"

    def mono_parity(self, mono: tuple) -> Parity:
        return sum(compress(mono, self.parities)) & 1

    def mono_weight(self, mono: tuple) -> int:
        return sum(map(operator.mul, mono, self.weights))

    def mono_base_degree(self, mono: tuple) -> int:
        return sum(e for e, w in zip(mono, self.weights) if w == 0)

    def admits(self, mono: tuple, order: int) -> bool:
        """Whether a monomial survives truncation at ``order`` and the caps."""
        if sum(map(operator.mul, mono, self.weights)) > order:
            return False
        for i, cap in self.capped:
            if mono[i] > cap:
                return False
        return True

    def admits_var(self, i: int, order: int) -> bool:
        """Whether variable i alone survives truncation at ``order`` and its cap."""
        return self.weights[i] <= order and self.bounds[i] > 0


# Derived charts and fibers are built once per key of names and variables, never of a
# Chart (its ``__eq__`` ignores the name, which messages print).  A benchmark workload
# makes at most 50 keys and ``mfc verify``'s draws 370; 512 caps a caller fed new charts.
chart_cache = functools.lru_cache(maxsize=512)
cached_chart = chart_cache(Chart)  # Chart(name, variables), one per equal pair


class SuperSeries:
    """A supercommutative series: chart + monomial->Fraction terms.

    Immutable by convention; every operation returns a fresh value.
    ``order`` is the filtration order: monomials whose total weight in
    momentum-class variables exceeds it are dropped.
    """

    __slots__ = ("chart", "order", "terms")

    def __init__(self, chart: Chart, terms: Mapping[tuple, Fraction], order: int,
                 _checked: bool = False):
        self.chart = chart
        self.order = order
        if _checked:  # a fresh dict, or another series' terms: both are kept as they are
            self.terms = terms
            return
        clean = {}
        for m, c in terms.items():
            c = Fraction(c)
            if c and chart.admits(m, order):
                clean[m] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, order: int) -> "SuperSeries":
        return cls(chart, {}, order, _checked=True)

    @classmethod
    def const(cls, chart: Chart, value, order: int) -> "SuperSeries":
        return cls(chart, {(0,) * len(chart): value}, order)

    @classmethod
    def of_var(cls, chart: Chart, name: str, order: int) -> "SuperSeries":
        i = chart.index(name)
        mono = (0,) * i + (1,) + (0,) * (len(chart) - i - 1)
        terms = {mono: _ONE} if chart.admits_var(i, order) else {}
        return cls(chart, terms, order, _checked=True)

    @classmethod
    def monomial(cls, chart: Chart, exps: Mapping[str, int], coeff, order: int) -> "SuperSeries":
        mono = [0] * len(chart)
        for name, e in exps.items():
            mono[chart.index(name)] = e
        return cls(chart, {tuple(mono): coeff}, order)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Optional[Parity]:
        """Parity if homogeneous (0 treated as any), else None."""
        seen = None
        for m in self.terms:
            p = self.chart.mono_parity(m)
            if seen is None:
                seen = p
            elif seen != p:
                return None
        return seen

    def has_parity(self, p: Parity) -> bool:
        return not self.terms or self.parity() == p

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.chart), Fraction(0))

    # -- arithmetic ----------------------------------------------------

    def _require_compatible(self, other: "SuperSeries"):
        if self.chart != other.chart:
            raise ChartMismatch(
                f"chart mismatch: {self.chart.name!r} vs {other.chart.name!r}")
        if self.order != other.order:
            raise ChartMismatch(
                f"filtration mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperSeries.const(self.chart, other, self.order)
        return total((other,), self)

    __radd__ = __add__

    def __neg__(self):
        return SuperSeries(self.chart, {m: -c for m, c in self.terms.items()},
                           self.order, _checked=True)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "SuperSeries":
        c = Fraction(c)
        if not c:
            return SuperSeries.zero(self.chart, self.order)
        return SuperSeries(self.chart, {m: c * v for m, v in self.terms.items()},
                           self.order, _checked=True)

    def __mul__(self, other):
        return mul(self, other)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = SuperSeries.const(self.chart, 1, self.order)
        for _ in range(n):
            out = mul(out, self)
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SuperSeries.const(self.chart, other, self.order)
        if not isinstance(other, SuperSeries):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self):
        from .textio import serialize
        return f"<{serialize(self)} on {self.chart.name!r} order {self.order}>"


# -- module-level operations ------------------------------------------


def total(parts: Iterable[SuperSeries], start: SuperSeries) -> SuperSeries:
    """``sum(parts, start)``, with each part's terms added in place into one copy."""
    out = dict(start.terms)
    for a in parts:
        start._require_compatible(a)
        for m, c in a.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            elif s := s + c:
                out[m] = s
            else:
                del out[m]
    return SuperSeries(start.chart, out, start.order, _checked=True)


class _Layout:
    """Packed monomials of one chart shape at field width F (see the module).

    An operand's exponents stay below the guard bits (``pack`` refuses one at
    a guard, ``rows_of`` a sum that sets one), so a sum of two carries out of
    no field: its fields unpack as they are, and its weight reads above them.
    """

    __slots__ = ("weights", "odd", "caps", "field", "guard", "weight_shift", "pack", "unpack")

    def __init__(self, parities: tuple, weights: tuple, bounds: tuple, width: int):
        n = len(parities)
        code = {8: "b", 16: "h", 32: "i", 64: "q"}[width]
        self.weights = weights
        self.odd = sum(1 << i * width for i, p in enumerate(parities) if p == ODD)
        # (field shift, cap) of each capped even variable, from ``bounds``; an odd
        # variable's bound of 1 is kept by the odd mask
        self.caps = tuple((i * width, b) for i, (p, b) in enumerate(zip(parities, bounds))
                          if not p and b != inf)
        self.field = (1 << width) - 1
        self.guard = sum(1 << (i * width + width - 1) for i in range(n))
        self.weight_shift = n * width
        # signed fields, so packing refuses an exponent at the guard bit
        self.pack = struct.Struct(f"<{n}{code}").pack
        self.unpack = struct.Struct(f"<{n}{code.upper()}").unpack_from

    def rows(self, terms: Mapping[tuple, Fraction], den: int) -> list:
        """(packed monomial, numerator over ``den``, odd mask) per term."""
        pack, odd, weights, shift = self.pack, self.odd, self.weights, self.weight_shift
        return [(p | sum(map(operator.mul, m, weights)) << shift,
                 c.numerator * (den // c.denominator), p & odd)
                for m, c in terms.items() for p in [int.from_bytes(pack(*m), "little")]]

    def rows_of(self, acc: dict) -> list:
        """Rows of the nonzero sums in ``acc``, to be multiplied again."""
        if functools.reduce(operator.or_, acc, 0) & self.guard:
            raise OverflowError("an exponent reached its guard bit")
        odd = self.odd
        return [(p, n, p & odd) for p, n in acc.items() if n]

    def series(self, chart: Chart, acc: dict, den: int, order: int) -> SuperSeries:
        """The nonzero sums in ``acc`` over ``den``, each monomial unpacked once."""
        size, unpack = (((order + 1) << self.weight_shift).bit_length() + 7) >> 3, self.unpack
        return SuperSeries(chart, {unpack(p.to_bytes(size, "little")): Fraction(n, den)
                                   for p, n in acc.items() if n}, order, _checked=True)


# One layout per chart shape and width: a benchmark workload makes at most 11 keys (6 passes,
# seed 1) and the four ``mfc verify`` suites 39 at 10 trials, 78 at 200, all at width 8.
_layout = functools.lru_cache(maxsize=256)(_Layout)


def _widening(chart: Chart, run):
    """``run(layout)`` at field width 8, rerun twice as wide while an exponent hits a guard."""
    shape = (chart.parities, chart.weights, chart.bounds)
    for width in (8, 16, 32, 64):
        try:
            return run(_layout(*shape, width))
        except (OverflowError, struct.error):
            pass
    raise ValueError("an exponent reaches 2^63, past the kernel's 64-bit exponent field")


def _common_denominator(coeffs: Iterable[Fraction]) -> int:
    return lcm(*[c.denominator for c in coeffs])


_packed = operator.itemgetter(0)  # a row's packed monomial


def _add_products(acc: dict, rows_a: list, rows_b: list, order: int,
                  layout: _Layout) -> None:
    """acc[p1 + p2] += sign*n1*n2 for every pair of rows the truncation keeps.

    A row is (packed monomial, numerator, odd mask): one F-bit exponent field
    per chart variable, the weight above them, and the bits at the odd
    variables' fields.  So a product is one add, ``p1 + p2``, and its
    truncation one compare, ``p1 + p2 > limit``; an even cap reads its field.
    Each field's top bit is a guard the operands stay below, so the add
    carries into no other field; a sum that sets a guard becomes no operand
    (``rows_of`` refuses it), and the whole operation reruns twice as wide.
    The weight sits above the fields, so once the longer operand is sorted by
    packed monomial, the rows that a row p1 of the shorter one keeps pairs with
    are its prefix up to ``limit - p1``: only that prefix is visited.  An even
    outer row on a chart with no capped even variable needs no overlap test,
    sign or cap.  Any other row reads each pair's Koszul sign off one AND with
    a mask made once per row: the odd fields below its odd factors when it is
    the left factor (each odd factor of the right one moves left past the
    left one's odd factors that stand after it), above them when it is the
    right one.  Handed one list twice (only ``power``'s image^2 step does so),
    it squares: sorted row j times itself, then each later row k under the cut
    with 2*n_k.  That needs even rows, whose pairs (j, k) and (k, j) make one
    monomial with one sign; ``mul(a, a)`` builds two lists, so an odd a*a still
    cancels.
    """
    get = acc.get
    limit = ((order + 1) << layout.weight_shift) - 1  # the heaviest packed monomial kept
    caps, field, odd = layout.caps, layout.field, layout.odd
    left = len(rows_a) <= len(rows_b)  # whether the outer rows are the left factor
    outer, inner = (rows_a, rows_b) if left else (rows_b, rows_a)
    inner = sorted(inner, key=_packed)
    twice = None
    if rows_a is rows_b:  # a square: the outer rows are the sorted ones
        outer, twice = inner, [(p, n << 1, o) for p, n, o in inner]
    for j, (p1, n1, o1) in enumerate(outer):
        end = bisect_right(inner, limit - p1, key=_packed)
        if twice is None:
            pairs = inner[:end]
        elif end <= j:  # the outer rows are sorted too: no later row keeps a pair
            break
        else:
            pairs = [inner[j], *twice[j + 1:end]]
        if not o1 and not caps:
            for p2, n2, _ in pairs:
                p = p1 + p2
                acc[p] = get(p, 0) + n1 * n2
            continue
        mask, o = 0, o1
        while o:
            low = o & -o
            mask ^= odd & (low - 1) if left else odd & -(low << 1)
            o ^= low
        for p2, n2, o2 in pairs:
            if o1 & o2:  # an odd variable squared
                continue
            p = p1 + p2
            if caps and any(p >> shift & field > cap for shift, cap in caps):
                continue
            n = n1 * n2
            acc[p] = get(p, 0) + (-n if (o2 & mask).bit_count() & 1 else n)


def _shift(a: SuperSeries, m0: tuple, c0: Fraction, left: bool) -> SuperSeries:
    """c0*m0 times ``a``, m0 the left factor if ``left``, with no rows: each term
    shifts by m0, unless it holds an odd variable of m0.  The Koszul sign counts,
    for each odd factor of m0, the term's odd factors before it (m0 left) or
    after it.  Only a weighted or capped variable of m0 can leave the truncation."""
    chart = a.chart
    odd = chart.odd_indices
    support = [(i, m0[i]) for i in compress(range(len(m0)), m0)]
    cut = any(chart.weights[i] or not chart.parities[i] and chart.bounds[i] != inf
              for i, _ in support)
    o0 = flips = 0
    for i, _ in support:
        if chart.parities[i]:
            o0 |= 1 << i
            flips ^= (1 << i) - 1 if left else -(2 << i)
    one = c0 == 1
    out = {}
    for m, c in a.terms.items():
        if o0:
            o = sum([m[i] << i for i in odd])
            if o & o0:
                continue
        mono = list(m)
        for i, e in support:
            mono[i] += e
        if cut and not chart.admits(mono, a.order):
            continue
        c = c if one else c0 * c
        out[tuple(mono)] = -c if o0 and (o & flips).bit_count() & 1 else c
    return SuperSeries(chart, out, a.order, _checked=True)


def mono_mul(chart: Chart, a: tuple, b: tuple, order: int) -> tuple:
    """The product of one-term values a = (monomial, coefficient) and b, a the left
    factor: one exponent add, and each odd factor of b moves left past the odd
    factors of a after it.  Zero past the order or a cap, an odd one's cap of 1
    included."""
    (m1, c1), (m2, c2) = a, b
    mono = tuple(map(operator.add, m1, m2))
    if not chart.admits(mono, order):
        return mono, 0
    c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
    o1 = sum([m1[i] << i for i in chart.odd_indices])
    flips = sum([(o1 >> j + 1).bit_count() for j in chart.odd_indices if m2[j]]) if o1 else 0
    return mono, -c if flips & 1 else c


def mul(a: SuperSeries, b: SuperSeries) -> SuperSeries:
    """Supercommutative product, truncated to the filtration order."""
    a._require_compatible(b)
    if len(a.terms) == 1 or len(b.terms) == 1:
        left = len(a.terms) == 1
        (m, c), = (a if left else b).terms.items()
        return _shift(b if left else a, m, c, left)
    chart = a.chart
    da = _common_denominator(a.terms.values())
    db = _common_denominator(b.terms.values())

    def run(layout: _Layout) -> SuperSeries:
        acc: dict = {}
        _add_products(acc, layout.rows(a.terms, da), layout.rows(b.terms, db),
                      a.order, layout)
        return layout.series(chart, acc, da * db, a.order)

    return _widening(chart, run)


def deriv(a: SuperSeries, images: Mapping[str, tuple[str, int]], parity: Parity) -> SuperSeries:
    """Graded left derivation D of the given parity with D(v) = sign*w for
    ``images[v] = (w, sign)``, w a chart variable of parity |v| + |D|.

    Variables absent from ``images`` are annihilated.  Term by term, like
    ``partial``: c*left*v^e*right goes to (-1)^(|D||left|) e*sign*c*left*w*v^(e-1)*right,
    and an odd w moves into chart order past the odd factors strictly between
    v and it, or kills the term if already present.  Only a heavier w, or an
    even w with a cap, can leave the truncation.
    """
    chart = a.chart
    shifts = []  # (k, t, negated, odd w, flips, may be cut) per image
    for name, (target, sign) in images.items():
        k, t = chart.index(name), chart.index(target)
        odd = chart.parities[t]
        if odd != chart.parities[k] ^ parity:
            raise ParityError(f"image of {name!r} has the wrong parity")
        # flips: the odd factors w passes (strictly between v and w) and D passes (before v)
        between = (1 << max(k, t)) - (2 << min(k, t)) if odd and k != t else 0
        cut = chart.weights[t] > chart.weights[k] or not odd and chart.bounds[t] != inf
        shifts.append((k, t, sign < 0, odd, between ^ ((1 << k) - 1 if parity else 0), cut))
    out: dict = {}
    for m, c in a.terms.items():
        o = sum([m[i] << i for i in chart.odd_indices])
        for k, t, negated, odd, flips, cut in shifts:
            e = m[k]
            if not e:
                continue
            mono = list(m)
            mono[k] = e - 1
            if odd and mono[t]:
                continue
            mono[t] += 1
            mono = tuple(mono)
            if cut and not chart.admits(mono, a.order):
                continue
            e = -e if (o & flips).bit_count() + negated & 1 else e
            d = c if e == 1 else -c if e == -1 else e * c
            s = out.get(mono)  # a sum only where two terms land on one monomial
            if s is None or (d := s + d):
                out[mono] = d
            else:
                del out[mono]
    return SuperSeries(chart, out, a.order, _checked=True)


def partial(a: SuperSeries, name: str) -> SuperSeries:
    """Left partial derivative with respect to a chart variable.

    Term by term: c*left*v^e*right goes to e*c*left*v^(e-1)*right, negated
    when v is odd and left holds an odd number of odd factors.  A lower power
    of v only loses weight, so truncation and caps still hold.
    """
    chart = a.chart
    k = chart.index(name)
    before = [i for i in chart.odd_indices if i < k] if chart.parities[k] else []
    out = {}
    for m, c in a.terms.items():
        e = m[k]
        if e:
            c = e * c if e > 1 else c  # a Fraction product costs a microsecond
            out[m[:k] + (e - 1,) + m[k + 1:]] = -c if sum([m[i] for i in before]) & 1 else c
    return SuperSeries(chart, out, a.order, _checked=True)


def substitute(a: SuperSeries, images: Mapping[str, SuperSeries],
               chart: Chart, order: int) -> SuperSeries:
    """Algebra-morphism extension of a variable substitution.

    The result lives on ``chart`` at filtration ``order``, and so must
    every image.  Every image must be parity-pure and match the parity
    of the variable it replaces.  Variables without an explicit image
    map to the same-named variable on the output chart.  One
    ``_substitute_packed`` call does the work.
    """
    source, terms = a.chart, _terms(a)
    occurring = {i for factors, _, _ in terms for i, _ in factors}
    used = {}  # name -> (image, its terms' common denominator), packed if it occurs
    for i, v in enumerate(source):
        if v.name in images:
            img = images[v.name]
            if img.chart != chart or img.order != order:
                raise ChartMismatch(
                    f"image of {v.name!r} does not live on the output chart")
            if not img.has_parity(v.parity):
                raise ParityError(
                    f"image of {v.name!r} has a component of wrong parity")
            if i in occurring:
                used[v.name] = img, _common_denominator(img.terms.values())

    def run(layout: _Layout) -> SuperSeries:
        packed = {name: (layout.rows(img.terms, den), den) for name, (img, den) in used.items()}
        (acc, den), = _substitute_packed(layout, chart, order, source, [terms], packed)
        return layout.series(chart, acc, den, order)

    return _widening(chart, run)


def _terms(a: SuperSeries) -> list:
    """(nonzero (index, exponent) pairs, numerator, denominator) per term of ``a``."""
    return [([(i, e) for i, e in enumerate(m) if e], c.numerator, c.denominator)
            for m, c in a.terms.items()]


def _substitute_packed(layout: _Layout, chart: Chart, order: int, source: Chart,
                       sources: Sequence[list], images: Mapping[str, tuple],
                       from_right: bool = False) -> list:
    """The packed core of ``substitute``: each source (``_terms`` of a series
    on ``source``) under ``images`` (name -> (rows, their denominator); others
    map to their namesakes on ``chart``) becomes (acc, den), nonzero numerators
    by packed monomial over their least common denominator, so equal sums compare equal.

    The powers of each image are computed once for all the sources.  A term
    c * prod image_i^e_i is built one factor at a time: from its first factor,
    each next image on the right, or ``from_right`` from its last, each next one on
    the left (``_add_products`` signs either).  Each partial product is truncated at
    the order less the sum of ``least(i, e)`` over the factors still to come: e times the
    least row weight of image_i (``order + 1`` if empty), a bound below image_i^e's that
    needs no power of it.  Only terms of three or more factors look it up.
    """
    dens = [images[v.name][1] if v.name in images else 1 for v in source]
    powers: dict = {}  # source index -> [rows of image, of image^2, ...]

    def power(i: int, e: int) -> list:
        """Rows of image_i^e over dens[i]^e; image^2 is a square of even rows."""
        p = powers.get(i)
        if p is None:
            name = source.variables[i].name
            if name in images:
                rows = images[name][0]
            elif name in chart:  # identity, dropped if truncation or a cap forbids it
                k = chart.index(name)
                unit = {(0,) * k + (1,) + (0,) * (len(chart) - k - 1): _ONE}
                rows = layout.rows(unit, 1) if chart.admits_var(k, order) else []
            else:
                raise KeyError(f"variable {name!r} has no image on chart {chart.name!r}")
            p = powers[i] = [rows]
        while len(p) < e:
            acc: dict = {}
            _add_products(acc, p[-1], p[0], order, layout)
            p.append(layout.rows_of(acc))
        return p[e - 1]

    least_weights: dict = {}  # i -> least row weight of image_i, order + 1 if empty

    def least(i: int, e: int) -> int:
        if i not in least_weights:
            rows = power(i, 1)
            least_weights[i] = min(rows)[0] >> layout.weight_shift if rows else order + 1
        return e * least_weights[i]

    out = []
    for terms in sources:
        # c * image_0^e_0 * image_1^e_1 ... over den(c) * prod dens^e
        term_dens = [d * prod([dens[i] ** e for i, e in factors]) for factors, _, d in terms]
        den = lcm(*term_dens)
        acc: dict = {}
        get = acc.get
        for (factors, n, _), d in zip(terms, term_dens):
            n *= den // d
            factors = factors[::-1] if from_right else factors
            # n times the first factor, times each further one; the last
            # product goes straight into acc, and each one before it leaves
            # room for the least weights of the factors still to come
            rows = ([(p, n * k, o) for p, k, o in power(*factors[0])]
                    if factors else [(0, n, 0)])
            for j in range(1, len(factors) - 1):
                part: dict = {}
                image = power(*factors[j])
                _add_products(part, image if from_right else rows, rows if from_right else image,
                              order - sum([least(*f) for f in factors[j + 1:]]), layout)
                rows = layout.rows_of(part)
            if len(factors) < 2:
                for p, k, _ in rows:
                    acc[p] = get(p, 0) + k
            elif rows:
                image = power(*factors[-1])
                _add_products(acc, image if from_right else rows, rows if from_right else image,
                              order, layout)
        g = gcd(den, *acc.values())
        out.append(({p: n // g for p, n in acc.items() if n}, den // g))
    return out


def truncate(a: SuperSeries, n: int) -> SuperSeries:
    """Drop all monomials of momentum/parameter weight > n."""
    if n > a.order:
        raise ValueError(f"cannot extend filtration order {a.order} to {n}")
    return embed(a, a.chart, n)


def truncate_base_degree(a: SuperSeries, n: int) -> SuperSeries:
    """Drop monomials of total degree > n in weight-zero variables."""
    chart = a.chart
    terms = {m: c for m, c in a.terms.items() if chart.mono_base_degree(m) <= n}
    return SuperSeries(chart, terms, a.order, _checked=True)


def set_to_zero(a: SuperSeries, names: Sequence[str]) -> SuperSeries:
    """Evaluate the listed variables at zero (keeps the chart)."""
    zeroed = [0] * len(a.chart)
    for n in names:
        zeroed[a.chart.index(n)] = 1
    terms = {m: c for m, c in a.terms.items() if not any(compress(m, zeroed))}
    return SuperSeries(a.chart, terms, a.order, _checked=True)


def embed(a: SuperSeries, chart: Chart, order: int) -> SuperSeries:
    """Re-express a series on another chart, larger or smaller, by name.

    The one re-charting step: each variable that occurs in a term maps to
    the same-named variable of ``chart`` (``KeyError`` if it has none), and
    terms past ``order`` or a cap of ``chart`` are dropped.  It takes no
    Koszul sign, so odd variables must stand in the same order on both charts.
    """
    source = a.chart
    at = list(map(source._index.get, chart.names, repeat(len(source))))  # a slot, or the 0 after
    missing = list(map(operator.not_, map(chart._index.__contains__, source.names)))
    # terms drop only at a lower order or where a shared variable is heavier or capped lower
    weights, bounds = (*source.weights, inf), (*source.bounds, 0)  # the 0 after: any bound
    keep = (order >= a.order and all(map(operator.le, chart.weights, map(weights.__getitem__, at)))
            and all(map(operator.le, map(bounds.__getitem__, at), chart.bounds)))
    # each monomial in one C call, but an itemgetter of one slot returns no tuple, of none raises
    pick = (operator.itemgetter(*at) if len(at) > 1
            else lambda m: tuple(map(m.__getitem__, at)))
    out: dict = {}
    for m, c in a.terms.items():
        if any(compress(m, missing)):
            v = next(compress(source.variables, map(operator.mul, m, missing)))
            raise KeyError(f"variable {v.name!r} occurs but is not on chart {chart.name!r}")
        mono = pick((*m, 0))
        if keep or chart.admits(mono, order):
            out[mono] = c
    return SuperSeries(chart, out, order, _checked=True)


def shift_down(a: SuperSeries, name: str) -> SuperSeries:
    """Divide by a variable that is an exact factor of every term.

    Only legal for an even variable; used to strip one power of a
    formal parameter off a series all of whose terms carry it.
    """
    i = a.chart.index(name)
    if a.chart.parities[i] != EVEN:
        raise ParityError("shift_down needs an even variable")
    out = {}
    for m, c in a.terms.items():
        if m[i] < 1:
            raise ValueError(f"term without a factor of {name!r}")
        mono = list(m)
        mono[i] -= 1
        out[tuple(mono)] = c
    return SuperSeries(a.chart, out, a.order, _checked=True)
