"""Supercommutative algebra kernel.

Truncated polynomial/power series over exact rationals on an ordered
chart of even/odd variables.  All products, derivatives and
substitutions apply the Koszul sign rule; odd variables square to zero.
Momentum-class variables (and formal parameters) carry weight 1 and the
series is truncated at a fixed total weight (the filtration order).

Coefficients are stored as ``Fraction``s.  ``mul`` and ``substitute``
work in integer rows: they sum integer numerators over a common
denominator, and each output term becomes a ``Fraction`` once.  ``partial``
and ``deriv`` shift exponents term by term: ``partial`` lowers one on the
``Fraction``s, and ``deriv``, whose images are chart variables, lowers one
and raises another, summing numerators over the operand's denominator.  Every
intermediate of a substitution (image powers, partial products of a
monomial's factors) stays in that integer form, and ``substitute_all``
substitutes several series under one image map with one shared table of
image powers.  Only even variables reach an exponent of 2, and their images
are even, so the table squares each image over its unordered pairs of rows.
Weights only add up, so a partial product of a term's factors stops at the
order less the least weights of the factors still to come.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def flip(p: Parity) -> Parity:
    return p ^ 1


@dataclass(frozen=True)
class Variable:
    """A named coordinate with parity, role and filtration weight.

    ``base`` records the coordinate a derived variable (velocity,
    momentum, ...) came from.  ``max_power`` is an optional nilpotency
    cap for even formal parameters (odd variables are capped at 1
    implicitly).
    """

    name: str
    parity: Parity
    role: str = ROLE_BASE
    weight: int = 0
    base: Optional[str] = None
    max_power: Optional[int] = None

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ParityError(f"bad parity for {self.name!r}: {self.parity}")
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")

    @property
    def cap(self) -> Optional[int]:
        if self.parity == ODD:
            return 1
        return self.max_power


class Chart:
    """An ordered, named registry of variables.

    The registry order is total and defines the canonical monomial
    form: factors of a monomial are always listed in chart order and
    reordering costs the Koszul sign.
    """

    __slots__ = ("name", "variables", "_index", "parities",
                 "weights", "caps", "odd_indices", "even_caps", "capped")

    def __init__(self, name: str, variables: Iterable[Variable]):
        self.name = name
        self.variables = tuple(variables)
        self._index = {}
        for i, v in enumerate(self.variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable {v.name!r} in chart {name!r}")
            self._index[v.name] = i
        self.parities = tuple(v.parity for v in self.variables)
        self.weights = tuple(v.weight for v in self.variables)
        self.caps = tuple(v.cap for v in self.variables)
        self.odd_indices = tuple(i for i, p in enumerate(self.parities) if p == ODD)
        # (index, max_power) of capped even variables; odd caps are masks
        self.even_caps = tuple((i, v.max_power) for i, v in enumerate(self.variables)
                               if v.parity == EVEN and v.max_power is not None)
        self.capped = tuple((i, cap) for i, cap in enumerate(self.caps) if cap is not None)

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

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        names = ", ".join(v.name for v in self.variables)
        return f"Chart({self.name!r}: {names})"

    def extended(self, name: str, extra: Iterable[Variable]) -> "Chart":
        return Chart(name, self.variables + tuple(extra))

    def mono_parity(self, mono: tuple) -> Parity:
        p = 0
        for i in self.odd_indices:
            p ^= mono[i] & 1
        return p

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
        if _checked:
            self.terms = dict(terms)
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
        value = Fraction(value)
        if not value:
            return cls.zero(chart, order)
        return cls(chart, {(0,) * len(chart): value}, order, _checked=True)

    @classmethod
    def of_var(cls, chart: Chart, name: str, order: int) -> "SuperSeries":
        i = chart.index(name)
        mono = (0,) * i + (1,) + (0,) * (len(chart) - i - 1)
        terms = {mono: _ONE} if chart.admits(mono, order) else {}
        return cls(chart, terms, order, _checked=True)

    @classmethod
    def monomial(cls, chart: Chart, exps: Mapping[str, int], coeff, order: int) -> "SuperSeries":
        mono = [0] * len(chart)
        for name, e in exps.items():
            mono[chart.index(name)] = e
        mono = tuple(mono)
        coeff = Fraction(coeff)
        terms = {mono: coeff} if coeff and chart.admits(mono, order) else {}
        return cls(chart, terms, order, _checked=True)

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
        return all(self.chart.mono_parity(m) == p for m in self.terms)

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
        self._require_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SuperSeries(self.chart, out, self.order, _checked=True)

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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
#
# Inside an operation a series is handled as integer rows: its
# coefficients over their lcm denominator, each numerator with its
# monomial's weight and odd mask (bit i set when odd variable i occurs).


def _common_denominator(coeffs: Iterable[Fraction]) -> int:
    return lcm(*[c.denominator for c in coeffs])


def _numerators(terms: Mapping[tuple, Fraction], den: int) -> Iterable:
    """(monomial, numerator over ``den``) per term."""
    return ((m, c.numerator * (den // c.denominator)) for m, c in terms.items())


def _rows(chart: Chart, numerators: Iterable) -> list:
    """(monomial, numerator, weight, odd mask) per nonzero numerator."""
    weights, odd, times = chart.weights, chart.odd_indices, operator.mul
    return [(m, n, sum(map(times, m, weights)),
             sum([m[i] << i for i in odd]) if odd else 0)
            for m, n in numerators if n]


def _add_products(acc: dict, rows_a: list, rows_b: list, order: int,
                  caps: tuple) -> None:
    """acc[m1*m2] += sign*n1*n2 for every pair of rows the truncation keeps.

    Handed one list twice (only ``power``'s image^2 step does so), it squares:
    row j times itself, then each later row k with 2*n_k.  That needs even
    rows, whose pairs (j, k) and (k, j) make one monomial with one sign;
    ``mul(a, a)`` builds two lists, so an odd a*a still cancels.
    """
    get = acc.get
    add = operator.add
    twice = [(m, n << 1, w, o) for m, n, w, o in rows_b] if rows_a is rows_b else None
    for j, (m1, n1, w1, o1) in enumerate(rows_a):
        room = order - w1
        for m2, n2, w2, o2 in ([rows_a[j], *twice[j + 1:]] if twice is not None else rows_b):
            if w2 > room or o1 & o2:  # too heavy, or an odd variable squared
                continue
            mono = tuple(map(add, m1, m2))
            if caps and any(mono[i] > cap for i, cap in caps):
                continue
            n = n1 * n2
            # Koszul sign: each odd factor of m2 moves left past the odd
            # factors of m1 that stand after it in chart order.
            while o2:
                low = o2 & -o2
                if (o1 >> low.bit_length()).bit_count() & 1:
                    n = -n
                o2 ^= low
            acc[mono] = get(mono, 0) + n


def _from_numerators(chart: Chart, acc: dict, den: int, order: int) -> SuperSeries:
    return SuperSeries(chart, {m: Fraction(n, den) for m, n in acc.items() if n},
                       order, _checked=True)


def mul(a: SuperSeries, b: SuperSeries) -> SuperSeries:
    """Supercommutative product, truncated to the filtration order."""
    a._require_compatible(b)
    chart = a.chart
    da = _common_denominator(a.terms.values())
    db = _common_denominator(b.terms.values())
    acc: dict = {}
    _add_products(acc, _rows(chart, _numerators(a.terms, da)),
                  _rows(chart, _numerators(b.terms, db)),
                  a.order, chart.even_caps)
    return _from_numerators(chart, acc, da * db, a.order)


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
    shifts = []  # (k, t, sign, odd w, flips, may be cut) per image
    for name, (target, sign) in images.items():
        k, t = chart.index(name), chart.index(target)
        odd = chart.parities[t]
        if odd != chart.parities[k] ^ parity:
            raise ParityError(f"image of {name!r} has the wrong parity")
        # flips: the odd factors w passes (strictly between v and w) and D passes (before v)
        between = (1 << max(k, t)) - (2 << min(k, t)) if odd and k != t else 0
        cut = chart.weights[t] > chart.weights[k] or not odd and chart.caps[t] is not None
        shifts.append((k, t, sign, odd, between ^ ((1 << k) - 1 if parity else 0), cut))
    den = _common_denominator(a.terms.values())
    acc: dict = {}
    for m, c in a.terms.items():
        n = c.numerator * (den // c.denominator)
        o = sum([m[i] << i for i in chart.odd_indices])
        for k, t, sign, odd, flips, cut in shifts:
            e = m[k]
            if not e:
                continue
            mono = list(m)
            mono[k] = e - 1
            if odd and mono[t]:
                continue
            mono[t] += 1
            mono = tuple(mono)
            if not cut or chart.admits(mono, a.order):
                acc[mono] = acc.get(mono, 0) + (-e if (o & flips).bit_count() & 1 else e) * sign * n
    return _from_numerators(chart, acc, den, a.order)


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
    map to the same-named variable on the output chart.
    """
    return substitute_all([a], images, chart, order)[0]


def substitute_all(series: Sequence[SuperSeries], images: Mapping[str, SuperSeries],
                   chart: Chart, order: int) -> list:
    """``substitute`` of each series, all on one chart, under one image map.

    The powers of each image are computed once for all the series.  A term
    c * prod image_i^e_i is built one factor at a time in chart order, each
    partial product truncated at the order less the sum of ``least(i, e)``
    over the later factors: e times the least row weight of image_i (``order
    + 1`` if empty), a bound below image_i^e's that needs no power of it.
    Only terms of three or more factors look it up.
    """
    if not series:
        return []
    source = series[0].chart
    if any(a.chart != source for a in series):
        raise ChartMismatch("substituted series must share one chart")
    # Source variable i maps to integer rows over dens[i]: the image's
    # terms over their common denominator, or one identity row over 1.
    dens = []
    for v in source:
        den = 1
        if v.name in images:
            img = images[v.name]
            if img.chart != chart or img.order != order:
                raise ChartMismatch(
                    f"image of {v.name!r} does not live on the output chart")
            if not img.has_parity(v.parity):
                raise ParityError(
                    f"image of {v.name!r} has a component of wrong parity")
            den = _common_denominator(img.terms.values())
        dens.append(den)
    caps = chart.even_caps
    powers: dict = {}  # source index -> [rows of image, of image^2, ...]

    def power(i: int, e: int) -> list:
        """Rows of image_i^e over dens[i]^e; image^2 is a square of even rows."""
        p = powers.get(i)
        if p is None:
            name = source.variables[i].name
            if name in images:
                rows = _rows(chart, _numerators(images[name].terms, dens[i]))
            elif name in chart:  # identity, dropped if truncation or a cap forbids it
                rows = _rows(chart, _numerators(SuperSeries.of_var(chart, name, order).terms, 1))
            else:
                raise KeyError(f"variable {name!r} has no image on chart {chart.name!r}")
            p = powers[i] = [rows]
        while len(p) < e:
            acc: dict = {}
            _add_products(acc, p[-1], p[0], order, caps)
            p.append(_rows(chart, acc.items()))
        return p[e - 1]

    least_weights: dict = {}  # i -> least row weight of image_i, order + 1 if empty

    def least(i: int, e: int) -> int:
        if i not in least_weights:
            least_weights[i] = min([r[2] for r in power(i, 1)], default=order + 1)
        return e * least_weights[i]

    out = []
    unit = (0,) * len(chart)
    for a in series:
        # term m*c becomes c * image_0^e_0 * image_1^e_1 ... over den(c) * prod dens^e
        term_dens = []
        for m, c in a.terms.items():
            d = c.denominator
            for i, e in enumerate(m):
                if e:
                    d *= dens[i] ** e
            term_dens.append(d)
        den = lcm(*term_dens)
        acc: dict = {}
        get = acc.get
        for (m, c), d in zip(a.terms.items(), term_dens):
            n = c.numerator * (den // d)
            factors = [(i, e) for i, e in enumerate(m) if e]
            # n times the first factor, times each further one in chart
            # order; the last product goes straight into acc, and each one
            # before it leaves room for the least weights of the later factors
            rows = ([(mono, n * k, w, o) for mono, k, w, o in power(*factors[0])]
                    if factors else [(unit, n, 0, 0)])
            for j in range(1, len(factors) - 1):
                if not rows:
                    break
                part: dict = {}
                _add_products(part, rows, power(*factors[j]),
                              order - sum([least(*f) for f in factors[j + 1:]]), caps)
                rows = _rows(chart, part.items())
            if len(factors) < 2:
                for mono, k, _, _ in rows:
                    acc[mono] = get(mono, 0) + k
            elif rows:
                _add_products(acc, rows, power(*factors[-1]), order, caps)
        out.append(_from_numerators(chart, acc, den, order))
    return out


def truncate(a: SuperSeries, n: int) -> SuperSeries:
    """Drop all monomials of momentum/parameter weight > n."""
    if n > a.order:
        raise ValueError(f"cannot extend filtration order {a.order} to {n}")
    chart = a.chart
    terms = {m: c for m, c in a.terms.items() if chart.mono_weight(m) <= n}
    return SuperSeries(chart, terms, n, _checked=True)


def truncate_base_degree(a: SuperSeries, n: int) -> SuperSeries:
    """Drop monomials of total degree > n in weight-zero variables."""
    chart = a.chart
    terms = {m: c for m, c in a.terms.items() if chart.mono_base_degree(m) <= n}
    return SuperSeries(chart, terms, a.order, _checked=True)


def set_to_zero(a: SuperSeries, names: Sequence[str]) -> SuperSeries:
    """Evaluate the listed variables at zero (keeps the chart)."""
    idxs = [a.chart.index(n) for n in names]
    terms = {m: c for m, c in a.terms.items() if not any(m[i] for i in idxs)}
    return SuperSeries(a.chart, terms, a.order, _checked=True)


def embed(a: SuperSeries, chart: Chart, order: int) -> SuperSeries:
    """Re-express a series on another chart, larger or smaller, by name.

    The one re-charting step: each variable that occurs in a term maps to
    the same-named variable of ``chart`` (``KeyError`` if it has none), and
    terms past ``order`` or a cap of ``chart`` are dropped.  It takes no
    Koszul sign, so odd variables must stand in the same order on both charts.
    """
    idx = [chart._index.get(v.name) for v in a.chart]
    n = len(chart)
    out: dict = {}
    for m, c in a.terms.items():
        mono = [0] * n
        for i, e in enumerate(m):
            if e:
                if idx[i] is None:
                    raise KeyError(f"variable {a.chart.variables[i].name!r} occurs "
                                   f"but is not on chart {chart.name!r}")
                mono[idx[i]] = e
        out[tuple(mono)] = c
    return SuperSeries(chart, out, order)


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
