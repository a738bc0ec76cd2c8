"""Supercommutative algebra kernel.

Truncated polynomial/power series over exact rationals on an ordered
chart of even/odd variables.  All products, derivatives and
substitutions apply the Koszul sign rule; odd variables square to zero.
Momentum-class variables (and formal parameters) carry weight 1 and the
series is truncated at a fixed total weight (the filtration order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

_MOMENTUM_ROLES = (ROLE_MOMENTUM, ROLE_ANTIMOMENTUM, ROLE_PARAM)


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

    __slots__ = ("name", "variables", "depth", "_index", "parities",
                 "weights", "caps", "odd_indices")

    def __init__(self, name: str, variables: Iterable[Variable], depth: int = 0):
        self.name = name
        self.variables = tuple(variables)
        self.depth = depth
        self._index = {}
        for i, v in enumerate(self.variables):
            if v.name in self._index:
                raise ValueError(f"duplicate variable {v.name!r} in chart {name!r}")
            self._index[v.name] = i
        self.parities = tuple(v.parity for v in self.variables)
        self.weights = tuple(v.weight for v in self.variables)
        self.caps = tuple(v.cap for v in self.variables)
        self.odd_indices = tuple(i for i, p in enumerate(self.parities) if p == ODD)

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

    def extended(self, name: str, extra: Iterable[Variable], depth: Optional[int] = None) -> "Chart":
        d = self.depth + 1 if depth is None else depth
        return Chart(name, self.variables + tuple(extra), depth=d)

    def mono_parity(self, mono: tuple) -> Parity:
        p = 0
        for i in self.odd_indices:
            p ^= mono[i] & 1
        return p

    def mono_weight(self, mono: tuple) -> int:
        return sum(e * w for e, w in zip(mono, self.weights) if e)

    def mono_base_degree(self, mono: tuple) -> int:
        return sum(e for e, w in zip(mono, self.weights) if w == 0)


def _mul_mono(chart: Chart, m1: tuple, m2: tuple):
    """Merge two canonical monomials; return (monomial, sign) or (None, 0)."""
    sign = 1
    above = 0  # odd factors of m1 strictly to the right of the current slot
    for i in reversed(chart.odd_indices):
        if m2[i]:
            if m1[i]:
                return None, 0
            if above & 1:
                sign = -sign
        if m1[i]:
            above += 1
    out = tuple(a + b for a, b in zip(m1, m2))
    for e, cap in zip(out, chart.caps):
        if cap is not None and e > cap:
            return None, 0
    return out, sign


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
            if not c:
                continue
            if chart.mono_weight(m) > order:
                continue
            drop = False
            for e, cap in zip(m, chart.caps):
                if cap is not None and e > cap:
                    drop = True
                    break
            if drop:
                continue
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
        mono = tuple(1 if j == i else 0 for j in range(len(chart)))
        return cls(chart, {mono: Fraction(1)}, order)

    @classmethod
    def monomial(cls, chart: Chart, exps: Mapping[str, int], coeff, order: int) -> "SuperSeries":
        mono = [0] * len(chart)
        for name, e in exps.items():
            mono[chart.index(name)] = e
        return cls(chart, {tuple(mono): Fraction(coeff)}, order)

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

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(self.chart.variables[i].name)
        return used

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
        if isinstance(other, (int, Fraction)):
            other = SuperSeries.const(self.chart, other, self.order)
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


def mul(a: SuperSeries, b: SuperSeries) -> SuperSeries:
    """Supercommutative product, truncated to the filtration order."""
    a._require_compatible(b)
    chart = a.chart
    order = a.order
    wcache = {m: chart.mono_weight(m) for m in b.terms}
    out: dict = {}
    for m1, c1 in a.terms.items():
        w1 = chart.mono_weight(m1)
        for m2, c2 in b.terms.items():
            if w1 + wcache[m2] > order:
                continue
            mono, sign = _mul_mono(chart, m1, m2)
            if mono is None:
                continue
            c = out.get(mono, Fraction(0)) + sign * c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return SuperSeries(chart, out, order, _checked=True)


def _mono_series(chart: Chart, mono: tuple, order: int) -> SuperSeries:
    return SuperSeries(chart, {mono: Fraction(1)}, order, _checked=True)


def deriv(a: SuperSeries, images: Mapping[str, SuperSeries], parity: Parity) -> SuperSeries:
    """Graded left derivation D of the given parity with D(v) = images[v].

    Variables absent from ``images`` are annihilated.  Images must live
    on ``a``'s chart.
    """
    chart = a.chart
    n = len(chart)
    idx_images = {}
    for name, img in images.items():
        i = chart.index(name)
        if img.chart != chart or img.order != a.order:
            raise ChartMismatch("derivation images must live on the operand chart")
        idx_images[i] = img
    out = SuperSeries.zero(chart, a.order)
    for m, c in a.terms.items():
        prefix_parity = 0
        for k in range(n):
            e = m[k]
            if e:
                img = idx_images.get(k)
                if img is not None and not img.is_zero():
                    left = list(m[:k]) + [0] * (n - k)
                    right = [0] * k + list(m[k:])
                    right[k] = e - 1
                    sign = -1 if (parity and prefix_parity) else 1
                    term = mul(mul(_mono_series(chart, tuple(left), a.order), img),
                               _mono_series(chart, tuple(right), a.order))
                    out = out + term.scale(sign * e * c)
                prefix_parity ^= (e & 1) & chart.parities[k]
    return out


def partial(a: SuperSeries, name: str) -> SuperSeries:
    """Left partial derivative with respect to a chart variable."""
    v = a.chart.var(name)
    one = SuperSeries.const(a.chart, 1, a.order)
    return deriv(a, {v.name: one}, v.parity)


def substitute(a: SuperSeries, images: Mapping[str, SuperSeries],
               chart: Optional[Chart] = None, order: Optional[int] = None) -> SuperSeries:
    """Algebra-morphism extension of a variable substitution.

    Every image must be parity-pure and match the parity of the
    variable it replaces.  Variables without an explicit image map to
    the same-named variable on the output chart.
    """
    if chart is None or order is None:
        for img in images.values():
            chart = img.chart if chart is None else chart
            order = img.order if order is None else order
            break
        if chart is None:
            chart = a.chart
        if order is None:
            order = a.order
    resolved = {}
    for v in a.chart:
        if v.name in images:
            img = images[v.name]
            if img.chart != chart or img.order != order:
                raise ChartMismatch(
                    f"image of {v.name!r} does not live on the output chart")
            if not img.has_parity(v.parity):
                raise ParityError(
                    f"image of {v.name!r} has a component of wrong parity")
            resolved[v.name] = img
        elif v.name in chart:
            resolved[v.name] = SuperSeries.of_var(chart, v.name, order)
        else:
            resolved[v.name] = None  # only legal if a never uses it
    powers: dict = {}

    def power(name: str, e: int) -> SuperSeries:
        key = (name, e)
        if key not in powers:
            img = resolved[name]
            if img is None:
                raise KeyError(
                    f"variable {name!r} has no image on chart {chart.name!r}")
            powers[key] = img ** e
        return powers[key]

    out = SuperSeries.zero(chart, order)
    for m, c in a.terms.items():
        term = SuperSeries.const(chart, c, order)
        for i, e in enumerate(m):
            if e:
                term = mul(term, power(a.chart.variables[i].name, e))
                if term.is_zero():
                    break
        out = out + term
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


def embed(a: SuperSeries, chart: Chart, order: Optional[int] = None) -> SuperSeries:
    """Re-express a series on a larger chart (by variable name)."""
    if order is None:
        order = a.order
    out: dict = {}
    idx = [chart.index(v.name) for v in a.chart]
    n = len(chart)
    for m, c in a.terms.items():
        mono = [0] * n
        for i, e in enumerate(m):
            if e:
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
