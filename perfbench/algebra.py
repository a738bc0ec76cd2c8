"""Oracles and algebra written apart from mfc.

Nothing here imports mfc.  The benchmark checks the program's outputs
with these routines:

- ``quadratic_pullback`` / ``quadratic_compose``: closed forms for
  S = x A q + 1/2 q B q and g = 1/2 y G y in plain Fraction matrices;
- ``EpsSeriesOracle``: the even-only fixed point q = eps dg/dy(y),
  y = dS/dq(x, q), solved at one point x* in arithmetic modulo a prime;
- ``SPoly``: a small supercommutative polynomial type (Koszul signs,
  left derivations) used for the property checks and to read mfc's
  printed output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Matrix = List[List[Fraction]]


# -- Fraction matrices ----------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a: Matrix) -> Matrix:
    return [list(r) for r in zip(*a)]


def quadratic_form(m: Matrix, names: Sequence[str]) -> Dict[Tuple, Fraction]:
    """1/2 v^T M v as {(name, name): coeff} over unordered pairs."""
    out: Dict[Tuple, Fraction] = {}
    n = len(names)
    for i in range(n):
        for j in range(n):
            c = m[i][j] / 2
            if c:
                key = tuple(sorted((names[i], names[j])))
                out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def quadratic_pullback(A: Matrix, B: Matrix, G: Matrix, order: int,
                       xs: Sequence[str]) -> Dict[Tuple, Fraction]:
    """Pullback of g = 1/2 yGy through S = xAq + 1/2 qBq, to eps^order.

    The stationary point gives 1/2 eps x^T A (sum_k (eps G B)^k) G A^T x,
    so the eps^k coefficient is 1/2 x^T A (GB)^(k-1) G A^T x.  Keys are
    ``(k, name, name)`` with the two names sorted.
    """
    out: Dict[Tuple, Fraction] = {}
    gb = mat_mul(G, B)
    power = [[Fraction(int(i == j)) for j in range(len(G))] for i in range(len(G))]
    At = transpose(A)
    for k in range(1, order + 1):
        mk = mat_mul(mat_mul(mat_mul(A, power), G), At)
        for pair, c in quadratic_form(mk, xs).items():
            out[(k,) + pair] = c
        power = mat_mul(power, gb)
    return out


def quadratic_compose(A1: Matrix, B1: Matrix, A2: Matrix, B2: Matrix):
    """Composite of two quadratic generating functions: (A1 A2, A2^T B1 A2 + B2)."""
    return mat_mul(A1, A2), mat_add(mat_mul(mat_mul(transpose(A2), B1), A2), B2)


# -- even-only fixed point, modulo a prime ----------------------------------

PRIME = (1 << 61) - 1


def mod(c: Fraction) -> int:
    return c.numerator % PRIME * pow(c.denominator % PRIME, -1, PRIME) % PRIME


class EpsSeriesOracle:
    """Even-only pullback at a point, as a truncated series in eps.

    ``S`` maps (x exponents + q exponents) to coefficients, ``g`` maps
    y exponents to coefficients; every variable is even.  Fixing x at
    ``point`` turns S into a polynomial in q, and the fixed point of
    q = eps dg/dy(y), y = dS/dq(x*, q) gains one eps order per sweep.
    All arithmetic is modulo ``PRIME``: equal results at a random point
    of a 2^61 field stand for equal polynomials (Schwartz-Zippel).
    """

    def __init__(self, S: Dict[tuple, Fraction], g: Dict[tuple, Fraction],
                 n: int, order: int, point: Sequence[int]):
        self.n = n
        self.order = order
        sx: Dict[tuple, int] = {}
        for mono, c in S.items():
            v = mod(c)
            for e, x in zip(mono[:n], point):
                v = v * pow(x, e, PRIME) % PRIME
            key = mono[n:]
            sx[key] = (sx.get(key, 0) + v) % PRIME
        self.S = sx
        self.g = {m: mod(c) for m, c in g.items()}

    def _mul(self, a: List[int], b: List[int]) -> List[int]:
        out = [0] * (self.order + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(self.order + 1 - i):
                    out[i + j] = (out[i + j] + x * b[j]) % PRIME
        return out

    def _eval(self, poly: Dict[tuple, int], args: List[List[int]]) -> List[int]:
        out = [0] * (self.order + 1)
        for mono, c in poly.items():
            term = [c] + [0] * self.order
            for e, s in zip(mono, args):
                for _ in range(e):
                    term = self._mul(term, s)
            out = [(x + y) % PRIME for x, y in zip(out, term)]
        return out

    @staticmethod
    def _diff(poly: Dict[tuple, int], i: int) -> Dict[tuple, int]:
        out = {}
        for mono, c in poly.items():
            if mono[i]:
                m = list(mono)
                m[i] -= 1
                out[tuple(m)] = c * mono[i] % PRIME
        return out

    def solve(self) -> List[int]:
        n, order = self.n, self.order
        dS = [self._diff(self.S, j) for j in range(n)]
        dg = [self._diff(self.g, j) for j in range(n)]
        zero = [0] * (order + 1)
        q = [zero] * n
        y = [zero] * n
        for _ in range(order + 1):
            y = [self._eval(dS[j], q) for j in range(n)]
            q = [[0] + self._eval(dg[j], y)[:order] for j in range(n)]
        out = [0] + self._eval(self.g, y)[:order]
        out = [(a + b) % PRIME for a, b in zip(out, self._eval(self.S, q))]
        for j in range(n):
            out = [(a - b) % PRIME for a, b in zip(out, self._mul(y[j], q[j]))]
        return out


def eval_at_point(terms: Dict[tuple, Fraction], names: Sequence[str], eps: str,
                  point: Dict[str, int], order: int) -> List[int]:
    """A series in eps and the point's variables, evaluated modulo PRIME."""
    out = [0] * (order + 1)
    for mono, c in terms.items():
        v = mod(c)
        k = 0
        for name, e in zip(names, mono):
            if not e:
                continue
            if name == eps:
                k = e
            else:
                v = v * pow(point[name], e, PRIME) % PRIME
        out[k] = (out[k] + v) % PRIME
    return out


# -- supercommutative polynomials ----------------------------------------


class SPoly:
    """Polynomial on an ordered list of named even/odd variables.

    Terms map exponent tuples (variables in list order, odd exponents
    0 or 1) to Fractions.  A monomial is canonical when its factors
    follow the list order; reordering costs the Koszul sign.
    """

    __slots__ = ("names", "parities", "terms", "_index")

    def __init__(self, names: Sequence[str], parities: Sequence[int],
                 terms: Dict[tuple, Fraction]):
        self.names = tuple(names)
        self.parities = tuple(parities)
        self._index = {n: i for i, n in enumerate(self.names)}
        self.terms = {m: Fraction(c) for m, c in terms.items() if c}

    @classmethod
    def from_factors(cls, names: Sequence[str], parities: Sequence[int],
                     terms: Dict[tuple, Fraction]) -> "SPoly":
        """From {tuple of factor names, in any order: coeff}."""
        zero = cls(names, parities, {})
        out: Dict[tuple, Fraction] = {}
        for factors, c in terms.items():
            canon = zero._canonical([zero._index[f] for f in factors])
            if canon is not None:
                exps, sign = canon
                out[exps] = out.get(exps, Fraction(0)) + sign * c
        return zero.like(out)

    def like(self, terms) -> "SPoly":
        return SPoly(self.names, self.parities, terms)

    def _canonical(self, factors: List[int]):
        """Sort a factor sequence into list order; (exponents, sign) or None."""
        sign = 1
        odd = [f for f in factors if self.parities[f]]
        if len(set(odd)) < len(odd):
            return None
        for a in range(len(odd)):
            for b in range(a + 1, len(odd)):
                if odd[a] > odd[b]:
                    sign = -sign
        exps = [0] * len(self.names)
        for f in factors:
            exps[f] += 1
        return tuple(exps), sign

    def factors(self, mono: tuple) -> List[int]:
        out = []
        for i, e in enumerate(mono):
            out.extend([i] * e)
        return out

    def derive(self, image: Dict[str, Tuple[str, int]], odd: bool) -> "SPoly":
        """Left derivation D with D(v) = sign * w for ``image[v] = (w, sign)``."""
        out: Dict[tuple, Fraction] = {}
        for mono, c in self.terms.items():
            fs = self.factors(mono)
            prefix_parity = 0
            for k, f in enumerate(fs):
                name = self.names[f]
                if name in image:
                    w, s = image[name]
                    new = fs[:k] + [self._index[w]] + fs[k + 1:]
                    canon = self._canonical(new)
                    if canon is not None:
                        exps, sign = canon
                        if odd and prefix_parity:
                            sign = -sign
                        out[exps] = out.get(exps, Fraction(0)) + sign * s * c
                prefix_parity ^= self.parities[f]
        return self.like(out)

    def __add__(self, other: "SPoly") -> "SPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return self.like(out)

    def __mul__(self, other: "SPoly") -> "SPoly":
        out: Dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                canon = self._canonical(self.factors(m1) + self.factors(m2))
                if canon is not None:
                    exps, sign = canon
                    out[exps] = out.get(exps, Fraction(0)) + sign * c1 * c2
        return self.like(out)

    def var(self, name: str) -> "SPoly":
        mono = [0] * len(self.names)
        mono[self._index[name]] = 1
        return self.like({tuple(mono): Fraction(1)})


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse_printed(text: str, names: Sequence[str], parities: Sequence[int]) -> SPoly:
    """Read a printed series such as ``-2/3*x*q_y^2 + eps`` into an SPoly.

    Factors may come in any order; they are sorted with the Koszul sign
    of the given variable list.
    """
    terms: Dict[tuple, Fraction] = {}
    text = text.strip()
    pos = 0
    while text != "0" and pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        pos = m.end()
        coeff = Fraction(-1 if m.group(1) == "-" else 1)
        factors: List[str] = []
        for piece in m.group(2).strip().split("*"):
            base, _, power = piece.partition("^")
            if base[0].isdigit():
                coeff *= Fraction(base)
            else:
                factors.extend([base] * int(power or 1))
        terms[tuple(factors)] = terms.get(tuple(factors), Fraction(0)) + coeff
    return SPoly.from_factors(names, parities, terms)
