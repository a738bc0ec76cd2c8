"""eps-depth: pullbacks of long, dense eps-series in 1 to 3 even variables.

No odd variable appears, so Koszul signs, deriv-heavy lifts and parsing
sit idle: the time goes to per-term-pair arithmetic in ``mul``, Fraction
growth and the solver's sweeps.  Quadratic cases are checked against
the closed form, cubic ones against the even-only fixed point at a
random point modulo a prime.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List

from algebra import PRIME, EpsSeriesOracle, eval_at_point, quadratic_pullback
from jobs import Job, Workload, bump, coeff, matrix, plain, series_from

# name, coordinates, eps-order, shape, jobs per pass.  The light class
# runs several times a pass so that its median rests on enough samples.
CLASSES = (
    ("quad1-o6", 1, 6, "quad", 4),
    ("quad2-o9", 2, 9, "quad", 1),
    ("quad3-o7", 3, 7, "quad", 1),
    ("golden-o12", 1, 12, "golden", 1),
    ("cubic1-o8", 1, 8, "cubic", 1),
    ("cubic2-o7", 2, 7, "cubic", 1),
)
HEAVY = "cubic2-o7"
LIGHT = "quad1-o6"


def _half_form(M, names) -> Dict[tuple, Fraction]:
    """1/2 v^T M v for a symmetric M."""
    n = len(names)
    terms = {}
    for i in range(n):
        terms[(names[i], names[i])] = M[i][i] / 2
        for j in range(i + 1, n):
            terms[(names[i], names[j])] = M[i][j]
    return terms


def _exponents(terms: Dict[tuple, Fraction], names: List[str]) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for factors, c in terms.items():
        mono = tuple(factors.count(n) for n in names)
        out[mono] = out.get(mono, Fraction(0)) + c
    return out


def _case(api, rng: random.Random, n: int, order: int, shape: str):
    """Morphism, function and the check of its pullback."""
    sa = api.superalg
    xs = [f"x{i}" for i in range(n)]
    ys = [f"y{i}" for i in range(n)]
    qs = ["q_" + y for y in ys]
    src = sa.Chart("M", [sa.Variable(x, sa.EVEN) for x in xs])
    tgt = sa.Chart("N", [sa.Variable(y, sa.EVEN) for y in ys])
    kind = api.morphisms.KIND_EVEN
    if shape == "golden":
        A, B, G = None, None, None
        S = {("x0", "q_y0"): Fraction(1), ("q_y0", "q_y0"): Fraction(1, 2),
             ("q_y0", "q_y0", "q_y0"): Fraction(1, 3)}
        g = {("y0", "y0"): coeff(rng)}
    else:
        A, B, G = matrix(rng, n), matrix(rng, n, True), matrix(rng, n, True)
        S = {(xs[i], qs[j]): A[i][j] for i in range(n) for j in range(n)}
        S.update(_half_form(B, qs))
        g = _half_form(G, ys)
        if shape == "cubic":
            S[(qs[0],) * 3] = coeff(rng)
            S[(xs[0], qs[0], qs[-1])] = coeff(rng)
            if n == 1:
                g[("y0",) * 3] = coeff(rng)
            else:
                S[(qs[0], qs[-1], qs[-1])] = coeff(rng)
    chart = api.morphisms.combined_chart(src, tgt, kind)
    phi = api.morphisms.mk_thick(src, tgt, kind, series_from(api, chart, order, S), order)
    g_series = series_from(api, tgt, order, g)
    point = {x: rng.randrange(1, PRIME) for x in xs}

    def check(snapshot) -> bool:
        names, _, terms = snapshot
        if names != ("eps",) + tuple(xs) or len(terms) < order:
            return False
        if shape == "quad":
            got = {(m[0],) + tuple(sorted(nm for nm, e in zip(names[1:], m[1:])
                                          for _ in range(e))): c
                   for m, c in terms.items() if c}
            return got == quadratic_pullback(A, B, G, order, xs)
        oracle = EpsSeriesOracle(_exponents(S, xs + qs), _exponents(g, ys), n, order,
                                 [point[x] for x in xs])
        return eval_at_point(terms, names, "eps", point, order) == oracle.solve()

    return (lambda: api.morphisms.pullback(phi, g_series, order)), check


def build(api, rng: random.Random, pass_no: int, state: Dict) -> List[Job]:
    jobs = []
    for name, n, order, shape, count in CLASSES:
        for _ in range(count):
            run, check = _case(api, rng, n, order, shape)
            jobs.append(Job(name, run, lambda out, c=check: c(plain(out)),
                            control=lambda out, c=check: c(bump(plain(out)))))
    return jobs


WORKLOAD = Workload("eps-depth", HEAVY, LIGHT, trace_passes=2, build=build)
