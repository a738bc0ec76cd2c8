"""Randomized inputs and independent oracles for the test suite.

Everything here is deliberately simple-minded: the oracles recompute
pullbacks by direct substitution (classical case) or by a brute-force
fixed-point iteration written from scratch, so that agreement with the
solver is meaningful evidence rather than a tautology.

The ``suite_*`` functions run seeded verification suites, whose checks are
named residuals; ``cli.SUITES`` holds the defaults that ``mfc verify`` applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .superalg import (
    EVEN,
    ODD,
    Chart,
    SuperSeries,
    Variable,
    embed,
    mul,
    partial,
    set_to_zero,
    substitute,
)
from .morphisms import (
    EPS,
    KIND_EVEN,
    KIND_ODD,
    ClassicalMap,
    ThickMorphism,
    canonical_conjugates,
    combined_chart,
    from_classical,
    mk_thick,
    pullback,
    pullback_chart,
    series_chart,
)
from .superforms import (IDENTIFICATION_CASES, TSTAR, kind_parity, partner,
                         verify_identification)
from .functors import ANTITANGENT, TANGENT, check_functoriality
from .qcalc import check_antitangent_q
from .report import Report


@dataclass
class Generator:
    """Seeded source of random charts, series, maps and morphisms."""
    seed: int = 0
    rng: random.Random = field(init=False)

    def __post_init__(self):
        self.rng = random.Random(self.seed)

    # -- primitives -----------------------------------------------------

    def coefficient(self) -> Fraction:
        num = self.rng.choice([-3, -2, -1, 1, 2, 3])
        den = self.rng.choice([1, 1, 2, 3])
        return Fraction(num, den)

    def chart(self, n_even: int, n_odd: int, name: str = "M",
              stems: Tuple[str, str] = ("x", "xi")) -> Chart:
        evens = [Variable(f"{stems[0]}{i}", EVEN) for i in range(n_even)]
        odds = [Variable(f"{stems[1]}{i}", ODD) for i in range(n_odd)]
        return Chart(name, evens + odds)

    def monomial(self, chart: Chart, max_degree: int,
                 require: Sequence[str] = ()) -> Optional[tuple]:
        """A random canonical exponent tuple, or None on a dead draw."""
        mono = [0] * len(chart)
        for name in require:
            mono[chart.index(name)] += 1
        budget = self.rng.randint(0, max(0, max_degree - sum(mono)))
        for _ in range(budget):
            i = self.rng.randrange(len(chart))
            mono[i] += 1
        for i, v in enumerate(chart.variables):
            if v.cap is not None and mono[i] > v.cap:
                return None
        return tuple(mono)

    def series(self, chart: Chart, order: int, parity: Optional[int] = None,
               n_terms: int = 3, max_degree: int = 2) -> SuperSeries:
        out = SuperSeries.zero(chart, order)
        attempts = 0
        made = 0
        while made < n_terms and attempts < 40 * n_terms:
            attempts += 1
            mono = self.monomial(chart, max_degree)
            if mono is None or chart.mono_weight(mono) > order:
                continue
            if parity is not None and chart.mono_parity(mono) != parity:
                continue
            out = out + SuperSeries(chart, {mono: self.coefficient()}, order)
            made += 1
        return out

    def classical_map(self, source: Chart, target: Chart, order: int) -> ClassicalMap:
        comps = {}
        for v in target:
            s = self.series(source, order, parity=v.parity,
                            n_terms=self.rng.randint(1, 3))
            if s.is_zero() and v.parity == EVEN:
                s = SuperSeries.const(source, self.coefficient(), order)
            comps[v.name] = s
        return ClassicalMap(source, target, comps)

    def generating_function(self, source: Chart, target: Chart, kind: str,
                            order: int, n_terms: int = 4,
                            max_base_degree: int = 2,
                            max_momentum_degree: int = 3) -> SuperSeries:
        """Random S(x; mu): every term carries at least one momentum."""
        chart = combined_chart(source, target, kind)
        momenta = [c.momentum for c in canonical_conjugates(target, kind)]
        want = kind_parity(kind)
        out = SuperSeries.zero(chart, order)
        made = attempts = 0
        while made < n_terms and attempts < 80 * n_terms:
            attempts += 1
            anchor = self.rng.choice(momenta)
            mono = self.monomial(chart, max_base_degree + max_momentum_degree,
                                 require=[anchor])
            if mono is None:
                continue
            if chart.mono_weight(mono) > min(order, max_momentum_degree):
                continue
            if chart.mono_base_degree(mono) > max_base_degree:
                continue
            if chart.mono_parity(mono) != want:
                continue
            out = out + SuperSeries(chart, {mono: self.coefficient()}, order)
            made += 1
        return out

    def thick(self, source: Chart, target: Chart, kind: str, order: int,
              **kwargs) -> Optional[ThickMorphism]:
        """A random thick morphism, or None if the parities admit no
        nonzero generating function within the degree bounds."""
        for _ in range(25):
            s = self.generating_function(source, target, kind, order, **kwargs)
            if not s.is_zero():
                return mk_thick(source, target, kind, s, order)
        return None


# -- independent oracles ------------------------------------------------


def oracle_pullback_classical(phi: ClassicalMap, g: SuperSeries,
                              order: Optional[int] = None) -> SuperSeries:
    """g o phi by direct substitution; shares no code with the solver."""
    if order is None:
        order = g.order
    images = {v.name: phi.components[v.name] for v in phi.target}
    return substitute(g, images, chart=phi.source, order=order)


def oracle_pullback_naive(phi: ThickMorphism, g: SuperSeries,
                          n_eps: int) -> SuperSeries:
    """Brute-force evaluation of the stationary-point formula.

    Re-solves the coupled relation equations by plain re-substitution
    from scratch (no shared solver code), using twice the number of
    sweeps that could possibly be needed, then assembles
    eps*g(w) + S(x; mu) - <w, mu>.  The solver no longer builds these
    three terms (it takes the value from the envelope theorem).
    """
    work = pullback_chart(phi)
    h_chart = series_chart(phi)
    h = mul(SuperSeries.of_var(h_chart, EPS, n_eps), embed(g, h_chart, n_eps))
    x_here = {v.name: SuperSeries.of_var(work, v.name, n_eps)
              for v in phi.source}
    relations = phi.coordinate_relations()
    # start from w = classical image at zero momenta, mu = 0
    momenta = phi.momentum_names()
    w: Dict[str, SuperSeries] = {}
    for c in phi.conjugates:
        w[c.coord] = substitute(set_to_zero(relations[c.coord], momenta), x_here,
                                chart=work, order=n_eps)
    mu = {c.momentum: SuperSeries.zero(work, n_eps) for c in phi.conjugates}
    for _ in range(2 * n_eps):
        mu = {c.momentum: substitute(partial(h, c.coord), w,
                                     chart=work, order=n_eps).scale(c.sign)
              for c in phi.conjugates}
        w = {c.coord: substitute(relations[c.coord], {**x_here, **mu},
                                 chart=work, order=n_eps)
             for c in phi.conjugates}
    out = substitute(h, w, chart=work, order=n_eps)
    out = out + substitute(phi.S, {**x_here, **mu}, chart=work, order=n_eps)
    for c in phi.conjugates:
        out = out - mul(w[c.coord], mu[c.momentum].scale(c.sign))
    return out


def worked_example(order: int = 3) -> ThickMorphism:
    """The worked example S = x q_y + q_y^2 / 2 from M(x) to N(y)."""
    src, tgt = Chart("M", [Variable("x", EVEN)]), Chart("N", [Variable("y", EVEN)])
    chart = combined_chart(src, tgt, KIND_EVEN)
    x, q = (SuperSeries.of_var(chart, n, order) for n in ("x", partner("y", TSTAR)))
    return mk_thick(src, tgt, KIND_EVEN, mul(x, q) + (q ** 2).scale(Fraction(1, 2)), order)


# -- bidimension menu used by the verification suites ---------------------

SMALL_SHAPES: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 1), (0, 1), (2, 1))
IDENT_SHAPES: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 1), (2, 1))


def random_pair_of_morphisms(gen: Generator, kind: str, order: int,
                             max_momentum_degree: int = 3,
                             shapes: Sequence[Tuple[int, int]] = SMALL_SHAPES):
    """A composable (outer, inner) pair over random charts of ``shapes``."""
    while True:
        sa = gen.rng.choice(shapes)
        sb = gen.rng.choice(shapes)
        sc = gen.rng.choice(shapes)
        m1 = gen.chart(*sa, name="A", stems=("x", "xi"))
        m2 = gen.chart(*sb, name="B", stems=("y", "eta"))
        m3 = gen.chart(*sc, name="C", stems=("z", "zeta"))
        inner = gen.thick(m1, m2, kind, order,
                          max_momentum_degree=max_momentum_degree)
        outer = gen.thick(m2, m3, kind, order,
                          max_momentum_degree=max_momentum_degree)
        if inner is not None and outer is not None:
            return outer, inner


def random_morphism(gen: Generator, kind: str, order: int,
                    max_momentum_degree: int = 3,
                    shapes: Sequence[Tuple[int, int]] = SMALL_SHAPES) -> ThickMorphism:
    """A morphism between random charts of ``shapes``."""
    while True:
        sa = gen.rng.choice(shapes)
        sb = gen.rng.choice(shapes)
        src = gen.chart(*sa, name="A", stems=("x", "xi"))
        tgt = gen.chart(*sb, name="B", stems=("y", "eta"))
        phi = gen.thick(src, tgt, kind, order,
                        max_momentum_degree=max_momentum_degree)
        if phi is not None:
            return phi


# -- verification suites ----------------------------------------------------


def suite_identifications(order: int) -> Report:
    report = Report()
    for case in IDENTIFICATION_CASES.values():
        for shape in IDENT_SHAPES:
            gen = Generator(0)
            chart = gen.chart(*shape, name=f"M{shape[0]}{shape[1]}")
            report.include(f"{case.name}:{shape[0]}|{shape[1]}",
                           verify_identification(case, chart, order=order))
    return report


def suite_functoriality(seed: int, trials: int, order: int) -> Report:
    gen = Generator(seed)
    report = Report()
    for i in range(trials):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        outer, inner = random_pair_of_morphisms(gen, kind, order,
                                                max_momentum_degree=2)
        for which in (TANGENT, ANTITANGENT):
            report.include(f"trial{i}:{kind}", check_functoriality(outer, inner, which, order))
    return report


def suite_qmorphism(seed: int, trials: int, order: int) -> Report:
    gen = Generator(seed)
    report = Report()
    for i in range(trials):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        phi = random_morphism(gen, kind, order, max_momentum_degree=2)
        report.include(f"trial{i}:{kind}", check_antitangent_q(phi, order))
    return report


def suite_pullback_props(seed: int, trials: int, order: int) -> Report:
    gen = Generator(seed)
    report = Report()
    for i in range(trials):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        phi = random_morphism(gen, kind, order)
        g = gen.series(phi.target, order, parity=kind_parity(kind), n_terms=3,
                       max_degree=2)
        solver = pullback(phi, g, order)
        oracle = oracle_pullback_naive(phi, g, order)
        report.check_zero(f"trial{i}:{kind}:solver_vs_oracle", solver - oracle)
        # classical reduction: thick pullback of an ordinary map collapses
        # to eps times the substitution oracle
        cmap = gen.classical_map(phi.source, phi.target, order)
        thin = from_classical(cmap, kind, order)
        got = pullback(thin, g, order)
        composed = oracle_pullback_classical(cmap, g, order)
        work = got.chart
        expected = mul(SuperSeries.of_var(work, EPS, order),
                       embed(composed, work, order))
        report.check_zero(f"trial{i}:{kind}:classical_reduction", got - expected)
    return report
