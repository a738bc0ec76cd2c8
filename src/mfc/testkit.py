"""Randomized inputs and independent oracles for the test suite.

Everything here is deliberately simple-minded: the oracles recompute
pullbacks by direct substitution (classical case), and one brute-force
fixed-point iteration, ``oracle_eliminate``, recomputes both thick
eliminations, a pullback's and a composite's.  An ordinary map is a
``ClassicalMap`` here (``from_classical`` makes its thick morphism
S = phi^i(x) q_i), and its ``compose``, by substitution, is an oracle for
``morphisms.compose`` on such maps.  The thick oracle shares one thing with
the solver, the relations of ``ThickMorphism.coordinate_relations``; it
values the action at its own point where the solver uses the envelope
theorem, so a relation error that changes its result makes them disagree.

The ``suite_*`` functions run seeded verification suites, whose checks are
named residuals; ``cli.SUITES`` holds the defaults that ``mfc verify`` applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Tuple

from .superalg import (
    EVEN,
    ODD,
    Chart,
    ParityError,
    SuperSeries,
    Variable,
    embed,
    mul,
    partial,
    substitute,
)
from .morphisms import (
    EPS,
    KIND_EVEN,
    KIND_ODD,
    MorphismError,
    ThickMorphism,
    canonical_conjugates,
    combined_chart,
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

MAX_BASE_DEGREE = 2  # base coordinates, with multiplicity, in a random generating function's term


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
        if any(mono[i] > cap for i, cap in chart.capped):
            return None
        return tuple(mono)

    def _terms(self, chart: Chart, order: int, n_terms: int, attempts: int,
               max_degree: int, keep, anchors: Optional[Sequence[str]] = None) -> SuperSeries:
        """Up to ``n_terms`` random terms whose monomials pass ``keep``, in at
        most ``attempts`` draws; with ``anchors``, each draw holds one of them."""
        terms, made = {}, 0
        for _ in range(attempts):
            if made == n_terms:
                break
            require = () if anchors is None else [self.rng.choice(anchors)]
            mono = self.monomial(chart, max_degree, require)
            if mono is not None and keep(mono):
                terms[mono] = terms.get(mono, 0) + self.coefficient()
                made += 1
        return SuperSeries(chart, terms, order)

    def series(self, chart: Chart, order: int, parity: Optional[int] = None,
               n_terms: int = 3, max_degree: int = 2) -> SuperSeries:
        keep = lambda m: (chart.mono_weight(m) <= order
                          and (parity is None or chart.mono_parity(m) == parity))
        return self._terms(chart, order, n_terms, 40 * n_terms, max_degree, keep)

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
                            max_momentum_degree: int = 3) -> SuperSeries:
        """Random S(x; mu): every term carries at least one momentum."""
        chart = combined_chart(source, target, kind)
        momenta = [c.momentum for c in canonical_conjugates(target, kind)]
        want = kind_parity(kind)
        keep = lambda m: (chart.mono_weight(m) <= min(order, max_momentum_degree)
                          and chart.mono_base_degree(m) <= MAX_BASE_DEGREE
                          and chart.mono_parity(m) == want)
        return self._terms(chart, order, n_terms, 80 * n_terms,
                           MAX_BASE_DEGREE + max_momentum_degree, keep, momenta)

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


@dataclass(frozen=True)
class ClassicalMap:
    """An ordinary map, one source-chart series per target coordinate."""
    source: Chart
    target: Chart
    components: Mapping[str, SuperSeries]

    def __post_init__(self):
        for v in self.target:
            comp = self.components[v.name]
            if not comp.has_parity(v.parity):
                raise ParityError(f"component for {v.name!r} has wrong parity")

    def compose(self, inner: "ClassicalMap", order: int) -> "ClassicalMap":
        images = {w.name: inner.components[w.name] for w in self.source}
        comps = {name: substitute(comp, images, chart=inner.source, order=order)
                 for name, comp in self.components.items()}
        return ClassicalMap(inner.source, self.target, comps)


def identity_map(chart: Chart, order: int) -> ClassicalMap:
    return ClassicalMap(chart, chart,
                        {v.name: SuperSeries.of_var(chart, v.name, order)
                         for v in chart})


def from_classical(phi: ClassicalMap, kind: str, order: int) -> ThickMorphism:
    """S = phi^i(x) q_i (even kind) or phi^i(x) ys_i (odd kind)."""
    chart = combined_chart(phi.source, phi.target, kind)
    S = SuperSeries.zero(chart, order)
    for c in canonical_conjugates(phi.target, kind):
        comp = embed(phi.components[c.coord], chart, order)
        S = S + mul(comp, SuperSeries.of_var(chart, c.momentum, order))
    return mk_thick(phi.source, phi.target, kind, S, order)


def oracle_pullback_classical(phi: ClassicalMap, g: SuperSeries,
                              order: Optional[int] = None) -> SuperSeries:
    """g o phi by direct substitution; shares no code with the solver."""
    if order is None:
        order = g.order
    images = {v.name: phi.components[v.name] for v in phi.target}
    return substitute(g, images, chart=phi.source, order=order)


def oracle_eliminate(phi: ThickMorphism, h: SuperSeries, work: Chart,
                     order: int) -> SuperSeries:
    """Brute-force stationary value of h(w) + S(x; mu) - <w, mu>.

    ``h`` is a pullback's eps*g or a compose's outer S: it lives on the
    target coordinates plus variables that map by name onto ``work``, and
    its coordinate-dependent terms carry weight.  Re-solves the coupled
    relation equations by plain re-substitution until a sweep leaves w and
    mu unchanged, and raises if that takes more than ``order + 1`` sweeps;
    then it assembles h(w) + S(x; mu) - <w, mu>.  It shares the relations
    (``phi.coordinate_relations()``) with the solver, but not the sweeps or
    the value: the solver takes the value from the envelope theorem, which
    holds only at a true stationary point of this action.
    """
    relations = phi.coordinate_relations()
    solve = lambda mu: {coord: substitute(rel, mu, chart=work, order=order)
                        for coord, rel in relations.items()}
    # start from mu = 0 and w = the classical image at zero momenta
    mu = {m: SuperSeries.zero(work, order) for m in phi.momentum_names()}
    w = solve(mu)
    # the coordinate-dependent terms of h have weight >= 1, so each sweep
    # makes mu, and then w, exact through one more weight: ``order`` sweeps
    # reach the fixed point and the next one changes nothing
    for _ in range(order + 1):
        new_mu = {c.momentum: substitute(partial(h, c.coord), w,
                                         chart=work, order=order).scale(c.sign)
                  for c in phi.conjugates}
        new_w = solve(new_mu)
        if new_mu == mu and new_w == w:
            break
        mu, w = new_mu, new_w
    else:
        raise MorphismError(f"naive sweeps still moving after {order + 1} sweeps")
    out = substitute(h, w, chart=work, order=order)
    out = out + substitute(phi.S, mu, chart=work, order=order)
    for c in phi.conjugates:
        out = out - mul(w[c.coord], mu[c.momentum].scale(c.sign))
    return out


def oracle_pullback_naive(phi: ThickMorphism, g: SuperSeries,
                          n_eps: int) -> SuperSeries:
    """The pullback of g: ``oracle_eliminate`` of h = eps*g."""
    h_chart = series_chart(phi)
    h = mul(SuperSeries.of_var(h_chart, EPS, n_eps), embed(g, h_chart, n_eps))
    return oracle_eliminate(phi, h, pullback_chart(phi), n_eps)


def worked_example(order: int = 3) -> ThickMorphism:
    """The worked example S = x q_y + q_y^2 / 2 from M(x) to N(y)."""
    src, tgt = Chart("M", [Variable("x", EVEN)]), Chart("N", [Variable("y", EVEN)])
    chart = combined_chart(src, tgt, KIND_EVEN)
    x, q = (SuperSeries.of_var(chart, n, order) for n in ("x", partner("y", TSTAR)))
    return mk_thick(src, tgt, KIND_EVEN, mul(x, q) + (q ** 2).scale(Fraction(1, 2)), order)


# -- bidimension menu used by the verification suites ---------------------

SMALL_SHAPES: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 1), (0, 1), (2, 1))
IDENT_SHAPES: Tuple[Tuple[int, int], ...] = ((1, 0), (1, 1), (2, 1))


def _composable(gen: Generator, kind: str, order: int, n: int,
                max_momentum_degree: int, shapes: Sequence[Tuple[int, int]]) -> list:
    """``n`` composable morphisms (1 or 2), inner first, over charts A, B, C of ``shapes``."""
    names = (("A", ("x", "xi")), ("B", ("y", "eta")), ("C", ("z", "zeta")))
    while True:
        picked = [gen.rng.choice(shapes) for _ in range(n + 1)]
        charts = [gen.chart(*shape, name=name, stems=stems)
                  for shape, (name, stems) in zip(picked, names)]
        phis = [gen.thick(a, b, kind, order, max_momentum_degree=max_momentum_degree)
                for a, b in zip(charts, charts[1:])]
        if all(phi is not None for phi in phis):
            return phis


def random_pair_of_morphisms(gen: Generator, kind: str, order: int,
                             max_momentum_degree: int = 3,
                             shapes: Sequence[Tuple[int, int]] = SMALL_SHAPES):
    """A composable (outer, inner) pair over random charts of ``shapes``."""
    inner, outer = _composable(gen, kind, order, 2, max_momentum_degree, shapes)
    return outer, inner


def random_morphism(gen: Generator, kind: str, order: int,
                    max_momentum_degree: int = 3,
                    shapes: Sequence[Tuple[int, int]] = SMALL_SHAPES) -> ThickMorphism:
    """A morphism between random charts of ``shapes``."""
    return _composable(gen, kind, order, 1, max_momentum_degree, shapes)[0]


# -- verification suites ----------------------------------------------------


def suite_identifications(order: int) -> Report:
    report = Report()
    for case in IDENTIFICATION_CASES:
        for shape in IDENT_SHAPES:
            gen = Generator(0)
            chart = gen.chart(*shape, name=f"M{shape[0]}{shape[1]}")
            report.include(f"{case}:{shape[0]}|{shape[1]}",
                           verify_identification(case, chart, order=order))
    return report


def _trials(seed: int, trials: int, check) -> Report:
    """``check(gen, kind)`` on one seeded stream, the kind even on even trials
    and odd on odd ones, each check renamed ``trial<i>:<kind>:name``."""
    gen, report = Generator(seed), Report()
    for i in range(trials):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        report.include(f"trial{i}:{kind}", check(gen, kind))
    return report


def suite_functoriality(seed: int, trials: int, order: int) -> Report:
    def check(gen, kind):
        outer, inner = random_pair_of_morphisms(gen, kind, order, max_momentum_degree=2)
        return Report([c for which in (TANGENT, ANTITANGENT)
                       for c in check_functoriality(outer, inner, which, order).checks])
    return _trials(seed, trials, check)


def suite_qmorphism(seed: int, trials: int, order: int) -> Report:
    return _trials(seed, trials, lambda gen, kind: check_antitangent_q(
        random_morphism(gen, kind, order, max_momentum_degree=2), order))


def suite_pullback_props(seed: int, trials: int, order: int) -> Report:
    def check(gen, kind):
        phi = random_morphism(gen, kind, order)
        g = gen.series(phi.target, order, parity=kind_parity(kind), n_terms=3,
                       max_degree=2)
        report = Report.single("solver_vs_oracle",
                               pullback(phi, g, order) - oracle_pullback_naive(phi, g, order))
        # classical reduction: thick pullback of an ordinary map collapses
        # to eps times the substitution oracle
        cmap = gen.classical_map(phi.source, phi.target, order)
        got = pullback(from_classical(cmap, kind, order), g, order)
        expected = mul(SuperSeries.of_var(got.chart, EPS, order),
                       embed(oracle_pullback_classical(cmap, g, order), got.chart, order))
        report.check_zero("classical_reduction", got - expected)
        return report
    return _trials(seed, trials, check)
