"""Thick morphisms: validation, base map, relation identity, nonlinear
pullback and its derivative, and composition.

An even morphism M1 => M2 is a generating function S(x; q) on the chart
(source coordinates, target momenta), a formal power series in the
momenta with S(x; 0) constant.  An odd morphism uses antimomenta of
flipped parity; ``superforms.COTANGENT`` names each kind's bundle.  The
canonical relation is

    w^i = (-1)^{w} dS/dm_i   (even kind; no sign for odd kind),
    p_a = dS/dx^a,

with left derivatives throughout.  Lifted morphisms carry an explicit
conjugacy table (target coordinate, momentum variable, sign) because
the tangent/antitangent identifications swap and sign the pairings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .report import Report
from .superalg import (
    EVEN,
    ODD,
    Chart,
    ChartMismatch,
    ParityError,
    ROLE_PARAM,
    SuperSeries,
    Variable,
    _substitute_packed,
    _terms,
    _widening,
    cached_chart,
    embed,
    mul,
    partial,
    set_to_zero,
    total,
)
from .superforms import (
    COTANGENT,
    D,
    apply_operator,
    extend_chart,
    fiber_variables,
    kind_parity,
    partner,
)

KIND_EVEN = "even"
KIND_ODD = "odd"


class MorphismError(ValueError):
    """A generating function fails the thick-morphism contract."""


def combined_chart(source: Chart, target: Chart, kind: str,
                   momenta: Optional[Sequence[Variable]] = None) -> Chart:
    if momenta is None:
        momenta = fiber_variables(target.variables, COTANGENT[kind])
    return cached_chart(f"{source.name}=>{target.name}", (*source.variables, *momenta))


class Conjugate(NamedTuple):
    """Target coordinate paired with (sign * momentum variable)."""
    coord: str
    momentum: str
    sign: int = 1


def canonical_conjugates(target: Chart, kind: str) -> Tuple[Conjugate, ...]:
    return tuple(Conjugate(v.name, partner(v.name, COTANGENT[kind])) for v in target)


@dataclass(frozen=True)
class ThickMorphism:
    source: Chart
    target: Chart
    kind: str
    S: SuperSeries  # on the combined chart
    order: int
    conjugates: Tuple[Conjugate, ...]
    normalized: bool = True  # S(x; 0) constant

    @property
    def chart(self) -> Chart:
        return self.S.chart

    def momentum_names(self):
        return self.chart.names[len(self.source):]

    def coordinate_relations(self) -> Dict[str, SuperSeries]:
        """Target coordinates as series in (source coords, momenta)."""
        out = {}
        for c in self.conjugates:
            d = partial(self.S, c.momentum)
            sign = c.sign
            if self.kind == KIND_EVEN and self.target.var(c.coord).parity == ODD:
                sign = -sign
            out[c.coord] = d.scale(sign)
        return out


def mk_thick(source: Chart, target: Chart, kind: str, S: SuperSeries,
             order: int, conjugates: Optional[Sequence[Conjugate]] = None,
             strict: bool = True) -> ThickMorphism:
    """Validate a generating function and build the morphism."""
    if kind not in (KIND_EVEN, KIND_ODD):
        raise ValueError(f"kind must be 'even' or 'odd', got {kind!r}")
    if conjugates is None:
        conjugates = canonical_conjugates(target, kind)
    conjugates = tuple(conjugates)
    head = len(source)
    if (S.chart.variables[:head] != source.variables
            or S.chart.names[head:] != tuple(c.momentum for c in conjugates)):
        raise MorphismError(
            "generating function must live on (source coords, target momenta)")
    if S.order != order:
        raise MorphismError(f"S has filtration order {S.order}, expected {order}")
    shift = kind_parity(kind)
    if not S.has_parity(shift):
        raise ParityError(f"{kind} morphism needs a {kind} generating function")
    for c, m in zip(conjugates, S.chart.variables[head:]):
        if m.parity != target.var(c.coord).parity ^ shift:
            raise ParityError(
                f"momentum {m.name!r} has wrong parity for coordinate {c.coord!r}")
    normalized = not any(map(any, set_to_zero(S, S.chart.names[head:]).terms))
    if strict and not normalized:
        raise MorphismError("S at zero momenta must be constant (strict mode)")
    return ThickMorphism(source, target, kind, S, order, conjugates, normalized)


def base_map(phi: ThickMorphism) -> Dict[str, SuperSeries]:
    """The underlying ordinary map, read off the relation at zero momenta:
    each target coordinate as a series on ``phi.source`` at ``phi.order``."""
    momenta = phi.momentum_names()
    return {coord: embed(set_to_zero(series, momenta), phi.source, phi.order)
            for coord, series in phi.coordinate_relations().items()}


# -- relation identity ------------------------------------------------------


def relation_check(phi: ThickMorphism) -> Report:
    """Residual of d(w^i) m_i - d(x^a) p_a - d(w^i m_i - S), which must
    vanish identically when the relation equations are substituted in."""
    chart = extend_chart(phi.chart, D)
    order = phi.order
    lift = lambda s: embed(s, chart, order)
    var = lambda n: SuperSeries.of_var(chart, n, order)
    zero = SuperSeries.zero(chart, order)
    lhs, action = [], [-lift(phi.S)]  # each side summed once, by ``total``
    relations = phi.coordinate_relations()
    for c in phi.conjugates:
        w = lift(relations[c.coord])
        m = var(c.momentum).scale(c.sign)
        lhs.append(mul(apply_operator(w, D), m))
        action.append(mul(w, m))
    lhs += [-mul(var(partner(v.name, D)), lift(partial(phi.S, v.name))) for v in phi.source]
    lhs.append(-apply_operator(total(action, zero), D))
    return Report.single("relation_identity", total(lhs, zero))


# -- pullback ----------------------------------------------------------------


EPS = "eps"
_EPS = Variable(EPS, EVEN, ROLE_PARAM, 1)


def eps_times(s: SuperSeries, chart: Chart, order: int) -> SuperSeries:
    """eps * s on ``chart``, which holds ``eps`` and every variable of ``s``."""
    return mul(SuperSeries.of_var(chart, EPS, order), embed(s, chart, order))


def pullback_chart(phi: ThickMorphism, params: Sequence[Variable] = ()) -> Chart:
    """(eps, params, source coordinates): where a pullback lives."""
    return cached_chart(f"{phi.source.name}+eps", (_EPS, *params, *phi.source.variables))


def series_chart(phi: ThickMorphism, params: Sequence[Variable] = ()) -> Chart:
    """(eps, params, target coordinates): where a series to pull back lives."""
    return cached_chart("h", (_EPS, *params, *phi.target.variables))


def _require_order(order: int):
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")


def _eliminate(phi: ThickMorphism, h: SuperSeries, work: Chart,
               order: int) -> SuperSeries:
    """Stationary value of h(w) + S(x; mu) - <w, mu> over the middle point.

    ``h`` lives on the target coordinates plus variables that map by
    name onto ``work``.  Starting from the base map (the relations at zero
    momenta), the sweep at weight t sets mu_i = sign_i dh/dw^i(w) and then w
    from the relation at mu, both truncated at weight t, for t = 1, ...,
    order - 1.  All of it runs in one packed layout (a guard hit anywhere
    reruns it all wider): dh, the relations and E h are packed once, the base
    map, each half-sweep and the value are one ``_substitute_packed`` call
    each, and w and mu stay packed sums over their least common denominator,
    so equal ones compare equal.  No parity is checked here: ``mk_thick``
    checked S's and the momenta's, ``pullback_series`` h's (a composite's h is
    the outer S), and w's and mu's follow from those.  Since every
    coordinate-dependent term of h has weight >= 1 (checked first), the
    gradient through weight t needs w only through weight t - 1, so each sweep
    leaves w exact through its own weight, and the one at t = order - 1 all of
    w the value needs.  Its gradient is final, so when its relation changed w,
    one more gradient at that weight certifies: it must equal the last one,
    because the new w is the relation at the gradient and nothing else.  (At
    a lower weight an unchanged w proves nothing: h may enter only at even
    weights.)  It raises if that certificate fails, and takes the value from
    the envelope theorem.  A compose's h is the outer S, whose momenta follow
    the coordinates and map to themselves: its value terms are multiplied from
    the right, from their momentum monomial, one row that shifts the next
    image, instead of meeting the longest partial product last.
    """
    if any(v.weight for v in (*phi.source, *phi.target)):
        raise MorphismError("source and target coordinates must have weight 0")
    coords = [h.chart.index(v.name) for v in phi.target]
    if any(m[i] for m in h.terms if not h.chart.mono_weight(m) for i in coords):
        raise MorphismError("coordinate-dependent terms need weight, or the sweeps may not settle")
    # mu_i = sign_i dh/dw^i(w): the gradient carries the sign, not the relations
    dh = [[(f, c.sign * n, d) for f, n, d in _terms(partial(h, c.coord))]
          for c in phi.conjugates]
    relations = phi.coordinate_relations()
    rels = [_terms(rel) for rel in relations.values()]
    momenta = phi.momentum_names()
    # Envelope theorem: scaling each weighted variable v of ``work`` (eps,
    # weighted params, a compose's outer momenta) by lambda^weight(v) scales
    # the value the same way.  Only h depends on them explicitly and both
    # gradients of the action vanish at the fixed point, so E(out) = (E h)(w)
    # for E = lambda d/dlambda, which multiplies each monomial by its weight:
    # out_k = [(E h)(w)]_k / k.  At lambda = 0, mu = 0 and w is the base map,
    # so out_0 = h_0 + S(x; 0); h_0 passes through with factor 1.
    eh = [(f, n * (sum([h.chart.weights[i] * e for i, e in f]) or 1), d) for f, n, d in _terms(h)]
    from_right = coords != list(range(len(h.chart) - len(coords), len(h.chart)))  # compose's h

    def run(layout):
        images = lambda sums: {k: (layout.rows_of(acc), den) for k, (acc, den) in sums.items()}
        gradient = lambda t, w: dict(zip(momenta, _substitute_packed(
            layout, work, t, h.chart, dh, images(w))))
        relation = lambda t, mu: dict(zip(relations, _substitute_packed(
            layout, work, t, phi.chart, rels, images(mu))))
        w = relation(0, {m: ({}, 1) for m in momenta})  # the base map
        for t in range(1, order - 1):
            w = relation(t, gradient(t, w))
        grad = gradient(order - 1, w)
        new = relation(order - 1, grad)
        if new != w:
            if gradient(order - 1, new) != grad:
                raise MorphismError(f"gradient still moving at weight {order - 1}")
            w = new
        (acc, den), = _substitute_packed(layout, work, order, h.chart, [eh], images(w), from_right)
        scale, shift = lcm(*range(1, order + 1)), layout.weight_shift
        return layout.series(work, {p: n * (scale // ((p >> shift) or 1)) for p, n in acc.items()},
                             den * scale, order)

    return _widening(work, run) + embed(set_to_zero(phi.S, momenta), work, order)


def pullback_series(phi: ThickMorphism, h: SuperSeries, n_eps: int) -> SuperSeries:
    """Pull back a series whose coordinate-dependent terms carry weight.

    ``h`` lives on ``series_chart(phi, params)``: its parameters are the
    variables between ``eps`` and the target coordinates, and the result
    carries them on ``pullback_chart(phi, params)``.  Used directly for
    contravariance checks; ordinary inputs go through ``pullback``.
    """
    _require_order(n_eps)
    params = h.chart.variables[1:len(h.chart) - len(phi.target)]
    if h.chart.variables != (_EPS, *params, *phi.target.variables):
        raise ChartMismatch("series must live on (eps, params, target coords)")
    if not h.has_parity(kind_parity(phi.kind)):
        raise ParityError(f"{phi.kind} morphism pulls back {phi.kind} functions")
    return _eliminate(phi, h, pullback_chart(phi, params), n_eps)


def pullback(phi: ThickMorphism, g: SuperSeries, n_eps: int) -> SuperSeries:
    """Nonlinear pullback of a polynomial function on ``phi.target``, as a
    series in the nilpotent grading parameter eps attached to the input."""
    if not g.has_parity(kind_parity(phi.kind)):
        raise ParityError(f"{phi.kind} morphism pulls back {phi.kind} functions")
    if g.chart != phi.target:
        raise ChartMismatch("g must live on the target chart")
    return pullback_series(phi, eps_times(g, series_chart(phi), n_eps), n_eps)


def pullback_derivative(phi: ThickMorphism, f: SuperSeries, direction: SuperSeries,
                        n_eps: int) -> SuperSeries:
    """d/dt|_0 Phi*[f + t direction], on ``pullback_chart(phi)``.

    ``t`` is a weight-0 parameter with t^2 = 0 whose parity makes
    t direction a function of the kind's parity; a zero direction counts
    as even.  It is named ``t'``, which no workspace can spell, and
    ``eps*(f + t direction)`` on ``series_chart(phi, (t,))`` is pulled
    back: the derivative is the t-linear part.
    """
    p = direction.parity()
    if p is None and not direction.is_zero():
        raise ParityError("direction must be parity-homogeneous")
    t = Variable("t'", kind_parity(phi.kind) ^ (EVEN if p is None else p), ROLE_PARAM, 0,
                 max_power=1)
    chart = series_chart(phi, (t,))
    lift = lambda s: embed(s, chart, n_eps)
    h = mul(SuperSeries.of_var(chart, EPS, n_eps),
            lift(f) + mul(SuperSeries.of_var(chart, t.name, n_eps), lift(direction)))
    return embed(partial(pullback_series(phi, h, n_eps), t.name), pullback_chart(phi), n_eps)


# -- composition --------------------------------------------------------------


def compose(outer: ThickMorphism, inner: ThickMorphism, order: int) -> ThickMorphism:
    """Eliminate the middle manifold: the composite is generated by the
    stationary value of outer.S(y; r) + inner.S(x; q) - <y, q> over (y, q),
    found by ``_eliminate``'s graded sweeps, certified at weight
    ``order - 1``, and valued by the envelope theorem."""
    _require_order(order)
    if outer.kind != inner.kind:
        raise MorphismError("cannot compose morphisms of different kinds")
    if outer.source != inner.target:
        raise ChartMismatch("outer source chart must equal inner target chart")
    if not (outer.normalized and inner.normalized):
        raise MorphismError("composition requires zero-momentum-normalized factors")
    work = combined_chart(inner.source, outer.target, outer.kind,
                          outer.chart.variables[len(outer.source):])
    return mk_thick(inner.source, outer.target, outer.kind,
                    _eliminate(inner, outer.S, work, order), order,
                    conjugates=outer.conjugates)
