"""Homological vector fields and thick Q-morphism checks.

A homological field Q on a chart has odd-shifted components Q^a; its
Hamiltonian is the fiberwise-linear function Q^a p_a on the cotangent
chart (even structure) or Q^a x*_a on the anticotangent chart (odd
structure).  A morphism is a thick Q-morphism when the source and
target Hamiltonians agree on its canonical relation, i.e. the
Hamilton-Jacobi residual below vanishes.  The derivative-homomorphism
and intertwining checks compare values of ``morphisms.pullback_derivative``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from .report import Report
from .superalg import (
    Chart,
    ParityError,
    SuperSeries,
    embed,
    mul,
    partial,
    shift_down,
    substitute,
    total,
    truncate,
)
from .superforms import (
    COTANGENT,
    PIT,
    de_rham,
    extend_chart,
    partner,
    poisson_bracket,
)
from .morphisms import EPS, ThickMorphism, pullback, pullback_derivative
from .functors import antitangent_lift

@dataclass(frozen=True)
class HomologicalField:
    """Odd vector field Q = Q^a d/dx^a given by its components."""
    chart: Chart
    components: Mapping[str, SuperSeries]

    def __post_init__(self):
        for v in self.chart:
            comp = self.components[v.name]
            if not comp.has_parity(v.parity ^ 1):
                raise ParityError(f"component for {v.name!r} must be odd-shifted")

    def is_homological(self) -> bool:
        """Q^2 = 0, via {H, H} = 0 for the even-structure Hamiltonian."""
        h = hamiltonian_of_field(self, "even")
        return poisson_bracket(h, h, "even").is_zero()


def de_rham_field(chart: Chart, order: int) -> HomologicalField:
    """The exterior differential as a field on a PiT-extended chart."""
    return HomologicalField(chart, {
        v.name: de_rham(SuperSeries.of_var(chart, v.name, order), PIT)
        for v in chart})


def hamiltonian_of_field(q: HomologicalField, structure: str) -> SuperSeries:
    """H = Q^a p_a (even structure) or Q^a x*_a (odd structure)."""
    if structure not in COTANGENT:
        raise ValueError("structure must be 'even' or 'odd'")
    bundle = COTANGENT[structure]
    ext = extend_chart(q.chart, bundle)
    order = next(iter(q.components.values())).order
    parts = (mul(embed(q.components[v.name], ext, order),
                 SuperSeries.of_var(ext, partner(v.name, bundle), order))
             for v in q.chart if not q.components[v.name].is_zero())
    return total(parts, SuperSeries.zero(ext, order))


def q_morphism_residual(phi: ThickMorphism, h_source: SuperSeries,
                        h_target: SuperSeries, order: int) -> SuperSeries:
    """H_target on the relation minus H_source on the relation.

    The Hamiltonians live on the canonical (anti)cotangent extensions of
    the source/target charts; target coordinates and momenta and source
    momenta are replaced by the relation series in (x, mu).
    """
    bundle = COTANGENT[phi.kind]
    work = phi.chart
    w_order = phi.order
    relations = phi.coordinate_relations()
    tgt_images: Dict[str, SuperSeries] = {}
    for c in phi.conjugates:
        tgt_images[c.coord] = relations[c.coord]
        tgt_images[partner(c.coord, bundle)] = SuperSeries.of_var(
            work, c.momentum, w_order).scale(c.sign)
    # source coordinates keep their names on the relation's chart
    src_images = {partner(v.name, bundle): partial(phi.S, v.name) for v in phi.source}
    lhs = substitute(h_target, tgt_images, chart=work, order=w_order)
    rhs = substitute(h_source, src_images, chart=work, order=w_order)
    return truncate(lhs - rhs, min(order, w_order))


def check_antitangent_q(phi: ThickMorphism, order: int) -> Report:
    """The antitangent lift is a thick Q-morphism for the de Rham fields."""
    lifted = antitangent_lift(phi)
    q1 = de_rham_field(lifted.source, order=lifted.order)
    q2 = de_rham_field(lifted.target, order=lifted.order)
    h1 = hamiltonian_of_field(q1, lifted.kind)
    h2 = hamiltonian_of_field(q2, lifted.kind)
    return Report.single("antitangent_q", q_morphism_residual(lifted, h1, h2, order))


def closedness_check(phi: ThickMorphism, omega: SuperSeries, n_eps: int) -> Report:
    """Pullbacks of closed forms through the antitangent lift stay closed."""
    lifted = antitangent_lift(phi)
    omega = embed(omega, lifted.target, omega.order)
    if not de_rham(omega, PIT).is_zero():
        raise ValueError("omega is not closed (precondition)")
    return Report.single("closedness", de_rham(pullback(lifted, omega, n_eps), PIT))


def derivative_homomorphism_check(phi: ThickMorphism, f: SuperSeries,
                                  g: SuperSeries, h: SuperSeries, n_eps: int) -> Report:
    """The derivative of the pullback at f multiplies: D[g h] = D[g] D[h],
    with D = ``morphisms.pullback_derivative`` less the eps of its input."""
    derivative = lambda direction: shift_down(pullback_derivative(phi, f, direction, n_eps), EPS)
    d_g = derivative(g)
    d_h = derivative(h)
    d_gh = derivative(mul(g, h))
    return Report.single("derivative_homomorphism", truncate(d_gh - mul(d_g, d_h), n_eps - 1))


def intertwining_check(phi: ThickMorphism, omega: SuperSeries, n_eps: int) -> Report:
    """d commutes with the lifted pullback: ``morphisms.pullback_derivative``
    at omega in the direction d(omega) equals d of the pullback of omega."""
    lifted = antitangent_lift(phi)
    omega = embed(omega, lifted.target, omega.order)
    linear = pullback_derivative(lifted, omega, de_rham(omega, PIT), n_eps)
    return Report.single("intertwining",
                         linear - de_rham(pullback(lifted, omega, n_eps), PIT))
