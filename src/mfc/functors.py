"""Tangent and antitangent lifts of thick morphisms.

The lift applies the derivation its bundle names, T's (even) or PiT's
(odd), to the generating function.  On the lifted cotangent side the
conjugacy is swapped: the dotted momentum is conjugate to the undotted
coordinate and vice versa; the antitangent case additionally signs the
par-momentum by the coordinate parity.
"""

from __future__ import annotations

from .report import Report
from .superalg import ODD, SuperSeries, embed, substitute
from .superforms import (BUNDLES, PIT, T, apply_operator, extend_chart, fiber_variables,
                         kind_parity, partner)
from .morphisms import (
    Conjugate,
    KIND_EVEN,
    KIND_ODD,
    ThickMorphism,
    base_map,
    combined_chart,
    compose,
    eps_times,
    mk_thick,
    pullback,
)

TANGENT = "tangent"
ANTITANGENT = "antitangent"


def _lift(phi: ThickMorphism, bundle: str) -> ThickMorphism:
    shift = BUNDLES[bundle].shift
    src = extend_chart(phi.source, bundle)
    tgt = extend_chart(phi.target, bundle)
    momenta = phi.chart.variables[len(phi.source):]
    # an odd bundle shifts the parity of the generating function, so the kind
    kind = (KIND_EVEN, KIND_ODD)[kind_parity(phi.kind) ^ shift]
    chart = combined_chart(src, tgt, kind, momenta + fiber_variables(momenta, bundle))
    # the derivation maps each source coordinate and old momentum to its
    # partner; the new variables have none on this chart
    lifted = apply_operator(embed(phi.S, chart, phi.order), bundle)
    conjugates = [Conjugate(partner(c.coord, bundle), c.momentum, c.sign)
                  for c in phi.conjugates]
    for c in phi.conjugates:
        flipped = shift and phi.target.var(c.coord).parity == ODD
        conjugates.append(Conjugate(c.coord, partner(c.momentum, bundle),
                                    -c.sign if flipped else c.sign))
    return mk_thick(src, tgt, kind, lifted, phi.order, conjugates=conjugates,
                    strict=False)


def tangent_lift(phi: ThickMorphism) -> ThickMorphism:
    """T Phi, generated by the symbolic time derivative of S."""
    return _lift(phi, T)


def antitangent_lift(phi: ThickMorphism) -> ThickMorphism:
    """PiT Phi: odd derivation of S, flipping the morphism kind."""
    return _lift(phi, PIT)


def lift(phi: ThickMorphism, which: str) -> ThickMorphism:
    if which == TANGENT:
        return tangent_lift(phi)
    if which == ANTITANGENT:
        return antitangent_lift(phi)
    raise ValueError(f"unknown lift kind {which!r}")


def check_bundle_morphism(phi: ThickMorphism, g: SuperSeries, n_eps: int) -> Report:
    """T Phi covers the base map: pulling a fiberwise-constant function
    p*g back through T Phi gives eps * p*(phi*g), phi = base_map(Phi),
    at every order in eps.

    p*g does not depend on the fiber coordinates, so their conjugate
    momenta (Phi's own momenta) vanish at the stationary point and the
    lifted relation reduces to the base map.  Phi's own pullback
    differs from eps * phi*g from eps^2 on.
    """
    lifted = tangent_lift(phi)
    lhs = pullback(lifted, embed(g, lifted.target, g.order), n_eps)
    on_base = substitute(g, base_map(phi), chart=phi.source, order=phi.order)
    return Report.single("bundle_morphism", lhs - eps_times(on_base, lhs.chart, n_eps))


def check_functoriality(outer: ThickMorphism, inner: ThickMorphism,
                        which: str, order: int) -> Report:
    """lift(outer o inner) == lift(outer) o lift(inner), coefficientwise."""
    left = lift(compose(outer, inner, order), which)
    right = compose(lift(outer, which), lift(inner, which), order)
    return Report.single(f"functoriality_{which}", left.S - right.S)
