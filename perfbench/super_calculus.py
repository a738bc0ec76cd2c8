"""super-calculus: designed (2|2) and (3|3) thick morphisms of both kinds.

Many variables and short, sparse series: the time goes to per-call cost
(series construction, per-monomial bookkeeping, Koszul signs, deriv,
superforms, functors), the opposite use of the kernel from eps-depth.

Every pass draws fresh coefficients on a fixed monomial support, for
each configuration in ``CONFIGS`` a pair of composable morphisms
M -> N -> P, and runs the job classes:

- ``compose``: Psi o Phi, checked by its base map, which must be the
  composite of the two base maps;
- ``lift-<n><kind>``: tangent and antitangent lifts of Phi and Psi (and
  of ``LIGHT_EXTRA`` more (2|2) odd-kind morphisms), checked against the
  dot- and par-derivations of S computed here;
- ``functoriality-2e`` (tangent) and ``functoriality-3o`` (antitangent):
  lift(Psi o Phi) against lift(Psi) o lift(Phi);
- ``relation``: the relation identity of the antitangent lift;
- ``qres``: the Q-morphism residual of the antitangent lift for the de
  Rham fields, which must vanish;
- ``forms``: the pullback of a closed form through the antitangent lift,
  which must be closed.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Dict, List

from algebra import SPoly
from jobs import Job, Workload, bump, coeff, plain, series_from

ORDER = 3
FORM_EPS = 2
CONFIGS = ((2, "even"), (2, "odd"), (3, "even"), (3, "odd"))
FUNCTORIALITY = (((2, "even"), "tangent"), ((3, "odd"), "antitangent"))
# extra (2|2) odd-kind morphisms lifted each pass, so that the light
# class's median rests on enough samples
LIGHT_EXTRA = 6
STEMS = (("M", "x", "xi"), ("N", "y", "eta"), ("P", "z", "zeta"))
# least output sizes, so that no job degenerates to a trivial series
MIN_TERMS = {"compose": 100, "lift": 20, "functoriality": 400, "forms": 60}


def _support(n: int, kind: str, src, tgt) -> List[tuple]:
    """Monomials of S: linear part, nonlinear base terms, momentum terms."""
    _, a, al = src
    _, b, be = tgt
    pre = "q_" if kind == "even" else "ys_"
    mb = lambda j: f"{pre}{b}{j}"
    mbe = lambda j: f"{pre}{be}{j}"
    out = []
    for i in range(n):
        out += [(f"{a}{i}", mb(i)), (f"{al}{i}", mbe(i))]
    out += [(f"{a}0", mb(n - 1)), (f"{al}{n - 1}", mbe(0)), (f"{a}0", f"{a}1", mb(0)),
            (f"{al}0", f"{al}1", mb(1)), (f"{a}0", f"{al}0", mbe(1))]
    if kind == "even":
        out += [(mb(0), mb(0)), (mb(0), mb(1)), (mbe(0), mbe(1)),
                (f"{al}0", mb(0), mbe(0)), (mb(1), mbe(0), mbe(1))]
    else:
        out += [(mb(0), mbe(0)), (mbe(0), mbe(1), mb(1)), (f"{al}0", mbe(0), mbe(0)),
                (f"{a}1", mb(0), mbe(1))]
    return out


def _chart(api, n, stems):
    sa = api.superalg
    name, e, o = stems
    return sa.Chart(name, [sa.Variable(f"{e}{i}", sa.EVEN) for i in range(n)]
                    + [sa.Variable(f"{o}{i}", sa.ODD) for i in range(n)])


def _morphism(api, rng, n, kind, src_chart, tgt_chart, src, tgt):
    chart = api.morphisms.combined_chart(src_chart, tgt_chart, kind)
    S = series_from(api, chart, ORDER, {m: coeff(rng) for m in _support(n, kind, src, tgt)})
    return api.morphisms.mk_thick(src_chart, tgt_chart, kind, S, ORDER)


def _spoly(series, names=None, parities=None) -> SPoly:
    """An mfc series as an SPoly, optionally embedded by name in a larger list."""
    s_names, s_par, terms = plain(series)
    if names is None:
        return SPoly(s_names, s_par, terms)
    index = {nm: i for i, nm in enumerate(names)}
    out = {}
    for mono, c in terms.items():
        exps = [0] * len(names)
        for nm, e in zip(s_names, mono):
            if e:
                exps[index[nm]] = e
        out[tuple(exps)] = c
    return SPoly(names, parities, out)


# -- property checks (no mfc code) ----------------------------------------


def base_map(S: SPoly, source: List[str], coords: List[tuple], kind: str) -> Dict[str, SPoly]:
    """Target coordinates at zero momenta: w = (-1)^{w} dS/dm (even kind).

    ``coords`` lists (coordinate, parity, momentum name).  The left
    derivative of a momentum-linear term a(x) m is (-1)^{|m||a|} a(x).
    """
    src_par = [S.parities[S.names.index(v)] for v in source]
    zero = SPoly(source, src_par, {})
    out = {}
    for coord, parity, mom in coords:
        j = S.names.index(mom)
        terms = {}
        for mono, c in S.terms.items():
            moment = [i for i, e in enumerate(mono) if e and S.names[i] not in source]
            if moment != [j] or mono[j] != 1:
                continue
            a_par = sum(e * p for e, p in zip(mono, S.parities)) - S.parities[j]
            sign = -1 if (S.parities[j] * a_par) % 2 else 1
            if kind == "even" and parity:
                sign = -sign
            exps = tuple(mono[S.names.index(v)] for v in source)
            terms[exps] = sign * c
        out[coord] = zero.like(terms)
    return out


def compose_maps(outer: Dict[str, SPoly], inner: Dict[str, SPoly]) -> Dict[str, SPoly]:
    """outer o inner by substitution: each monomial's factors in order."""
    zero = next(iter(inner.values())).like({})
    one = zero.like({(0,) * len(zero.names): Fraction(1)})
    out = {}
    for coord, poly in outer.items():
        acc = zero
        for mono, c in poly.terms.items():
            term = one
            for name, e in zip(poly.names, mono):
                for _ in range(e):
                    term = term * inner[name]
            acc = acc + term.like({m: c * v for m, v in term.terms.items()})
        out[coord] = acc
    return out


def exterior_d(poly: SPoly) -> SPoly:
    """d = sum par_v d/dv over the base coordinates: an odd derivation."""
    image = {v: ("par_" + v, 1) for v in poly.names
             if "par_" + v in poly.names and not v.startswith("par_")}
    return poly.derive(image, odd=True)


def _coords(chart_names, chart_parities, kind):
    pre = "q_" if kind == "even" else "ys_"
    return [(v, p, pre + v) for v, p in zip(chart_names, chart_parities)]


# -- the pass -----------------------------------------------------------------


def build(api, rng: random.Random, pass_no: int, state: Dict) -> List[Job]:
    mor, fun = api.morphisms, api.functors
    pairs = {}
    for n, kind in CONFIGS:
        charts = [_chart(api, n, s) for s in STEMS]
        inner = _morphism(api, rng, n, kind, charts[0], charts[1], STEMS[0], STEMS[1])
        outer = _morphism(api, rng, n, kind, charts[1], charts[2], STEMS[1], STEMS[2])
        pairs[(n, kind)] = (outer, inner)
    charts = [_chart(api, 2, s) for s in STEMS[:2]]
    light = [_morphism(api, rng, 2, "odd", charts[0], charts[1], STEMS[0], STEMS[1])
             for _ in range(LIGHT_EXTRA)]
    state["pairs"] = pairs
    lifted: Dict[tuple, object] = {}
    state["lifted"] = lifted
    extra: Dict[tuple, object] = {}
    jobs: List[Job] = []

    for key, (outer, inner) in pairs.items():
        jobs.append(Job("compose", lambda o=outer, i=inner: mor.compose(o, i, ORDER),
                        check=lambda out, o=outer, i=inner: _check_compose(out, o, i),
                        control=lambda out, o=outer, i=inner: _check_compose(out, o, i, True)))
    to_lift = [(key, phi) for key, pair in pairs.items() for phi in pair[::-1]]
    to_lift += [((2, "odd"), phi) for phi in light]
    for key, phi in to_lift:
        for which, lift in (("tangent", fun.tangent_lift), ("antitangent", fun.antitangent_lift)):
            def run(k=key, w=which, f=lift, m=phi):
                out = f(m)
                if m is pairs[k][1]:
                    lifted[(k, w)] = out
                return out
            jobs.append(Job(f"lift-{key[0]}{key[1][0]}", run,
                            check=lambda out, m=phi, w=which: _check_lift(out, m, w),
                            control=lambda out, m=phi, w=which: _check_lift(out, m, w, True)))
    lift_of = {"tangent": fun.tangent_lift, "antitangent": fun.antitangent_lift}
    for key, which in FUNCTORIALITY:
        outer, inner = pairs[key]
        f = lift_of[which]
        jobs.append(Job(f"functoriality-{key[0]}{key[1][0]}",
                        lambda o=outer, i=inner, f=f: (f(mor.compose(o, i, ORDER)),
                                                       mor.compose(f(o), f(i), ORDER)),
                        check=_check_functoriality,
                        control=lambda out: _check_functoriality(out, perturb=True)))
    for key in pairs:
        jobs.append(Job("relation", lambda k=key: mor.relation_check(lifted[(k, "antitangent")]),
                        check=lambda rep: rep.passed and bool(rep.checks)))
    for key in pairs:
        def prepare_q(k=key):
            extra[(k, "h")] = hamiltonians(api, lifted[(k, "antitangent")])
        jobs.append(Job("qres",
                        lambda k=key: api.qcalc.q_morphism_residual(
                            lifted[(k, "antitangent")], *extra[(k, "h")], ORDER),
                        check=lambda res: not res.terms,
                        control=lambda res: not bump(plain(res))[2],
                        prepare=prepare_q))
    for key in pairs:
        def prepare_form(k=key, r=random.Random(rng.random())):
            extra[(k, "omega")] = closed_form(api, lifted[(k, "antitangent")], k[1], r)
        jobs.append(Job("forms",
                        lambda k=key: mor.pullback(lifted[(k, "antitangent")],
                                                   extra[(k, "omega")], FORM_EPS),
                        check=lambda out: _check_form(_spoly(out)),
                        control=lambda out: _check_form(_spoly(out) + _nonclosed(out)),
                        prepare=prepare_form))
    state["extra"] = extra
    return jobs


def _check_compose(out, outer, inner, perturb=False) -> bool:
    S = _spoly(out.S)
    if perturb:
        mono = [0] * len(S.names)
        mono[0] = 1
        mono[S.names.index(outer.S.chart.variables[len(outer.source)].name)] = 1
        S = S + S.like({tuple(mono): Fraction(1)})
    src = [v.name for v in inner.source]
    mid = _coords([v.name for v in inner.target], [v.parity for v in inner.target], inner.kind)
    tgt = _coords([v.name for v in outer.target], [v.parity for v in outer.target], outer.kind)
    phi1 = base_map(_spoly(inner.S), src, mid, inner.kind)
    phi2 = base_map(_spoly(outer.S), [v.name for v in outer.source], tgt, outer.kind)
    want = compose_maps(phi2, phi1)
    got = base_map(S, src, tgt, out.kind)
    return (len(S.terms) >= MIN_TERMS["compose"]
            and all(got[c].terms == want[c].terms for c, _, _ in tgt))


def _check_lift(out, inner, which, perturb=False) -> bool:
    names, parities, terms = plain(out.S)
    if perturb:
        names, parities, terms = bump((names, parities, terms))
    prefix = "dot_" if which == "tangent" else "par_"
    S = _spoly(inner.S, names, parities)
    image = {v: (prefix + v, 1) for v in S.names if prefix + v in S.names}
    want = S.derive(image, odd=(which == "antitangent"))
    flipped = {"even": "odd", "odd": "even"}[inner.kind]
    kind_ok = out.kind == (inner.kind if which == "tangent" else flipped)
    return (kind_ok and len(terms) >= MIN_TERMS["lift"]
            and {m: c for m, c in terms.items() if c} == want.terms)


def _check_functoriality(out, perturb=False) -> bool:
    left, right = plain(out[0].S), plain(out[1].S)
    if perturb:
        right = bump(right)
    return (left[0] == right[0] and left[2] == right[2]
            and len(left[2]) >= MIN_TERMS["functoriality"])


def _check_form(rho: SPoly) -> bool:
    return len(rho.terms) >= MIN_TERMS["forms"] and not exterior_d(rho).terms


def _nonclosed(out) -> SPoly:
    """eps * x0^2, whose exterior derivative 2 eps x0 par_x0 is not zero."""
    rho = _spoly(out)
    mono = [0] * len(rho.names)
    mono[rho.names.index("eps")] = 1
    mono[rho.names.index("x0")] = 2
    return rho.like({tuple(mono): Fraction(1)})


# -- inputs built from the lifted morphisms --------------------------------


def hamiltonians(api, lifted):
    """Q^a p_a (even structure) or Q^a x*_a (odd) for the de Rham fields."""
    sa = api.superalg
    even = lifted.kind == api.morphisms.KIND_EVEN
    prefix = "q_" if even else "ys_"
    out = []
    for chart in (lifted.source, lifted.target):
        extra = [sa.Variable(prefix + v.name, v.parity if even else 1 - v.parity,
                             sa.ROLE_MOMENTUM if even else sa.ROLE_ANTIMOMENTUM, 1,
                             base=v.name) for v in chart]
        ext = sa.Chart(f"H({chart.name})", tuple(chart.variables) + tuple(extra))
        terms = {}
        for v in chart:
            if "par_" + v.name in chart and not v.name.startswith("par_"):
                mono = [0] * len(ext)
                mono[ext.index("par_" + v.name)] = 1
                mono[ext.index(prefix + v.name)] = 1
                terms[tuple(mono)] = Fraction(1)
        out.append(sa.SuperSeries(ext, terms, lifted.order))
    return out


def closed_form(api, lifted, kind: str, rng: random.Random):
    """omega = d f plus a constant-coefficient 2-form, on the lifted target.

    f has the parity of the original morphism's kind, so omega has the
    parity the antitangent lift pulls back.
    """
    chart = lifted.target
    names = [v.name for v in chart]
    parities = [v.parity for v in chart]
    zero = SPoly(names, parities, {})
    y0, y1, e0, e1 = (zero.var(v) for v in ("y0", "y1", "eta0", "eta1"))
    c = lambda: zero.like({(0,) * len(names): coeff(rng, small=True)})
    if kind == "even":
        f = c() * y0 * y1 + c() * y0 * e0 * e1 + c() * y1 * y1 + c() * e0 * e1
        two_form = c() * zero.var("par_y0") * zero.var("par_eta0")
    else:
        f = c() * y0 * e0 + c() * y1 * e1 + c() * y0 * y1 * e1
        two_form = c() * zero.var("par_y0") * zero.var("par_y1")
    omega = exterior_d(f) + two_form
    return api.superalg.SuperSeries(chart, omega.terms, lifted.order)


def controls(api, state) -> List[tuple]:
    """A perturbed morphism must fail the relation, Q and closedness checks.

    The relation identity holds for every S once the sign rule of the
    morphism's kind is applied, and any conjugacy sign cancels between
    w and m; so its control applies the other kind's sign rule instead.
    """
    mor = api.morphisms
    out = []
    for key in state["pairs"]:
        al = state["lifted"][(key, "antitangent")]
        other = mor.KIND_EVEN if al.kind == mor.KIND_ODD else mor.KIND_ODD
        bad = dataclasses.replace(al, kind=other)
        out.append((f"relation{key}", not mor.relation_check(bad).passed))
        want = al.S.parity()
        mom = next(al.chart.var(c.momentum) for c in al.conjugates
                   if al.chart.var(c.momentum).parity == want)
        x0 = api.superalg.SuperSeries.of_var(al.chart, "x0", al.order)
        delta = x0 * x0 * api.superalg.SuperSeries.of_var(al.chart, mom.name, al.order)
        bad = mor.mk_thick(al.source, al.target, al.kind, al.S + delta, al.order,
                           conjugates=al.conjugates, strict=False)
        res = api.qcalc.q_morphism_residual(bad, *state["extra"][(key, "h")], ORDER)
        out.append((f"qres{key}", bool(res.terms)))
        rho = mor.pullback(bad, state["extra"][(key, "omega")], FORM_EPS)
        out.append((f"forms{key}", not _check_form(_spoly(rho))))
    return out


# Classes are split by configuration so that each is one cluster of
# like-sized calls: a median over two clusters falls in the gap between
# them and moves with the noise at their edges.
WORKLOAD = Workload("super-calculus", "functoriality-2e", "lift-2o", trace_passes=1,
                    build=build, controls=controls)
