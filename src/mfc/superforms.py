"""(Anti)tangent and (anti)cotangent chart machinery.

Bundle extensions append derived variables with fixed name prefixes:

    T       dot_<v>   same parity      (velocities)
    PiT     par_<v>   flipped parity   (odd velocities)
    T*      q_<v>     same parity      (momenta, weight 1)
    PiT*    ys_<v>    flipped parity   (antimomenta, weight 1)

A form level uses the prefix ``d_`` (flipped parity).  The two odd
operators d and par anticommute; dot commutes with both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence

from .report import Report
from .superalg import (
    EVEN,
    ODD,
    Chart,
    ParityError,
    SuperSeries,
    Variable,
    ROLE_ANTIMOMENTUM,
    ROLE_MOMENTUM,
    ROLE_ODD_VELOCITY,
    ROLE_VELOCITY,
    deriv,
    embed,
    flip,
    mul,
    partial,
    truncate_base_degree,
)

T = "T"
PIT = "PiT"
TSTAR = "T*"
PITSTAR = "PiT*"

BUNDLE_KINDS = (T, PIT, TSTAR, PITSTAR)

_PREFIX = {T: "dot_", PIT: "par_", TSTAR: "q_", PITSTAR: "ys_"}


class StructureError(ValueError):
    """The chart lacks the bundle structure an operation requires."""


def extend_chart(chart: Chart, kind: str) -> Chart:
    """Append the derived variables of one bundle extension."""
    if kind not in BUNDLE_KINDS:
        raise ValueError(f"unknown bundle kind {kind!r}")
    if chart.depth >= 2:
        raise StructureError(f"chart {chart.name!r} already at iteration depth 2")
    prefix = _PREFIX[kind]
    extra = []
    for v in chart:
        if kind == T:
            extra.append(Variable(prefix + v.name, v.parity, ROLE_VELOCITY,
                                  v.weight, base=v.name))
        elif kind == PIT:
            extra.append(Variable(prefix + v.name, flip(v.parity), ROLE_ODD_VELOCITY,
                                  v.weight, base=v.name))
        elif kind == TSTAR:
            extra.append(Variable(prefix + v.name, v.parity, ROLE_MOMENTUM,
                                  1, base=v.name))
        else:
            extra.append(Variable(prefix + v.name, flip(v.parity), ROLE_ANTIMOMENTUM,
                                  1, base=v.name))
    return chart.extended(f"{kind}({chart.name})", extra)


def extend_d(chart: Chart) -> Chart:
    """Append the d-level (form) variables for every current variable."""
    extra = [Variable("d_" + v.name, flip(v.parity), ROLE_ODD_VELOCITY,
                      v.weight, base=v.name) for v in chart]
    return chart.extended(f"d({chart.name})", extra, depth=chart.depth)


def _operator_image(op: str, name: str):
    """Target name and sign for one operator applied to one variable."""
    if op == "d":
        if name.startswith("d_"):
            return None, 0
        return "d_" + name, 1
    if op == "par":
        if name.startswith("d_"):
            return "d_par_" + name[2:], -1  # d and par anticommute
        return "par_" + name, 1
    if op == "dot":
        if name.startswith("d_"):
            return "d_dot_" + name[2:], 1
        return "dot_" + name, 1
    raise ValueError(f"unknown operator {op!r}")


OPERATOR_PARITY = {"d": ODD, "par": ODD, "dot": EVEN}


def apply_operator(a: SuperSeries, op: str) -> SuperSeries:
    """Apply d, par or dot as a derivation of the matching parity."""
    chart = a.chart
    images = {}
    for v in chart:
        target, sign = _operator_image(op, v.name)
        if target is not None and target in chart:
            img = SuperSeries.of_var(chart, target, a.order)
            images[v.name] = img if sign == 1 else -img
    return deriv(a, images, OPERATOR_PARITY[op])


def de_rham(omega: SuperSeries, level: str = "d") -> SuperSeries:
    """The exterior differential at the requested level (``d`` or ``par``)."""
    if level not in ("d", "par"):
        raise ValueError("level must be 'd' or 'par'")
    chart = omega.chart
    prefix = level + "_"
    if not any(prefix + v.name in chart for v in chart):
        raise StructureError(f"chart {chart.name!r} carries no {level}-level")
    return apply_operator(omega, level)


# -- Liouville forms ----------------------------------------------------


def _paired(chart: Chart, prefix: str):
    """Coordinates v (not form-level) whose ``prefix+v`` partner exists."""
    out = []
    for v in chart:
        if v.name.startswith("d_"):
            continue
        if prefix + v.name in chart:
            out.append(v)
    return out


def liouville(chart: Chart, which: str, order: int = 6) -> SuperSeries:
    """A canonical 1-form as its literal coordinate expression."""
    dv = lambda name: SuperSeries.of_var(chart, "d_" + name, order)
    var = lambda name: SuperSeries.of_var(chart, name, order)
    out = SuperSeries.zero(chart, order)
    if which == "theta":
        pairs = [v for v in _paired(chart, "q_") if not v.name.startswith(("dot_", "par_"))]
        if not pairs:
            raise StructureError("no momentum pairs on this chart")
        for v in pairs:
            out = out + mul(dv(v.name), var("q_" + v.name))
    elif which == "lambda":
        pairs = [v for v in _paired(chart, "ys_") if not v.name.startswith(("dot_", "par_"))]
        if not pairs:
            raise StructureError("no antimomentum pairs on this chart")
        for v in pairs:
            out = out + mul(dv(v.name), var("ys_" + v.name))
    elif which in ("theta_TM", "lambda_TM"):
        mom = "q_" if which == "theta_TM" else "ys_"
        pairs = [v for v in _paired(chart, mom)
                 if "dot_" + v.name in chart and "dot_" + mom + v.name in chart]
        if not pairs:
            raise StructureError("chart is not a tangent prolongation of a (anti)cotangent bundle")
        for v in pairs:
            out = out + mul(dv(v.name), var("dot_" + mom + v.name))
            out = out + mul(dv("dot_" + v.name), var(mom + v.name))
    elif which in ("theta_PiTM", "lambda_PiTM"):
        mom = "ys_" if which == "theta_PiTM" else "q_"
        pairs = [v for v in _paired(chart, mom)
                 if "par_" + v.name in chart and "par_" + mom + v.name in chart]
        if not pairs:
            raise StructureError("chart is not an antitangent prolongation of a (anti)cotangent bundle")
        for v in pairs:
            sign = -1 if v.parity == ODD else 1
            out = out + mul(dv(v.name), var("par_" + mom + v.name)).scale(sign)
            out = out + mul(dv("par_" + v.name), var(mom + v.name))
    else:
        raise ValueError(f"unknown Liouville form {which!r}")
    return out


# -- Poisson brackets ---------------------------------------------------


def darboux_pairs(chart: Chart, structure: str):
    prefix = "q_" if structure == "even" else "ys_"
    pairs = [(v, chart.var(prefix + v.name)) for v in _paired(chart, prefix)]
    if not pairs:
        raise StructureError(
            f"chart {chart.name!r} has no {'momentum' if structure == 'even' else 'antimomentum'} pairs")
    return pairs


def poisson_bracket(a: SuperSeries, b: SuperSeries, structure: str = "even") -> SuperSeries:
    """Canonical Darboux bracket (even on T*, odd on PiT* charts)."""
    if structure not in ("even", "odd"):
        raise ValueError("structure must be 'even' or 'odd'")
    if a.is_zero():
        return SuperSeries.zero(a.chart, a.order)
    fa = a.parity()
    if fa is None:
        raise ParityError("bracket needs a parity-homogeneous first argument")
    pairs = darboux_pairs(a.chart, structure)
    sigma = 0 if structure == "even" else 1
    out = SuperSeries.zero(a.chart, a.order)
    for v, m in pairs:
        av = v.parity
        # Koszul signs for left derivatives, fixed by the Darboux
        # normalization {x^a, x*_a} = 1 together with graded
        # antisymmetry, Leibniz and Jacobi.
        s1 = -1 if (av & (fa ^ 1)) else 1
        if sigma == 0:
            s2 = -1 if (1 ^ (av & fa)) else 1
        else:
            s2 = -1 if (av ^ fa ^ (av & fa)) else 1
        out = out + mul(partial(a, v.name), partial(b, m.name)).scale(s1)
        out = out + mul(partial(a, m.name), partial(b, v.name)).scale(s2)
    return out


# -- the six identification cases ---------------------------------------


@dataclass(frozen=True)
class IdentificationCase:
    """One natural (co)tangent-bundle identification, checked in coordinates."""
    name: str
    description: str


IDENTIFICATION_CASES: Dict[str, IdentificationCase] = {
    "MX": IdentificationCase(
        "MX", "T*E = T*(E*): fiber coordinate u_i = p_i, dual momentum p^i = -(-1)^i u^i"),
    "oddMX": IdentificationCase(
        "oddMX", "PiT*E = PiT*(PiE*): xi_i = u*_i, xi*^i = -u^i"),
    "Tulczyjew": IdentificationCase(
        "Tulczyjew", "T(T*M) = T*(TM): theta_TM = dot(theta_M)"),
    "oddTulczyjew": IdentificationCase(
        "oddTulczyjew", "T(PiT*M) = PiT*(TM): lambda_TM = dot(lambda_M)"),
    "antiTulczyjew": IdentificationCase(
        "antiTulczyjew", "PiT(PiT*M) = T*(PiTM): theta_PiTM = -par(lambda_M)"),
    "oddAntiTulczyjew": IdentificationCase(
        "oddAntiTulczyjew", "PiT(T*M) = PiT*(PiTM): lambda_PiTM = -par(theta_M)"),
}


def _base_form(chart: Chart, mom_prefix: str, order: int) -> SuperSeries:
    """theta_M or lambda_M restricted to underived coordinate pairs."""
    out = SuperSeries.zero(chart, order)
    for v in _paired(chart, mom_prefix):
        if v.name.startswith(("dot_", "par_")):
            continue
        out = out + mul(SuperSeries.of_var(chart, "d_" + v.name, order),
                        SuperSeries.of_var(chart, mom_prefix + v.name, order))
    return out


def verify_identification(case, base_chart: Chart,
                          fiber: Optional[Sequence[Variable]] = None,
                          order: int = 6) -> Report:
    """Check the Legendre/symplectic/lift identities for one case.

    ``fiber`` supplies the vector-bundle fiber parities for the two
    Mackenzie-Xu cases; the Tulczyjew-type cases ignore it.
    """
    if isinstance(case, IdentificationCase):
        case = case.name
    if case not in IDENTIFICATION_CASES:
        raise ValueError(f"unknown identification case {case!r}")
    report = Report(f"identification:{case}:{base_chart.name}")

    if case in ("MX", "oddMX"):
        if fiber is None:
            fiber = [Variable("u_%d" % i, v.parity) for i, v in enumerate(base_chart)]
        total = Chart(f"E({base_chart.name})",
                      tuple(base_chart.variables) + tuple(fiber))
        mom = TSTAR if case == "MX" else PITSTAR
        prefix = _PREFIX[mom]
        chart = extend_d(extend_chart(total, mom))
        one_form = liouville(chart, "theta" if case == "MX" else "lambda", order)
        var = lambda n: SuperSeries.of_var(chart, n, order)
        # the dual-side Liouville form, expressed through the identification
        dual = SuperSeries.zero(chart, order)
        for v in base_chart:
            dual = dual + mul(var("d_" + v.name), var(prefix + v.name))
        pairing = SuperSeries.zero(chart, order)
        for u in fiber:
            mu = prefix + u.name
            if case == "MX":
                dual_mom = -var(u.name) if u.parity == EVEN else var(u.name)
            else:
                dual_mom = -var(u.name)
            dual = dual + mul(var("d_" + mu), dual_mom)
            pairing = pairing + mul(var(u.name), var(mu))
        report.check_zero("legendre", dual - (-apply_operator(pairing, "d") + one_form))
        report.check_zero("symplectic", apply_operator(dual, "d") - apply_operator(one_form, "d"))
        literal = SuperSeries.zero(chart, order)
        for v in total:
            mu = prefix + v.name
            term = mul(var("d_" + mu), var("d_" + v.name))
            if case == "oddMX" and v.parity == EVEN:
                term = -term  # the (-1)^(a+1) factor of the odd symplectic form
            literal = literal + term
        report.check_zero("omega_literal", apply_operator(one_form, "d") - literal)
        return report

    layout = {
        "Tulczyjew": (TSTAR, T, "theta_TM", "theta", "dot", 1),
        "oddTulczyjew": (PITSTAR, T, "lambda_TM", "lambda", "dot", 1),
        "antiTulczyjew": (PITSTAR, PIT, "theta_PiTM", "lambda", "par", -1),
        "oddAntiTulczyjew": (TSTAR, PIT, "lambda_PiTM", "theta", "par", -1),
    }
    mom_kind, tan_kind, lifted_name, base_name, op, sign = layout[case]
    chart = extend_d(extend_chart(extend_chart(base_chart, mom_kind), tan_kind))
    lifted = liouville(chart, lifted_name, order)
    base = _base_form(chart, _PREFIX[mom_kind], order)
    report.check_zero("lift", lifted - apply_operator(base, op).scale(sign))
    report.check_zero("omega",
                      apply_operator(lifted, "d")
                      - apply_operator(apply_operator(base, "d"), op).scale(-sign if op == "par" else sign))
    return report


# -- coordinate-change prolongation --------------------------------------


def _invert_fraction_matrix(mat):
    """Gaussian inversion over exact rationals; None if singular."""
    n = len(mat)
    a = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def prolong_coordinate_change(F: Mapping[str, SuperSeries], base_chart: Chart,
                              kinds: Sequence[str], order: int,
                              with_d: bool = True):
    """Extend a polynomial base change to a full bundle chart.

    Velocities transform by formal differentiation, momenta and
    antimomenta by the formally inverted Jacobian (to base degree
    ``order``), and the d-level by applying d to every image.  Returns
    ``(chart, sigma)`` with sigma mapping every chart variable name to
    its image series.
    """
    stages = [list(v.name for v in base_chart)]
    chart = base_chart
    for kind in kinds:
        chart = extend_chart(chart, kind)
        stages.append([v.name for v in chart])
    if with_d:
        pre_d = [v.name for v in chart]
        chart = extend_d(chart)

    s_order = max(order, 2 * (len(kinds) + 1))
    sigma: Dict[str, SuperSeries] = {}
    for v in base_chart:
        img = F[v.name]
        if img.chart != base_chart:
            raise ValueError("base change images must live on the base chart")
        sigma[v.name] = embed(img, chart, s_order)

    def d_of(series):
        return apply_operator(series, "d")

    for kind, names in zip(kinds, stages):
        prefix = _PREFIX[kind]
        if kind in (T, PIT):
            op = "dot" if kind == T else "par"
            for name in names:
                sigma[prefix + name] = apply_operator(sigma[name], op)
        else:
            # solve sum_v K_b^v sigma(mu_v) = mu_b, K_b^v = left d(sigma v)/d b
            K = {}
            for vname in names:
                for bname in names:
                    K[(bname, vname)] = partial(sigma[vname], bname)
            n = len(names)
            K0 = [[K[(b, v)].constant_term() for v in names] for b in names]
            K0inv = _invert_fraction_matrix(K0)
            if K0inv is None:
                raise ValueError("coordinate change has non-invertible linear part")
            mu = [SuperSeries.of_var(chart, prefix + v, s_order) for v in names]
            u = [SuperSeries.zero(chart, s_order) for _ in names]
            for _ in range(order + 1):
                new = []
                for i in range(n):
                    acc = SuperSeries.zero(chart, s_order)
                    for b in range(n):
                        if K0inv[i][b]:
                            resid = mu[b]
                            for w in range(n):
                                dk = K[(names[b], names[w])] - K0[b][w]
                                if not dk.is_zero():
                                    resid = resid - mul(dk, u[w])
                            acc = acc + resid.scale(K0inv[i][b])
                    new.append(truncate_base_degree(acc, order))
                u = new
            for v, img in zip(names, u):
                sigma[prefix + v] = img
    if with_d:
        for name in pre_d:
            sigma["d_" + name] = d_of(sigma[name])
    return chart, sigma
