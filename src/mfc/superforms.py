"""(Anti)tangent and (anti)cotangent chart machinery.

``BUNDLES`` is the single source of the derived-variable prefixes and
parities: each extension gives every variable v a partner ``prefix + v``.

    T       dot_<v>   same parity      (velocities)
    PiT     par_<v>   flipped parity   (odd velocities)
    T*      q_<v>     same parity      (momenta, weight 1)
    PiT*    ys_<v>    flipped parity   (antimomenta, weight 1)
    d       d_<v>     flipped parity   (the form level)

``COTANGENT`` maps a morphism kind, and the Poisson structure of the same
name, to the bundle of its momenta.  Each other bundle is tangent-type and
names its derivation, which maps v to its partner there: the lift through
T or PiT and the differential at the d or PiT level are ``apply_operator``
by that key.  d and PiT anticommute, T commutes with both.  A derived
variable is told by its ``base`` (the variable it is the partner of), never
by its name: a coordinate may be called ``d_y`` or ``dot_z``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

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
    cached_chart,
    chart_cache,
    deriv,
    embed,
    mul,
    partial,
    total,
    truncate_base_degree,
)


class Bundle(NamedTuple):
    """How one extension derives the partner of a variable v."""
    prefix: str
    shift: int  # added to v's parity, mod 2
    role: str
    weight: Optional[int]  # None: the partner keeps v's weight


T = "T"
PIT = "PiT"
TSTAR = "T*"
PITSTAR = "PiT*"
D = "d"

BUNDLES: Dict[str, Bundle] = {
    T: Bundle("dot_", EVEN, ROLE_VELOCITY, None),
    PIT: Bundle("par_", ODD, ROLE_ODD_VELOCITY, None),
    TSTAR: Bundle("q_", EVEN, ROLE_MOMENTUM, 1),
    PITSTAR: Bundle("ys_", ODD, ROLE_ANTIMOMENTUM, 1),
    D: Bundle("d_", ODD, ROLE_ODD_VELOCITY, None),
}

COTANGENT = {"even": TSTAR, "odd": PITSTAR}


class StructureError(ValueError):
    """The chart lacks the bundle structure an operation requires."""


def partner(name: str, bundle: str) -> str:
    """The name of ``name``'s derived variable in one bundle extension."""
    return BUNDLES[bundle].prefix + name


def _is_form_level(v: Variable) -> bool:
    """Whether ``v`` is the d-level partner of its base, as ``extend_chart`` makes it."""
    return v.base is not None and v.name == partner(v.base, D)


def kind_parity(kind: str) -> int:
    """The parity of a kind's S = phi^i(x) m_i: its momenta's parity shift."""
    return BUNDLES[COTANGENT[kind]].shift


@chart_cache
def fiber_variables(variables: Tuple[Variable, ...], bundle: str) -> Tuple[Variable, ...]:
    """The partners one bundle extension appends to a chart of ``variables``."""
    b = BUNDLES[bundle]
    return tuple(Variable(b.prefix + v.name, v.parity ^ b.shift, b.role,
                          v.weight if b.weight is None else b.weight, base=v.name)
                 for v in variables)


def extend_chart(chart: Chart, bundle: str) -> Chart:
    """Append the derived variables of one bundle extension (any key of
    ``BUNDLES``, the d level included); equal inputs give one chart."""
    if bundle not in BUNDLES:
        raise ValueError(f"unknown bundle {bundle!r}")
    fiber = fiber_variables(chart.variables, bundle)
    return cached_chart(f"{bundle}({chart.name})", chart.variables + fiber)


def apply_operator(a: SuperSeries, bundle: str) -> SuperSeries:
    """Apply the derivation a tangent-type bundle (T, PiT or d) names, of its parity
    shift, as ``deriv`` images (partner, sign): v maps to its partner, d_v to -d_par_v
    under PiT and to d_dot_v under T, kept on the chart once ``deriv`` accepts them.
    A cotangent bundle names no derivation."""
    if bundle not in BUNDLES or bundle in COTANGENT.values():
        raise ValueError(f"bundle {bundle!r} names no derivation")
    shift, chart = BUNDLES[bundle].shift, a.chart
    if (images := chart.images.get(bundle)) is None:
        images = {}
        for v in chart:
            target, sign = partner(v.name, bundle), 1
            if _is_form_level(v):  # d_u
                if bundle == D:
                    continue
                target = partner(partner(v.base, bundle), D)
                sign = -1 if shift else 1
            if target in chart:
                images[v.name] = (target, sign)
    out = deriv(a, images, shift)
    chart.images[bundle] = images
    return out


def de_rham(omega: SuperSeries, level: str) -> SuperSeries:
    """The exterior differential at the requested level (``D`` or ``PIT``)."""
    if level not in (D, PIT):
        raise ValueError(f"level must be {D!r} or {PIT!r}")
    chart = omega.chart
    if not any(partner(v.name, level) in chart for v in chart):
        raise StructureError(f"chart {chart.name!r} carries no {level}-level")
    return apply_operator(omega, level)


# -- Liouville forms ----------------------------------------------------


def _paired(chart: Chart, bundle: str):
    """Coordinates v (not form-level) whose ``bundle`` partner exists."""
    return [v for v in chart if not _is_form_level(v) and partner(v.name, bundle) in chart]


# name -> (the bundle of the momenta, the tangent bundle it is lifted
# through, or None for the canonical form of the cotangent bundle itself)
LIOUVILLE_FORMS = {
    "theta": (TSTAR, None),
    "lambda": (PITSTAR, None),
    "theta_TM": (TSTAR, T),
    "lambda_TM": (PITSTAR, T),
    "theta_PiTM": (PITSTAR, PIT),
    "lambda_PiTM": (TSTAR, PIT),
}


def liouville(chart: Chart, which: str, order: int) -> SuperSeries:
    """A canonical 1-form as its literal coordinate expression: sum_v d_v m_v
    over the underived coordinates v with momenta m_v, or lifted through tan,
    sum_v +-d_v tan(m_v) + d_tan(v) m_v with -1 only for odd v under PiT."""
    if which not in LIOUVILLE_FORMS:
        raise ValueError(f"unknown Liouville form {which!r}")
    mom, tan = LIOUVILLE_FORMS[which]
    var = lambda name: SuperSeries.of_var(chart, name, order)
    dv = lambda name: var(partner(name, D))
    zero = SuperSeries.zero(chart, order)
    if tan is None:
        pairs = [v.name for v in _paired(chart, mom) if v.base is None]
        if not pairs:
            raise StructureError(f"no {BUNDLES[mom].role} pairs on this chart")
        return total((mul(dv(v), var(partner(v, mom))) for v in pairs), zero)
    pairs = [v for v in _paired(chart, mom) if partner(v.name, tan) in chart
             and partner(partner(v.name, mom), tan) in chart]
    if not pairs:
        raise StructureError(f"chart is not a {tan} prolongation of a {mom} bundle")
    parts = []
    for v in pairs:
        sign = -1 if BUNDLES[tan].shift & v.parity else 1
        parts.append(mul(dv(v.name), var(partner(partner(v.name, mom), tan))).scale(sign))
        parts.append(mul(dv(partner(v.name, tan)), var(partner(v.name, mom))))
    return total(parts, zero)


# -- Poisson brackets ---------------------------------------------------


def poisson_bracket(a: SuperSeries, b: SuperSeries, structure: str = "even") -> SuperSeries:
    """Canonical Darboux bracket (even on T*, odd on PiT* charts)."""
    if structure not in COTANGENT:
        raise ValueError("structure must be 'even' or 'odd'")
    if a.is_zero():
        return SuperSeries.zero(a.chart, a.order)
    fa = a.parity()
    if fa is None:
        raise ParityError("bracket needs a parity-homogeneous first argument")
    bundle = COTANGENT[structure]
    pairs = [(v, a.chart.var(partner(v.name, bundle))) for v in _paired(a.chart, bundle)]
    if not pairs:
        raise StructureError(f"chart {a.chart.name!r} has no {BUNDLES[bundle].role} pairs")
    sigma = BUNDLES[bundle].shift
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

# case -> the Liouville form it checks; each comment names the identification
IDENTIFICATION_CASES: Dict[str, str] = {
    "MX": "theta",  # T*E = T*(E*): fiber u_i = p_i, dual momentum p^i = -(-1)^i u^i
    "oddMX": "lambda",  # PiT*E = PiT*(PiE*): xi_i = u*_i, xi*^i = -u^i
    "Tulczyjew": "theta_TM",  # T(T*M) = T*(TM): theta_TM = dot(theta_M)
    "oddTulczyjew": "lambda_TM",  # T(PiT*M) = PiT*(TM): lambda_TM = dot(lambda_M)
    "antiTulczyjew": "theta_PiTM",  # PiT(PiT*M) = T*(PiTM): theta_PiTM = -par(lambda_M)
    "oddAntiTulczyjew": "lambda_PiTM",  # PiT(T*M) = PiT*(PiTM): lambda_PiTM = -par(theta_M)
}


def verify_identification(case: str, base_chart: Chart, order: int,
                          fiber: Optional[Sequence[Variable]] = None) -> Report:
    """Check the Legendre/symplectic/lift identities for one case.  ``fiber``
    gives the fiber parities of the two Mackenzie-Xu cases; the others ignore it."""
    if case not in IDENTIFICATION_CASES:
        raise ValueError(f"unknown identification case {case!r}")
    form = IDENTIFICATION_CASES[case]
    mom, tan = LIOUVILLE_FORMS[form]
    report = Report()

    if tan is None:  # Mackenzie-Xu: the canonical form of T*E or PiT*E itself
        shift = BUNDLES[mom].shift
        if fiber is None:
            fiber = [Variable("u_%d" % i, v.parity) for i, v in enumerate(base_chart)]
        total_space = Chart(f"E({base_chart.name})", tuple(base_chart.variables) + tuple(fiber))
        chart = extend_chart(extend_chart(total_space, mom), D)
        one_form = liouville(chart, form, order)
        var = lambda n: SuperSeries.of_var(chart, n, order)
        # the dual-side Liouville form, expressed through the identification
        dual = sum((mul(var(partner(v.name, D)), var(partner(v.name, mom))) for v in base_chart),
                   SuperSeries.zero(chart, order))
        pairing = SuperSeries.zero(chart, order)
        for u in fiber:
            mu = partner(u.name, mom)
            dual_mom = var(u.name) if u.parity == ODD and not shift else -var(u.name)
            dual = dual + mul(var(partner(mu, D)), dual_mom)
            pairing = pairing + mul(var(u.name), var(mu))
        report.check_zero("legendre", dual - (-apply_operator(pairing, D) + one_form))
        report.check_zero("symplectic", apply_operator(dual, D) - apply_operator(one_form, D))
        sign = lambda v: -1 if shift and v.parity == EVEN else 1  # (-1)^(a+1) of the odd form
        literal = total((mul(var(partner(partner(v.name, mom), D)), var(partner(v.name, D)))
                         .scale(sign(v)) for v in total_space), SuperSeries.zero(chart, order))
        report.check_zero("omega_literal", apply_operator(one_form, D) - literal)
        return report

    base_form = next(f for f, (m, t) in LIOUVILLE_FORMS.items() if m == mom and t is None)
    chart = extend_chart(extend_chart(extend_chart(base_chart, mom), tan), D)
    lifted = liouville(chart, form, order)
    base = liouville(chart, base_form, order)
    # the lift is dot(base) through T and -par(base) through PiT; on the
    # 2-forms par's sign cancels against d and par anticommuting
    sign = -1 if BUNDLES[tan].shift else 1
    report.check_zero("lift", lifted - apply_operator(base, tan).scale(sign))
    report.check_zero("omega", apply_operator(lifted, D)
                      - apply_operator(apply_operator(base, D), tan))
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
                              kinds: Sequence[str], order: int):
    """Extend a polynomial base change to a full bundle chart.

    Velocities transform by formal differentiation, momenta and
    antimomenta by the formally inverted Jacobian (to base degree
    ``order``), and the d-level by applying d to every image.  Returns
    ``(chart, sigma)`` with sigma mapping every chart variable name to
    its image series.
    """
    stages = []  # (bundle, the names it derives partners of)
    chart = base_chart
    for bundle in (*kinds, D):
        stages.append((bundle, [v.name for v in chart]))
        chart = extend_chart(chart, bundle)

    # Every bundle weight is 0 or 1, and a chart takes T* and PiT* at most once
    # each (a second q_<v> is a duplicate variable).  Each cotangent solve is
    # linear in its own momenta, with coefficients from earlier stages, so no
    # image weighs more than the number of cotangent stages.
    s_order = max(order, sum(b in COTANGENT.values() for b in kinds))
    sigma: Dict[str, SuperSeries] = {}
    for v in base_chart:
        img = F[v.name]
        if img.chart != base_chart:
            raise ValueError("base change images must live on the base chart")
        sigma[v.name] = embed(img, chart, s_order)

    for bundle, names in stages:
        if bundle not in COTANGENT.values():
            for name in names:
                sigma[partner(name, bundle)] = apply_operator(sigma[name], bundle)
        else:
            # solve sum_v K_b^v sigma(mu_v) = mu_b, K_b^v = left d(sigma v)/d b,
            # by sweeping u <- K0^-1 (mu - dK u) with dK = K - K0
            K = [[partial(sigma[v], b) for v in names] for b in names]
            K0 = [[k.constant_term() for k in row] for row in K]
            K0inv = _invert_fraction_matrix(K0)
            if K0inv is None:
                raise ValueError("coordinate change has non-invertible linear part")
            dK = [[k - c for k, c in zip(row, row0)] for row, row0 in zip(K, K0)]
            zero = SuperSeries.zero(chart, s_order)
            mu = [SuperSeries.of_var(chart, partner(v, bundle), s_order) for v in names]
            u = [zero] * len(names)
            # u starts at 0, so its first error, the solution, is linear in
            # mu and has base degree + weight >= 1.  Every monomial of dK has
            # base degree + weight >= 1, so a sweep raises that sum by one in
            # u's error; the truncations keep it at most order + s_order, so
            # the error is gone after that many sweeps, and the next sweep
            # leaves u unchanged.
            for _ in range(order + s_order + 1):
                resid = [m - sum((mul(k, uw) for k, uw in zip(row, u)), zero)
                         for m, row in zip(mu, dK)]
                new = [truncate_base_degree(
                           sum((r.scale(c) for r, c in zip(resid, row) if c), zero), order)
                       for row in K0inv]
                if new == u:
                    break
                u = new
            else:
                raise ValueError("momentum solve did not converge")
            for v, img in zip(names, u):
                sigma[partner(v, bundle)] = img
    return chart, sigma
