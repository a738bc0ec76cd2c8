"""Kernel tests: Koszul signs, left derivatives, substitution, filtration."""

import itertools
import random
from fractions import Fraction

import pytest

from mfc import superalg
from mfc.superalg import (
    EVEN,
    ODD,
    ROLE_ANTIMOMENTUM,
    ROLE_MOMENTUM,
    ROLE_PARAM,
    Chart,
    ChartMismatch,
    ParityError,
    SuperSeries,
    Variable,
    deriv,
    embed,
    mul,
    partial,
    set_to_zero,
    shift_down,
    substitute,
    truncate,
)
from mfc.testkit import Generator
from mfc.textio import parse_series

ORDER = 6


def make_chart():
    return Chart("M", [Variable("x", EVEN), Variable("y", EVEN),
                       Variable("th", ODD), Variable("et", ODD)])


def var(chart, name):
    return SuperSeries.of_var(chart, name, ORDER)


class TestMul:
    def test_odd_pair_sign(self):
        c = make_chart()
        th, et = var(c, "th"), var(c, "et")
        assert mul(th, et) == SuperSeries.monomial(c, {"th": 1, "et": 1}, 1, ORDER)
        assert mul(et, th) == SuperSeries.monomial(c, {"th": 1, "et": 1}, -1, ORDER)

    def test_odd_square_vanishes(self):
        c = make_chart()
        assert mul(var(c, "th"), var(c, "th")).is_zero()

    def test_even_commutes(self):
        c = make_chart()
        x, y = var(c, "x"), var(c, "y")
        assert mul(x, y) == mul(y, x)

    def test_chart_mismatch(self):
        c = make_chart()
        other = Chart("N", [Variable("z", EVEN)])
        with pytest.raises(ChartMismatch):
            mul(var(c, "x"), SuperSeries.of_var(other, "z", ORDER))
        with pytest.raises(ChartMismatch, match=f"filtration mismatch: {ORDER} vs {ORDER - 1}"):
            mul(var(c, "x"), SuperSeries.of_var(c, "y", ORDER - 1))

    def test_supercommutativity_random(self):
        gen = Generator(5)
        chart = gen.chart(2, 2)
        for _ in range(40):
            pa = gen.rng.choice([EVEN, ODD])
            pb = gen.rng.choice([EVEN, ODD])
            a = gen.series(chart, ORDER, parity=pa, n_terms=3, max_degree=4)
            b = gen.series(chart, ORDER, parity=pb, n_terms=3, max_degree=4)
            sign = -1 if (pa and pb) else 1
            assert mul(a, b) == mul(b, a).scale(sign)


class TestPartial:
    def test_left_derivative_odd(self):
        c = make_chart()
        thet = mul(var(c, "th"), var(c, "et"))
        assert partial(thet, "th") == var(c, "et")
        assert partial(thet, "et") == -var(c, "th")

    def test_even_power(self):
        c = make_chart()
        a = mul(var(c, "x") ** 2, var(c, "y"))
        assert partial(a, "x") == mul(var(c, "x"), var(c, "y")).scale(2)

    def test_graded_leibniz_random(self):
        gen = Generator(6)
        chart = gen.chart(2, 2)
        for _ in range(30):
            pa = gen.rng.choice([EVEN, ODD])
            a = gen.series(chart, ORDER, parity=pa, n_terms=3, max_degree=3)
            b = gen.series(chart, ORDER, n_terms=3, max_degree=3)
            v = gen.rng.choice(chart.variables)
            lhs = partial(mul(a, b), v.name)
            sign = -1 if (v.parity and pa) else 1
            rhs = mul(partial(a, v.name), b) + mul(a, partial(b, v.name)).scale(sign)
            assert lhs == rhs

    def test_second_derivatives_graded_symmetric(self):
        gen = Generator(7)
        chart = gen.chart(2, 2)
        for _ in range(30):
            a = gen.series(chart, ORDER, n_terms=4, max_degree=4)
            u = gen.rng.choice(chart.variables)
            v = gen.rng.choice(chart.variables)
            sign = -1 if (u.parity and v.parity) else 1
            assert partial(partial(a, u.name), v.name) == \
                partial(partial(a, v.name), u.name).scale(sign)


class TestSubstitute:
    def test_polynomial_shift(self):
        c = Chart("M", [Variable("x", EVEN), Variable("q", EVEN, weight=1)])
        x = SuperSeries.of_var(c, "x", ORDER)
        q = SuperSeries.of_var(c, "q", ORDER)
        out = substitute(x ** 2, {"x": x + q}, chart=c, order=ORDER)
        assert out == x ** 2 + mul(x, q).scale(2) + q ** 2

    def test_identity(self):
        c = make_chart()
        assert substitute(var(c, "th"), {}, chart=c, order=ORDER) == var(c, "th")

    def test_odd_swap_sign(self):
        c = make_chart()
        th, et = var(c, "th"), var(c, "et")
        out = substitute(mul(th, et), {"th": et, "et": th}, chart=c, order=ORDER)
        assert out == -mul(th, et)

    def test_parity_mismatch_rejected(self):
        c = make_chart()
        with pytest.raises(ParityError):
            substitute(var(c, "th"), {"th": var(c, "x")}, chart=c, order=ORDER)

    def test_homomorphism_random(self):
        gen = Generator(8)
        chart = gen.chart(2, 2)
        for _ in range(15):
            images = {v.name: gen.series(chart, ORDER, parity=v.parity,
                                         n_terms=2, max_degree=2)
                      for v in chart}
            a = gen.series(chart, ORDER, n_terms=3, max_degree=2)
            b = gen.series(chart, ORDER, n_terms=3, max_degree=2)
            sub = lambda s: substitute(s, images, chart=chart, order=ORDER)
            assert sub(mul(a, b)) == mul(sub(a), sub(b))
            assert sub(a + b) == sub(a) + sub(b)


class TestFiltration:
    def chart(self):
        return Chart("M", [Variable("x", EVEN),
                           Variable("q", EVEN, weight=1)])

    def test_truncate_drops_high_weight(self):
        c = self.chart()
        q = SuperSeries.of_var(c, "q", ORDER)
        assert truncate(q + q ** 2, 1) == truncate(q, 1)

    def test_truncate_keeps_base(self):
        c = self.chart()
        x = SuperSeries.of_var(c, "x", ORDER)
        xq = mul(x, SuperSeries.of_var(c, "q", ORDER))
        assert truncate(x + xq, 0) == truncate(x, 0)

    def test_truncate_full_order_is_identity(self):
        c = self.chart()
        a = SuperSeries.of_var(c, "x", ORDER) + SuperSeries.of_var(c, "q", ORDER) ** 2
        assert truncate(a, ORDER) == a

    def test_truncation_compatible_with_mul(self):
        gen = Generator(9)
        base = gen.chart(1, 1)
        c = Chart("W", tuple(base.variables) + (Variable("q", EVEN, weight=1),))
        for _ in range(20):
            a = gen.series(c, ORDER, n_terms=4, max_degree=4)
            b = gen.series(c, ORDER, n_terms=4, max_degree=4)
            n = gen.rng.randint(0, 4)
            assert truncate(mul(a, b), n) == \
                truncate(mul(truncate(a, n), truncate(b, n)), n)

    def test_nilpotent_cap(self):
        t = Variable("t", EVEN, weight=0, max_power=1)
        c = Chart("M", [t, Variable("x", EVEN)])
        ts = SuperSeries.of_var(c, "t", ORDER)
        assert mul(ts, ts).is_zero()

    def test_deriv_onto_capped_parameter(self):
        """D(x) = t for an unweighted t with max_power=1: D(x*t) = t^2 is past the
        cap, so only the cap, not the weight, cuts it."""
        c = Chart("M", [Variable("x", EVEN), Variable("t", EVEN, ROLE_PARAM, max_power=1)])
        x, t = SuperSeries.of_var(c, "x", ORDER), SuperSeries.of_var(c, "t", ORDER)
        images = {"x": ("t", 1)}
        assert deriv(mul(x, t), images, EVEN).is_zero()
        assert deriv(x ** 2 + x, images, EVEN) == mul(x, t).scale(2) + t

    def test_parsed_identifier_past_its_cap(self):
        """A variable with max_power=0 reads as zero, alone or in a sum."""
        c = Chart("M", [Variable("x", EVEN), Variable("s", EVEN, ROLE_PARAM, max_power=0)])
        assert parse_series("s", c, ORDER).is_zero()
        assert parse_series("s + x", c, ORDER) == SuperSeries.of_var(c, "x", ORDER)

    def test_truncate_refuses_a_higher_order(self):
        q = SuperSeries.of_var(self.chart(), "q", ORDER)
        with pytest.raises(ValueError, match=f"cannot extend filtration order {ORDER} to {ORDER + 1}"):
            truncate(q, ORDER + 1)


class TestHelpers:
    def test_set_to_zero(self):
        c = make_chart()
        a = var(c, "x") + mul(var(c, "x"), var(c, "th"))
        assert set_to_zero(a, ["th"]) == var(c, "x")

    def test_shift_down_exact_division(self):
        c = Chart("M", [Variable("eps", EVEN, weight=1), Variable("x", EVEN)])
        eps = SuperSeries.of_var(c, "eps", ORDER)
        x = SuperSeries.of_var(c, "x", ORDER)
        assert shift_down(mul(eps, x ** 2), "eps") == x ** 2

    def test_shift_down_refusals(self):
        c = make_chart()
        with pytest.raises(ParityError, match="shift_down needs an even variable"):
            shift_down(mul(var(c, "th"), var(c, "et")), "th")
        with pytest.raises(ValueError, match="term without a factor of 'x'"):
            shift_down(mul(var(c, "x"), var(c, "y")) + var(c, "y"), "x")

    def test_reprs_and_foreign_equality(self):
        c = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        assert repr(c) == "Chart('M': x, th)"
        a = SuperSeries.of_var(c, "x", 2) + 1
        assert repr(a) == "<1 + x on 'M' order 2>"
        assert a.__eq__("x") is NotImplemented and a != "x"

    def test_variable_and_power_refusals(self):
        with pytest.raises(ParityError, match="bad parity for 'x': 2"):
            Variable("x", 2)
        with pytest.raises(ValueError, match="weight must be nonnegative"):
            Variable("q", EVEN, ROLE_MOMENTUM, weight=-1)
        with pytest.raises(ValueError, match="negative powers are not supported"):
            var(make_chart(), "x") ** -1

    def test_deriv_is_graded_derivation(self):
        """An odd derivation built from images satisfies the sign rule."""
        c = make_chart()
        images = {"x": ("th", 1), "th": ("x", 1)}
        a = var(c, "x") ** 2
        b = mul(var(c, "th"), var(c, "et"))
        lhs = deriv(mul(a, b), images, ODD)
        rhs = mul(deriv(a, images, ODD), b) + mul(a, deriv(b, images, ODD))
        assert lhs == rhs

    def test_deriv_refuses_bad_images(self):
        c = make_chart()
        a = mul(var(c, "x"), var(c, "th"))
        with pytest.raises(ParityError):
            deriv(a, {"x": ("y", 1)}, ODD)  # an odd D takes even x to an odd variable
        with pytest.raises(ParityError):
            deriv(a, {"th": ("x", -1)}, EVEN)
        with pytest.raises(KeyError, match="'z'"):
            deriv(a, {"x": ("z", 1)}, EVEN)
        with pytest.raises(KeyError, match="'z'"):
            deriv(a, {"z": ("x", 1)}, EVEN)

    def test_embed_preserves_terms(self):
        c = make_chart()
        bigger = Chart("M2", tuple(c.variables) + (Variable("z", EVEN),))
        a = mul(var(c, "th"), var(c, "et")) + var(c, "x")
        moved = embed(a, bigger, ORDER)
        assert variables_used(moved) == {"th", "et", "x"}
        # a smaller chart needs only the variables that occur in some term
        smaller = Chart("M3", [c.var("x"), c.var("th"), c.var("et")])
        assert embed(a, smaller, ORDER) == (
            SuperSeries.monomial(smaller, {"th": 1, "et": 1}, 1, ORDER) + var(smaller, "x"))
        with pytest.raises(KeyError, match="'th'"):
            embed(a, Chart("M4", [c.var("x"), c.var("et")]), ORDER)
        # truncated at ``order`` and at the target chart's caps
        w = Chart("W", [Variable("eps", EVEN, ROLE_PARAM, weight=1), c.var("x")])
        capped = Chart("W1", [Variable("eps", EVEN, ROLE_PARAM, weight=1, max_power=1),
                              c.var("x")])
        b = (SuperSeries.monomial(w, {"eps": 1}, 2, ORDER)
             + SuperSeries.monomial(w, {"eps": 2, "x": 1}, 3, ORDER))
        low = embed(b, w, 1)
        assert low.order == 1 and low == SuperSeries.monomial(w, {"eps": 1}, 2, 1)
        assert embed(b, capped, ORDER) == SuperSeries.monomial(capped, {"eps": 1}, 2, ORDER)


def variables_used(a):
    """Names of the variables that occur in some term of ``a``."""
    return {a.chart.variables[i].name for m in a.terms for i, e in enumerate(m) if e}


# -- reference kernel ----------------------------------------------------
#
# The term-by-term Fraction product the kernel used before it summed
# integer numerators, kept as the oracle; the reference derivation and
# substitution below are built on it.


def _ref_mul_mono(chart, m1, m2):
    """Merge two canonical monomials; return (monomial, sign) or (None, 0)."""
    sign = 1
    above = 0  # odd factors of m1 strictly to the right of the current slot
    for i in reversed(chart.odd_indices):
        if m2[i]:
            if m1[i]:
                return None, 0
            if above & 1:
                sign = -sign
        if m1[i]:
            above += 1
    out = tuple(a + b for a, b in zip(m1, m2))
    if not all(map(_ref_within_cap, out, chart)):
        return None, 0
    return out, sign


def _ref_within_cap(e, v):
    """Whether exponent e of variable v is within its cap, read off the variable
    itself: an odd one squares to zero, an even one stops at max_power if set."""
    return e <= 1 if v.parity else v.max_power is None or e <= v.max_power


def ref_mul(a, b):
    chart = a.chart
    order = a.order
    wcache = {m: chart.mono_weight(m) for m in b.terms}
    out = {}
    for m1, c1 in a.terms.items():
        w1 = chart.mono_weight(m1)
        for m2, c2 in b.terms.items():
            if w1 + wcache[m2] > order:
                continue
            mono, sign = _ref_mul_mono(chart, m1, m2)
            if mono is None:
                continue
            c = out.get(mono, Fraction(0)) + sign * c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return SuperSeries(chart, out, order, _checked=True)


def ref_deriv(a, images, parity):
    """Sum over monomials and slots of sign * e * c * left * D(v) * right."""
    chart = a.chart
    n = len(chart)
    out = SuperSeries.zero(chart, a.order)
    for m, c in a.terms.items():
        prefix_parity = 0
        for k in range(n):
            e = m[k]
            if e:
                img = images.get(chart.variables[k].name)
                if img is not None:
                    left = tuple(m[:k]) + (0,) * (n - k)
                    right = list((0,) * k + tuple(m[k:]))
                    right[k] = e - 1
                    sign = -1 if (parity and prefix_parity) else 1
                    term = ref_mul(ref_mul(SuperSeries(chart, {left: 1}, a.order), img),
                                   SuperSeries(chart, {tuple(right): 1}, a.order))
                    out = out + term.scale(sign * e * c)
                prefix_parity ^= (e & 1) & chart.parities[k]
    return out


def ref_substitute(a, images, chart, order, reverse=False):
    """Sum over monomials of c * image^e * ..., one factor at a time; with
    ``reverse``, the images in the opposite order, which no algebra morphism
    gives when two odd images meet."""
    out = SuperSeries.zero(chart, order)
    for m, c in a.terms.items():
        term = SuperSeries.const(chart, c, order)
        for v, e in list(zip(a.chart.variables, m))[::-1 if reverse else 1]:
            for _ in range(e):
                term = ref_mul(term, images[v.name])
        out = out + term
    return out


REF_ORDER = 3
# coprime denominators, so sums over a common denominator must reduce
REF_COEFFS = [Fraction(1, 3), Fraction(2, 7), Fraction(-5, 6), Fraction(1),
              Fraction(-1), Fraction(3, 4), Fraction(-2, 5), Fraction(7)]


def ref_chart():
    """Odd base and momentum variables, weight-1 variables that reach the
    truncation order within one product, and a capped formal parameter."""
    return Chart("R", [Variable("x", EVEN), Variable("th", ODD),
                       Variable("q", EVEN, ROLE_MOMENTUM, weight=1),
                       Variable("y", EVEN), Variable("et", ODD),
                       Variable("p", ODD, ROLE_ANTIMOMENTUM, weight=1),
                       Variable("t", EVEN, ROLE_PARAM, weight=1, max_power=2)])


def draw(rng, chart, n_terms, parity=None):
    """A series of up to n_terms terms; high exponents of weight-1 and
    capped variables are drawn often, so products hit both limits."""
    terms = {}
    while len(terms) < n_terms:
        mono = tuple(rng.randint(0, 1) if v.parity == ODD else rng.randint(0, 2)
                     for v in chart)
        if parity is not None and chart.mono_parity(mono) != parity:
            continue
        terms[mono] = rng.choice(REF_COEFFS)
    return SuperSeries(chart, terms, REF_ORDER)


def assert_clean(s):
    assert all(type(c) is Fraction and c != 0 for c in s.terms.values())


def pairs_with_cancellations(seed, n=40):
    """Random pairs, plus pairs whose products cancel inside one call:
    (a + b)(a - b) for even a, b and a*a for odd a."""
    rng = random.Random(seed)
    chart = ref_chart()
    for _ in range(n):
        yield draw(rng, chart, rng.randint(1, 5)), draw(rng, chart, rng.randint(1, 5))
        a = draw(rng, chart, 3, EVEN)
        b = draw(rng, chart, 3, EVEN)
        yield a + b, a - b
        odd = draw(rng, chart, 4, ODD)
        yield odd, odd


class TestReferenceKernel:
    def test_mul_matches_reference(self):
        cancelled = 0
        for a, b in pairs_with_cancellations(11):
            out = mul(a, b)
            assert out.terms == ref_mul(a, b).terms
            assert_clean(out)
            if a is b and a.has_parity(ODD):
                assert out.is_zero()
            reached = {m for m in (_ref_mul_mono(a.chart, m1, m2)[0]
                                   for m1 in a.terms for m2 in b.terms)
                       if m is not None and a.chart.mono_weight(m) <= REF_ORDER}
            cancelled += len(out.terms) < len(reached)
        assert cancelled >= 20

    def test_deriv_matches_reference(self):
        """Variable images (w, sign) against the oracle given sign*w as a
        series: partners before, after and equal to v under both parities of
        D, odd partners already present, the capped parameter pushed past its
        cap, and heavier partners pushed past the order."""
        rng = random.Random(12)
        chart = ref_chart()
        seen = set()
        for _ in range(120):
            parity = rng.choice([EVEN, ODD])
            images = {}
            for v in rng.sample(list(chart), rng.randint(1, 3)):
                w = rng.choice([u for u in chart if u.parity == v.parity ^ parity])
                images[v.name] = (w.name, rng.choice([1, -1]))
            a = draw(rng, chart, rng.randint(1, 6))
            out = deriv(a, images, parity)
            series = {v: SuperSeries.of_var(chart, w, REF_ORDER).scale(sign)
                      for v, (w, sign) in images.items()}
            assert out.terms == ref_deriv(a, series, parity).terms
            assert_clean(out)
            for v, (w, _) in images.items():
                k, t = chart.index(v), chart.index(w)
                hit = [m for m in a.terms if m[k]]
                if not hit:
                    continue
                seen.add((parity, "before" if t < k else "after" if t > k else "equal"))
                if chart.parities[t] == ODD and t != k and any(m[t] for m in hit):
                    seen.add("odd present")
                cap = chart.variables[t].max_power
                if cap and t != k and any(m[t] == cap for m in hit):
                    seen.add("capped")
                if chart.weights[t] > chart.weights[k] and any(
                        chart.mono_weight(m) - chart.weights[k] + chart.weights[t] > REF_ORDER
                        for m in hit):
                    seen.add("cut")
        assert seen == {"odd present", "capped", "cut"} | {
            (parity, where) for parity in (EVEN, ODD) for where in ("before", "after")
        } | {(EVEN, "equal")}

    def test_partial_matches_reference(self):
        """Every variable of every draw: odd variables behind and ahead of
        other odd factors, the capped parameter at its cap, and variables
        that occur in no term."""
        rng = random.Random(18)
        chart = ref_chart()
        one = SuperSeries.const(chart, 1, REF_ORDER)
        odd = chart.odd_indices
        seen = set()
        for _ in range(40):
            a = draw(rng, chart, rng.randint(1, 6))
            if rng.random() < 0.25:
                a = set_to_zero(a, rng.sample([v.name for v in chart], 2))
            for k, v in enumerate(chart):
                out = partial(a, v.name)
                assert out.terms == ref_deriv(a, {v.name: one}, v.parity).terms
                assert_clean(out)
                assert (out.chart, out.order) == (chart, REF_ORDER)
                hit = [m for m in a.terms if m[k]]
                if not hit:
                    assert out.is_zero()
                    seen.add("absent")
                elif v.parity == ODD:
                    for m in hit:
                        seen.add(("odd", sum(m[i] for i in odd if i < k) % 2,
                                  any(m[i] for i in odd if i > k)))
                elif v.max_power is not None and any(m[k] == v.max_power for m in hit):
                    seen.add("capped")
        assert seen == {"absent", "capped"} | {("odd", before, after)
                                               for before in (0, 1) for after in (False, True)}

    def test_substitute_matches_reference(self):
        rng = random.Random(13)
        chart = ref_chart()
        for _ in range(30):
            images = {v.name: draw(rng, chart, rng.randint(1, 3), v.parity) for v in chart}
            # x -> u + w and y -> u - w cancel the odd-free cross terms of x*y
            u, w = draw(rng, chart, 2, EVEN), draw(rng, chart, 2, EVEN)
            images["x"], images["y"] = u + w, u - w
            a = draw(rng, chart, rng.randint(1, 5)) + \
                SuperSeries.monomial(chart, {"x": 1, "y": 1}, rng.choice(REF_COEFFS), REF_ORDER)
            out = substitute(a, images, chart=chart, order=REF_ORDER)
            assert out.terms == ref_substitute(a, images, chart, REF_ORDER).terms
            assert_clean(out)

    def test_unmapped_and_shared_images_match_reference(self):
        """Several series under one image map, some variables left unmapped
        (an identity image, empty at order 0 for a weight-1 variable and
        capped for the formal parameter), odd images shared between
        variables."""
        rng = random.Random(15)
        chart = ref_chart()
        identity = lambda v, order: SuperSeries(
            chart, {tuple(int(u is v) for u in chart): 1}, order)
        seen = set()
        for _ in range(40):
            order = rng.choice([0, REF_ORDER])
            unmapped = set(rng.sample([v.name for v in chart], rng.randint(0, 4)))
            images = {v.name: truncate(draw(rng, chart, rng.randint(1, 3), v.parity), order)
                      for v in chart if v.name not in unmapped}
            if "th" in images and "et" in images and rng.random() < 0.5:
                images["et"] = images["th"]
                seen.add("shared odd")
            full = {v.name: images[v.name] if v.name in images else identity(v, order)
                    for v in chart}
            series = [draw(rng, chart, rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
            # lone variables, where an identity image is the whole product
            series.append(SuperSeries(chart, {tuple(int(u is v) for u in chart):
                                              rng.choice(REF_COEFFS) for v in chart},
                                      REF_ORDER))
            outs = [substitute(a, images, chart=chart, order=order) for a in series]
            assert [s.terms for s in outs] == \
                [ref_substitute(a, full, chart, order).terms for a in series]
            for out in outs:
                assert_clean(out)
                assert (out.chart, out.order) == (chart, order)
            used = set().union(*(variables_used(a) for a in series))
            if order == 0 and unmapped & {"q", "p"} & used:
                seen.add("weight-1 identity at order 0")
            if "t" in unmapped & used:
                seen.add("capped identity")
        assert seen == {"shared odd", "weight-1 identity at order 0", "capped identity"}

    def test_substitute_budget_matches_reference(self):
        """Terms of 3-4 factors, at every order, whose weighted variables
        have images of least weight 1 or 2 (in every other draw one image is
        zero): each partial product leaves room for the later factors' least
        weights, and the output must not lose a term to that."""
        rng = random.Random(17)
        chart = ref_chart()
        base = [v for v in chart if not v.weight]
        weighted = [v for v in chart if v.weight]
        t = SuperSeries.of_var(chart, "t", REF_ORDER)

        def image(v, least, order):
            """v (times t when least is 2) plus terms of weight >= least."""
            while True:
                terms = {m: c for m, c in draw(rng, chart, 3, v.parity).terms.items()
                         if chart.mono_weight(m) >= least}
                if terms:
                    lead = SuperSeries.of_var(chart, v.name, REF_ORDER)
                    return truncate(lead * t ** (least - v.weight) +
                                    SuperSeries(chart, terms, REF_ORDER), order)

        seen = set()
        for order in range(REF_ORDER + 1):
            for k in range(20):
                images = {v.name: image(v, v.weight * rng.choice([1, 1, 2]), order)
                          for v in chart}
                if k % 2:
                    images[rng.choice(weighted).name] = SuperSeries.zero(chart, order)
                series = []
                for _ in range(rng.randint(1, 3)):
                    terms = {}
                    for _ in range(rng.randint(1, 3)):
                        n_base, n_weighted = rng.choice([(1, 2), (2, 1), (2, 2)])
                        picked = rng.sample(base, n_base) + rng.sample(weighted, n_weighted)
                        exps = {v.name: 1 if v.parity == ODD else rng.randint(1, 2)
                                for v in picked}
                        terms.update(SuperSeries.monomial(
                            chart, exps, rng.choice(REF_COEFFS), REF_ORDER).terms)
                    series.append(SuperSeries(chart, terms, REF_ORDER))
                outs = [substitute(a, images, chart=chart, order=order) for a in series]
                assert [s.terms for s in outs] == \
                    [ref_substitute(a, images, chart, order).terms for a in series]
                for out in outs:
                    assert_clean(out)
                    seen.add((order, bool(out.terms)))
        assert seen == {(order, nonzero) for order in range(REF_ORDER + 1)
                        for nonzero in (False, True)} - {(0, True)}

    def test_partial_products_truncated_at_budget(self, monkeypatch):
        """x*q*y*t under x -> x + q, q -> q*t + q^2, y -> y + t, t -> t at
        order 3: the later factors' least weights are 0 and 1 after x*q and
        1 after x*q*y, so both partial products stop at weight 2; only the
        last product, into the output, runs to the order."""
        chart = ref_chart()
        v = lambda name: SuperSeries.of_var(chart, name, REF_ORDER)
        x, q, y, t = v("x"), v("q"), v("y"), v("t")
        images = {"x": x + q, "q": q * t + q * q, "y": y + t, "t": t}
        term = SuperSeries.monomial(chart, {"x": 1, "q": 1, "y": 1, "t": 1},
                                    Fraction(2, 3), REF_ORDER)
        truncations = []
        products = superalg._add_products

        def recording(acc, rows_a, rows_b, order, layout):
            truncations.append(order)
            products(acc, rows_a, rows_b, order, layout)

        monkeypatch.setattr(superalg, "_add_products", recording)
        out = substitute(term, images, chart=chart, order=REF_ORDER)
        assert truncations == [2, 2, REF_ORDER]
        assert out.terms and out.terms == ref_substitute(term, images, chart, REF_ORDER).terms
        # a term of two factors multiplies once, at the order
        truncations.clear()
        substitute(SuperSeries.monomial(chart, {"x": 1, "t": 1}, 1, REF_ORDER), images,
                   chart=chart, order=REF_ORDER)
        assert truncations == [REF_ORDER]

    def test_packed_substitution_from_either_end(self):
        """``_substitute_packed`` builds a term from its first factor, each next
        image on the right, or ``from_right`` (a compose's value step) from its
        last, each next image on the left: terms of three to five factors, two
        or more of them odd, under odd images on a chart of four odd variables,
        match the reference in both orientations, the budget truncating each
        partial product.  Reversing the factors without swapping the operands,
        or the other way round, reverses the product and its sign."""
        rng = random.Random(22)
        chart = Chart("R4", ref_chart().variables + (Variable("ze", ODD),))
        odd = [v for v in chart if v.parity == ODD]
        even = [v for v in chart if v.parity == EVEN]
        signed = 0
        for _ in range(30):
            # each variable plus a draw, so that most products keep a term
            images = {v.name: SuperSeries.of_var(chart, v.name, REF_ORDER)
                      + draw(rng, chart, rng.randint(1, 3), v.parity) for v in chart}
            series = []
            for _ in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    picked = rng.sample(odd, rng.randint(2, 3)) + rng.sample(even, rng.randint(1, 2))
                    exps = {v.name: 1 if v.parity == ODD else rng.randint(1, 2) for v in picked}
                    # at an order past the weights, so that no source term drops
                    terms.update(SuperSeries.monomial(
                        chart, exps, rng.choice(REF_COEFFS), 4 * REF_ORDER).terms)
                series.append(SuperSeries(chart, terms, 4 * REF_ORDER))
            want = [ref_substitute(a, images, chart, REF_ORDER).terms for a in series]
            dens = {name: superalg._common_denominator(img.terms.values())
                    for name, img in images.items()}
            for from_right in (False, True):
                def run(layout):
                    packed = {name: (layout.rows(img.terms, dens[name]), dens[name])
                              for name, img in images.items()}
                    sums = superalg._substitute_packed(
                        layout, chart, REF_ORDER, chart, [superalg._terms(a) for a in series],
                        packed, from_right)
                    return [layout.series(chart, acc, den, REF_ORDER).terms for acc, den in sums]

                assert superalg._widening(chart, run) == want
            signed += any(ref_substitute(a, images, chart, REF_ORDER, reverse=True).terms != w
                          for a, w in zip(series, want))
        assert signed >= 20

    def test_square_closed_form(self):
        """x -> y + th1*th3 + th2*th4 on four odd variables: the product of
        the two odd pairs takes a minus sign in either order, so x^2 goes to
        y^2 + 2y*th1*th3 + 2y*th2*th4 - 2*th1*th2*th3*th4 and x^3 to
        y^3 + 3y^2*th1*th3 + 3y^2*th2*th4 - 6y*th1*th2*th3*th4."""
        chart = Chart("Q", [Variable("x", EVEN), Variable("y", EVEN)]
                      + [Variable(f"th{i}", ODD) for i in range(1, 5)])
        mono = lambda coeff, **exps: SuperSeries.monomial(chart, exps, coeff, ORDER)
        image = mono(1, y=1) + mono(1, th1=1, th3=1) + mono(1, th2=1, th4=1)
        square = (mono(1, y=2) + mono(2, y=1, th1=1, th3=1) + mono(2, y=1, th2=1, th4=1)
                  - mono(2, th1=1, th2=1, th3=1, th4=1))
        cube = (mono(1, y=3) + mono(3, y=2, th1=1, th3=1) + mono(3, y=2, th2=1, th4=1)
                - mono(6, y=1, th1=1, th2=1, th3=1, th4=1))
        assert substitute(mono(1, x=2), {"x": image}, chart=chart, order=ORDER) == square
        assert substitute(mono(1, x=3), {"x": image}, chart=chart, order=ORDER) == cube
        assert mul(image, image) == square

    def test_powers_match_reference(self):
        """Even variables at exponents 2 and 3 under even images, on a chart
        with four odd variables, so that two rows of an image hold disjoint
        odd pairs whose product may take a minus sign; the capped parameter t
        (max_power 2) drops t^3 at weight 3."""
        rng = random.Random(19)
        chart = Chart("R4", ref_chart().variables + (Variable("ze", ODD),))
        evens = [v for v in chart if v.parity == EVEN]
        odds = [v.name for v in chart if v.parity == ODD]
        t = chart.index("t")

        def image():
            """An even variable, plus two more times the two halves of a
            random split of the odd variables (a minus sign in one split of
            three)."""
            split = rng.sample(odds, 4)
            terms = {}
            for odd in ([], split[:2], split[2:]):
                exps = dict.fromkeys([rng.choice(evens).name, *odd], 1)
                terms.update(SuperSeries.monomial(
                    chart, exps, rng.choice(REF_COEFFS), REF_ORDER).terms)
            return SuperSeries(chart, terms, REF_ORDER)

        seen = set()
        for _ in range(40):
            images = {v.name: image() for v in evens}
            terms = {}
            for _ in range(rng.randint(1, 3)):
                exps = {v.name: rng.choice([2, 3]) for v in rng.sample(evens, rng.randint(1, 2))}
                terms.update(SuperSeries.monomial(
                    chart, exps, rng.choice(REF_COEFFS), REF_ORDER).terms)
            a = SuperSeries(chart, terms, REF_ORDER)
            out = substitute(a, images, chart=chart, order=REF_ORDER)
            assert out.terms == ref_substitute(a, images, chart, REF_ORDER).terms
            assert_clean(out)
            powers = {(v.name, e) for m in a.terms for v, e in zip(chart, m) if e > 1}
            for name, e in powers:
                rows = images[name].terms
                seen.add(("exponent", e))
                for m1, m2 in itertools.combinations(rows, 2):
                    m, sign = _ref_mul_mono(chart, m1, m2)
                    if m is not None and sign < 0 and chart.mono_weight(m) <= REF_ORDER:
                        seen.add("minus sign")
                if any(e * m[t] > 2 and e * chart.mono_weight(m) <= REF_ORDER for m in rows):
                    seen.add("t capped")
            if any(all(m[chart.index(name)] for name in odds) for m in out.terms):
                seen.add("four odd")
        assert seen == {"minus sign", "t capped", "four odd", ("exponent", 2), ("exponent", 3)}

    def test_square_visits_unordered_pairs(self, monkeypatch):
        """The power table squares an image of r rows in r(r + 1)/2 products
        and multiplies image^2 by image over every ordered pair, as mul(a, a)
        does.  No pair is truncated here, so each pair visited adds once."""
        class Tally(dict):
            gets = 0

            def get(self, key, default=None):
                self.gets += 1
                return super().get(key, default)

        calls = []
        products = superalg._add_products

        def counting(acc, rows_a, rows_b, order, layout):
            tally = Tally(acc)
            products(tally, rows_a, rows_b, order, layout)
            calls.append((len(rows_a), len(rows_b), rows_a is rows_b, tally.gets))
            acc.update(tally)

        monkeypatch.setattr(superalg, "_add_products", counting)
        chart = make_chart()
        x, y = var(chart, "x"), var(chart, "y")
        images = {"x": 1 + x + y + x * y}
        calls.clear()
        cube = SuperSeries.monomial(chart, {"x": 3}, Fraction(2, 3), ORDER)
        out = substitute(cube, images, chart=chart, order=ORDER)
        assert calls == [(4, 4, True, 10), (9, 4, False, 36)]
        assert out.terms == ref_substitute(cube, images, chart, ORDER).terms
        calls.clear()
        mul(images["x"], images["x"])
        assert calls == [(4, 4, False, 16)]

    def test_packed_exponents_cross_the_guard(self):
        """An exponent past 127 does not fit an 8-bit field: operands holding
        y^200 and y^130 (products up to y^398), and power-table squares and
        cubes of x^100 + ..., rerun at a wider field and match the reference."""
        chart = Chart("G", [Variable("x", EVEN), Variable("th", ODD), Variable("y", EVEN),
                            Variable("q", EVEN, ROLE_MOMENTUM, weight=1)])
        mono = lambda coeff, **exps: SuperSeries.monomial(chart, exps, coeff, REF_ORDER)
        a = mono(1, y=200) + mono(Fraction(2, 3), x=1, th=1, y=130)
        b = mono(1, y=198) + mono(-1, x=1, q=1) + mono(Fraction(1, 5), th=1, y=127)
        for left, right in ((a, b), (b, a), (a, a), (mono(3, y=127), b)):
            out = mul(left, right)
            assert out.terms == ref_mul(left, right).terms
            assert_clean(out)
        assert (0, 0, 398, 0) in mul(a, b).terms
        image = mono(1, x=100) + mono(Fraction(1, 2), x=1, q=1) + mono(-2, q=1)
        x_image = mono(1, x=199) + mono(1, y=1)
        images = {"x": x_image, "y": image}
        full = dict(images, th=mono(1, th=1), q=mono(1, q=1))
        reached = 0
        for f in (mono(1, y=2), mono(1, y=3), mono(1, y=200) + mono(Fraction(1, 3), y=130, q=1),
                  mono(2, x=1, y=2, q=1) + mono(1, th=1, y=1)):
            out = substitute(f, images, chart=chart, order=REF_ORDER)
            assert out.terms == ref_substitute(f, full, chart, REF_ORDER).terms
            assert_clean(out)
            reached = max(reached, *(m[0] for m in out.terms))
        assert reached > 255

    @pytest.mark.parametrize("big", [2 ** 15 + 3, 2 ** 31 + 3])
    def test_packed_exponents_cross_the_wider_guards(self, big):
        """Past 2^15 an exponent needs 32-bit fields, past 2^31 the 64-bit ones:
        products, power-table squares and substitutions match the reference."""
        chart = Chart("G", [Variable("x", EVEN), Variable("th", ODD), Variable("y", EVEN),
                            Variable("q", EVEN, ROLE_MOMENTUM, weight=1)])
        mono = lambda coeff, **exps: SuperSeries.monomial(chart, exps, coeff, REF_ORDER)
        wide = mono(1, y=big) + mono(Fraction(2, 3), x=1, th=1, y=big - 70)
        b = mono(1, y=198) + mono(-1, x=1, q=1) + mono(Fraction(1, 5), th=1, y=127)
        for left, right in ((wide, b), (b, wide), (wide, wide)):
            out = mul(left, right)
            assert out.terms == ref_mul(left, right).terms
            assert_clean(out)
        assert (0, 0, 2 * big, 0) in mul(wide, wide).terms
        images = {"x": mono(1, x=199) + mono(1, y=1),
                  "y": mono(1, y=big) + mono(Fraction(1, 2), x=1, q=1) + mono(-2, q=1)}
        full = dict(images, th=mono(1, th=1), q=mono(1, q=1))
        for f in (mono(1, y=2), mono(2, x=1, y=2, q=1) + mono(1, th=1, y=1)):
            out = substitute(f, images, chart=chart, order=REF_ORDER)
            assert out.terms == ref_substitute(f, full, chart, REF_ORDER).terms
            assert_clean(out)
            assert max(m[2] for m in out.terms) > big

    def test_exponent_past_the_widest_field_is_named(self):
        """An operand's exponent of 2^63, or a square's, fits no packed field:
        a ValueError says so, in ``mul`` and in ``substitute``'s power table."""
        chart = Chart("G", [Variable("x", EVEN), Variable("y", EVEN)])
        x, y = (SuperSeries.of_var(chart, v, REF_ORDER) for v in ("x", "y"))
        huge = SuperSeries.monomial(chart, {"x": 2 ** 63}, 1, REF_ORDER)
        with pytest.raises(ValueError, match=r"exponent reaches 2\^63"):
            mul(huge + y, x + y)
        half = SuperSeries.monomial(chart, {"x": 2 ** 62}, 1, REF_ORDER)
        with pytest.raises(ValueError, match=r"exponent reaches 2\^63"):
            substitute(mul(y, y) + x, {"y": half + x}, chart=chart, order=REF_ORDER)

    def test_one_term_and_empty_mul_match_reference(self):
        """A one-term factor on either side: odd factors behind and ahead of
        the other's (a minus sign in both operand orders), an odd variable
        met twice, and products past the order or past the cap of t or of a
        weightless s; and an empty factor, against one, several or no terms."""
        rng = random.Random(20)
        chart = Chart("RS", ref_chart().variables + (Variable("s", EVEN, ROLE_PARAM, max_power=1),))
        odd = chart.odd_indices
        zero = SuperSeries.zero(chart, REF_ORDER)
        seen = set()
        for _ in range(150):
            one = zero
            while len(one.terms) != 1:
                one = draw(rng, chart, 1)
            other = draw(rng, chart, rng.randint(0, 5))
            for a, b in ((one, other), (other, one), (zero, other), (other, zero)):
                out = mul(a, b)
                assert out.terms == ref_mul(a, b).terms
                assert (out.chart, out.order) == (chart, REF_ORDER)
                assert_clean(out)
            seen.add(("terms", min(len(other.terms), 2)))
            (m0, _), = one.terms.items()
            for m in other.terms:
                product = tuple(e0 + e for e0, e in zip(m0, m))
                if any(m0[i] and m[i] for i in odd):
                    seen.add("odd twice")
                elif chart.mono_weight(product) > REF_ORDER:
                    seen.add("past the order")
                elif not chart.admits(product, REF_ORDER):
                    seen.update(("past the cap", v.name) for v, e in zip(chart, product)
                                if v.max_power is not None and e > v.max_power)
                else:
                    for where, (m1, m2) in (("left", (m0, m)), ("right", (m, m0))):
                        if _ref_mul_mono(chart, m1, m2)[1] < 0:
                            seen.add(("minus", where))
        assert seen == {"odd twice", "past the order", ("past the cap", "s"), ("past the cap", "t"),
                        ("minus", "left"), ("minus", "right")} | {("terms", n) for n in range(3)}

    def test_truncated_products_match_reference(self):
        """The kernel visits only the pairs under the order: products on a
        chart of four odd variables whose shorter operand (of two or more
        rows) is the left factor or the right one, with odd rows on both sides
        and minus signs in both orientations; pairs of weight exactly the order
        (kept) and one more (dropped); the capped t past its cap in a product
        that also cuts by weight; operands past the 8-bit guard; and an empty
        operand on either side."""
        rng = random.Random(21)
        chart = Chart("R4", ref_chart().variables + (Variable("ze", ODD),))
        weight, t = chart.mono_weight, chart.index("t")
        odd = lambda m: any(m[i] for i in chart.odd_indices)
        zero = SuperSeries.zero(chart, REF_ORDER)
        mono = lambda coeff, **exps: SuperSeries.monomial(chart, exps, coeff, REF_ORDER)
        # x^130 and x^120 are past 127, and their product past 255
        wide = (mono(1, x=130, th=1, q=1) + mono(Fraction(2, 3), x=120, et=1, p=1)
                + mono(-1, x=129, q=2), mono(3, x=125, ze=1, q=1, p=1) + mono(1, x=2, th=1, q=2))
        operands = [(draw(rng, chart, rng.randint(2, 3)), draw(rng, chart, rng.randint(4, 7)))
                    for _ in range(40)]
        seen = set()
        for a, b in [*operands, wide, (zero, wide[0]), (wide[0], zero)]:
            for left, right in ((a, b), (b, a)):
                out = mul(left, right)
                assert out.terms == ref_mul(left, right).terms
                assert (out.chart, out.order) == (chart, REF_ORDER)
                assert_clean(out)
                if not left.terms or not right.terms:
                    seen.add("empty")
                    continue
                side = "left" if len(left.terms) <= len(right.terms) else "right"
                if any(map(odd, left.terms)) and any(map(odd, right.terms)):
                    seen.add(("odd rows", side))
                cut = capped = False
                for m1 in left.terms:
                    for m2 in right.terms:
                        m, sign = _ref_mul_mono(chart, m1, m2)
                        w = weight(m1) + weight(m2)
                        if m is None and w <= REF_ORDER and m1[t] + m2[t] > 2:
                            capped = True
                        if m is None or m1[t] + m2[t] > 2:
                            continue
                        cut = cut or w > REF_ORDER
                        if w == REF_ORDER:
                            seen.add("at the order")
                            if sign < 0 and odd(m1) and odd(m2):
                                seen.add(("minus", side))
                        elif w == REF_ORDER + 1:
                            seen.add("one past the order")
                if capped and cut:
                    seen.add("capped and cut")
                if max(m[0] for m in left.terms) > 127 and cut:
                    seen.add("wide and cut")
        assert seen == {"empty", "at the order", "one past the order", "capped and cut",
                        "wide and cut"} | {(what, side) for what in ("odd rows", "minus")
                                           for side in ("left", "right")}

    def test_truncated_square_matches_reference(self):
        """The power table squares an image whose even rows hold odd pairs,
        under truncation: x -> y + th*p + et*ze*q + q*t + th*ze*t on a chart of
        four odd variables, at every order.  Its rows' pairs make minus signs
        and fall past the order, and x^2 and x^3 must match the reference."""
        chart = Chart("R4", ref_chart().variables + (Variable("ze", ODD),))
        mono = lambda coeff, order, **exps: SuperSeries.monomial(chart, exps, coeff, order)
        seen = set()
        for order in range(REF_ORDER + 1):
            image = (mono(1, order, y=1) + mono(Fraction(2, 3), order, th=1, p=1)
                     + mono(-1, order, et=1, ze=1, q=1) + mono(Fraction(1, 5), order, q=1, t=1)
                     + mono(3, order, th=1, ze=1, t=1))
            rows = list(image.terms)
            for m1, m2 in itertools.combinations(rows, 2):
                m, sign = _ref_mul_mono(chart, m1, m2)
                if m is not None and chart.mono_weight(m) > order:
                    seen.add("cut")
                elif m is not None and sign < 0:
                    seen.add("minus sign")
            full = {v.name: SuperSeries.of_var(chart, v.name, order) for v in chart}
            full["x"] = image
            for e in (2, 3):
                a = mono(Fraction(1, 7), REF_ORDER, x=e)
                out = substitute(a, {"x": image}, chart=chart, order=order)
                assert out.terms == ref_substitute(a, full, chart, order).terms
                assert_clean(out)
                seen.add((order, e, bool(out.terms)))
        assert {"cut", "minus sign"} <= seen
        assert all((order, e, True) in seen for order in range(REF_ORDER + 1) for e in (2, 3))

    def test_substitute_edges(self):
        chart = ref_chart()
        x = SuperSeries.of_var(chart, "x", REF_ORDER)
        th = SuperSeries.of_var(chart, "th", REF_ORDER)
        small = Chart("S", [Variable("x", EVEN), Variable("th", ODD)])
        # only a variable the series uses needs an image
        out = substitute(x + th, {}, chart=small, order=REF_ORDER)
        assert out == SuperSeries.of_var(small, "x", REF_ORDER) + \
            SuperSeries.of_var(small, "th", REF_ORDER)
        with pytest.raises(KeyError, match="'y'"):
            substitute(SuperSeries.of_var(chart, "y", REF_ORDER), {}, chart=small, order=REF_ORDER)
        with pytest.raises(ParityError, match="image of 'th' has a component of wrong parity"):
            substitute(th, {"th": x}, chart=chart, order=REF_ORDER)
        # an image on another chart, or at another order, than the output
        for img in (SuperSeries.of_var(small, "x", REF_ORDER),
                    SuperSeries.of_var(chart, "x", REF_ORDER - 1)):
            with pytest.raises(ChartMismatch,
                               match="image of 'x' does not live on the output chart"):
                substitute(x, {"x": img}, chart=chart, order=REF_ORDER)

    def test_constructors_match_validating_init(self):
        """of_var skips __init__'s checks, and const and monomial build
        through it: all drop the same terms, too heavy, over a cap (odd,
        max_power, max_power=0) or zero, as the caps read off each Variable."""
        base = ref_chart()
        chart = Chart("R0", base.variables + (Variable("s", EVEN, ROLE_PARAM, max_power=0),))
        kept = lambda mono, coeff, order: bool(coeff) and sum(
            e * v.weight for e, v in zip(mono, chart)) <= order and all(
            map(_ref_within_cap, mono, chart))
        rng = random.Random(16)
        for order in range(4):
            for v in chart:
                unit = tuple(int(u is v) for u in chart)
                expect = SuperSeries(chart, {unit: 1}, order)
                got = SuperSeries.of_var(chart, v.name, order)
                assert (got.terms, got.order) == (expect.terms, expect.order)
                assert bool(got.terms) == kept(unit, 1, order)
                assert_clean(got)
            const = (0,) * len(chart)
            for value in (0, Fraction(-3, 4)):
                got = SuperSeries.const(chart, value, order)
                assert got.terms == ({const: value} if value else {}) and got.order == order
                assert bool(got.terms) == kept(const, value, order)
                assert_clean(got)
            for _ in range(40):
                exps = {v.name: rng.randint(0, 3) for v in rng.sample(chart.variables, 2)}
                coeff = rng.choice([0] + REF_COEFFS)
                mono = tuple(exps.get(v.name, 0) for v in chart)
                expect = SuperSeries(chart, {mono: coeff}, order)
                got = SuperSeries.monomial(chart, exps, coeff, order)
                assert (got.terms, got.order) == (expect.terms, expect.order)
                assert bool(got.terms) == kept(mono, coeff, order)
                assert_clean(got)

    def test_mul_associative(self):
        rng = random.Random(14)
        chart = ref_chart()
        for _ in range(40):
            a, b, c = (draw(rng, chart, rng.randint(1, 4)) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))


# -- reference bookkeeping -------------------------------------------------
#
# The plain per-term, per-variable loops of the series helpers, kept as
# oracles for their compress- and map-based forms.


def ref_add(a, b):
    out = dict(a.terms)
    for m, c in b.terms.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def ref_embed(a, chart, order):
    idx = [chart._index.get(v.name) for v in a.chart]
    out = {}
    for m, c in a.terms.items():
        mono = [0] * len(chart)
        for i, e in enumerate(m):
            if e:
                if idx[i] is None:
                    raise KeyError(a.chart.variables[i].name)
                mono[idx[i]] = e
        out[tuple(mono)] = c
    return SuperSeries(chart, out, order).terms


def ref_set_to_zero(a, names):
    idxs = [a.chart.index(n) for n in names]
    return {m: c for m, c in a.terms.items() if not any(m[i] for i in idxs)}


def ref_mono_parity(chart, mono):
    p = 0
    for i in chart.odd_indices:
        p ^= mono[i] & 1
    return p


class TestReferenceBookkeeping:
    """``+``, ``embed``, ``set_to_zero`` and ``mono_parity`` against the loops above,
    on seeded draws over ``ref_chart``: odd variables, a weight-1 momentum and a
    capped even parameter."""

    def test_add_matches_reference(self):
        rng = random.Random(21)
        chart = ref_chart()
        cancelled = 0
        for _ in range(60):
            a, b = draw(rng, chart, rng.randint(1, 5)), draw(rng, chart, rng.randint(1, 5))
            # a share of b's terms cancels a's, so some keys must go
            b = b - SuperSeries(chart, dict(rng.sample(sorted(a.terms.items()),
                                                       rng.randint(0, len(a.terms)))), REF_ORDER)
            out = a + b
            assert out.terms == ref_add(a, b)
            assert_clean(out)
            cancelled += len(out.terms) < len(set(a.terms) | set(b.terms))
            gone = a + (-a)
            assert gone.terms == {} and gone.is_zero()
        assert cancelled >= 20

    def test_embed_matches_reference(self):
        rng = random.Random(22)
        chart = ref_chart()
        v = {u.name: u for u in chart}
        wider = Chart("W", [v["x"], Variable("z", EVEN), v["th"], v["q"], v["y"],
                            Variable("ze", ODD), v["et"], v["p"], v["t"]])
        capped = Chart("C", [v["x"], v["th"], Variable("q", EVEN, ROLE_MOMENTUM, weight=1,
                                                       max_power=1),
                             v["y"], v["et"], v["p"],
                             Variable("t", EVEN, ROLE_PARAM, weight=1, max_power=1)])
        # x weighs 1 here: at the same order, only the weight can drop a term
        heavier = Chart("H", [Variable("x", EVEN, ROLE_MOMENTUM, weight=1),
                              *(u for u in chart if u.name != "x")])
        dropped, heavy = 0, 0
        for _ in range(60):
            a = draw(rng, chart, rng.randint(1, 6))
            for target, order in ((wider, REF_ORDER), (chart, 2), (chart, 1), (capped, REF_ORDER),
                                  (heavier, REF_ORDER)):
                out = embed(a, target, order)
                assert out.terms == ref_embed(a, target, order)
                assert out.order == order
                assert_clean(out)
                dropped += len(out.terms) < len(a.terms)
                heavy += target is heavier and len(out.terms) < len(a.terms)
        assert dropped >= 60 and heavy >= 10
        smaller = Chart("S", [u for u in chart if u.name != "th"])
        for _ in range(30):
            a = draw(rng, chart, rng.randint(1, 6))
            if any(m[chart.index("th")] for m in a.terms):
                with pytest.raises(KeyError, match="'th'"):
                    embed(a, smaller, REF_ORDER)
            else:
                assert embed(a, smaller, REF_ORDER).terms == ref_embed(a, smaller, REF_ORDER)

    def test_set_to_zero_matches_reference(self):
        rng = random.Random(23)
        chart = ref_chart()
        names = [u.name for u in chart]
        for _ in range(60):
            a = draw(rng, chart, rng.randint(1, 6)) + rng.choice(REF_COEFFS)
            for chosen in ([], names, rng.sample(names, rng.randint(1, len(names)))):
                out = set_to_zero(a, chosen)
                assert out.terms == ref_set_to_zero(a, chosen)
                assert_clean(out)
            assert set_to_zero(a, []) == a
            assert set_to_zero(a, names) == a.constant_term()

    def test_mono_parity_matches_reference(self):
        rng = random.Random(24)
        chart = ref_chart()
        even = Chart("E", [u for u in chart if u.parity == EVEN])
        for _ in range(200):
            mono = tuple(rng.randint(0, 3) for _ in chart)
            assert chart.mono_parity(mono) == ref_mono_parity(chart, mono)
            assert even.mono_parity(mono[:len(even)]) == 0
