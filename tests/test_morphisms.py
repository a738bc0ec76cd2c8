"""Thick morphisms: validation, base maps, relation identity, pullback
and composition."""

from fractions import Fraction

import pytest

from mfc import morphisms
from mfc.morphisms import (
    EPS,
    KIND_EVEN,
    KIND_ODD,
    Conjugate,
    MorphismError,
    ThickMorphism,
    _eliminate,
    base_map,
    combined_chart,
    compose,
    mk_thick,
    pullback,
    pullback_chart,
    pullback_derivative,
    pullback_series,
    relation_check,
    series_chart,
)
from mfc.superalg import (
    EVEN,
    ODD,
    ROLE_MOMENTUM,
    ROLE_PARAM,
    Chart,
    ChartMismatch,
    ParityError,
    SuperSeries,
    Variable,
    _substitute_packed,
    embed,
    mul,
)
from mfc.superforms import kind_parity
from mfc.testkit import (
    ClassicalMap,
    Generator,
    from_classical,
    identity_map,
    oracle_eliminate,
    oracle_pullback_classical,
    random_morphism,
    worked_example,
)
from mfc.textio import parse_workspace, serialize

ORDER = 3


def chart_x():
    return Chart("M", [Variable("x", EVEN)])


def chart_y():
    return Chart("N", [Variable("y", EVEN)])


def chart_z():
    return Chart("P", [Variable("z", EVEN)])


def golden_psi(order=ORDER):
    """S = y q_z + q_z^2 / 2 from N(y) to P(z)."""
    src, tgt = chart_y(), chart_z()
    c = combined_chart(src, tgt, KIND_EVEN)
    y = SuperSeries.of_var(c, "y", order)
    r = SuperSeries.of_var(c, "q_z", order)
    S = mul(y, r) + (r ** 2).scale(Fraction(1, 2))
    return mk_thick(src, tgt, KIND_EVEN, S, order)


def eps_series(phi, g, order, params=()):
    """eps * g on ``series_chart(phi, params)``, with its work chart."""
    h_chart = series_chart(phi, params)
    h = mul(SuperSeries.of_var(h_chart, EPS, order), embed(g, h_chart, order))
    return h, pullback_chart(phi, params)


class TestValidation:
    def test_wrong_kind_rejected(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        S = SuperSeries.of_var(c, "q_y", ORDER)
        with pytest.raises(ValueError):
            mk_thick(src, tgt, "mixed", S, ORDER)

    def test_even_kind_needs_even_s(self):
        src = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        tgt = Chart("N", [Variable("eta", ODD)])
        c = combined_chart(src, tgt, KIND_EVEN)
        # q_eta is odd, so x*q_eta is odd overall: invalid even-kind S
        S = mul(SuperSeries.of_var(c, "x", ORDER),
                SuperSeries.of_var(c, "q_eta", ORDER))
        with pytest.raises(ParityError):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)

    def test_odd_kind_needs_odd_s(self):
        src = chart_x()
        tgt = Chart("N", [Variable("eta", ODD)])
        c = combined_chart(src, tgt, KIND_ODD)
        # ys_eta is even, so x^2 * ys_eta is even: invalid odd-kind S
        S = mul(SuperSeries.of_var(c, "x", ORDER) ** 2,
                SuperSeries.of_var(c, "ys_eta", ORDER))
        with pytest.raises(ParityError):
            mk_thick(src, tgt, KIND_ODD, S, ORDER)

    def test_strict_zero_momentum_normalization(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", ORDER)
        q = SuperSeries.of_var(c, "q_y", ORDER)
        S = mul(x, q) + x ** 2
        with pytest.raises(MorphismError):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER, strict=True)
        phi = mk_thick(src, tgt, KIND_EVEN, S, ORDER, strict=False)
        assert not phi.normalized

    def test_strict_by_default(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", ORDER)
        S = mul(x, SuperSeries.of_var(c, "q_y", ORDER)) + x ** 2
        with pytest.raises(MorphismError, match="strict"):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)

    def test_constant_offset_allowed(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        S = mul(SuperSeries.of_var(c, "x", ORDER),
                SuperSeries.of_var(c, "q_y", ORDER)) \
            + SuperSeries.const(c, 5, ORDER)
        assert mk_thick(src, tgt, KIND_EVEN, S, ORDER, strict=True).normalized

    def test_wrong_chart_rejected(self):
        src, tgt = chart_x(), chart_y()
        S = SuperSeries.of_var(src, "x", ORDER)
        with pytest.raises(MorphismError):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)
        c = Chart("M=>N", [Variable("q_y", EVEN, ROLE_MOMENTUM, 1), Variable("x", EVEN)])
        S = SuperSeries.monomial(c, {"x": 1, "q_y": 1}, 1, ORDER)
        with pytest.raises(MorphismError,
                           match=r"must live on \(source coords, target momenta\)"):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)

    def test_momentum_parity_rejected(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN, [Variable("q_y", ODD, ROLE_MOMENTUM, 1)])
        S = SuperSeries.of_var(c, "x", ORDER)  # even, so only the momentum is wrong
        with pytest.raises(ParityError,
                           match="momentum 'q_y' has wrong parity for coordinate 'y'"):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)

    def test_order_mismatch_rejected(self):
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        S = mul(SuperSeries.of_var(c, "x", 4), SuperSeries.of_var(c, "q_y", 4))
        with pytest.raises(MorphismError):
            mk_thick(src, tgt, KIND_EVEN, S, ORDER)


class TestClassical:
    def test_from_classical_generating_function(self):
        src, tgt = chart_x(), chart_y()
        x = SuperSeries.of_var(src, "x", ORDER)
        cmap = ClassicalMap(src, tgt, {"y": x ** 2})
        phi = from_classical(cmap, KIND_EVEN, ORDER)
        assert serialize(phi.S) == "x^2*q_y"

    def test_base_map_recovers_components(self):
        gen = Generator(30)
        src = gen.chart(1, 1, name="A")
        tgt = gen.chart(1, 1, name="B", stems=("y", "eta"))
        for kind in (KIND_EVEN, KIND_ODD):
            cmap = gen.classical_map(src, tgt, ORDER)
            back = base_map(from_classical(cmap, kind, ORDER))
            assert set(back) == {v.name for v in tgt}
            for v in tgt:
                assert (back[v.name].chart, back[v.name].order) == (src, ORDER)
                assert back[v.name] == cmap.components[v.name]

    def test_base_map_of_golden(self):
        comps = base_map(worked_example())
        assert serialize(comps["y"]) == "x"

    def test_parity_checked(self):
        src = Chart("M", [Variable("th", ODD)])
        tgt = chart_y()
        with pytest.raises(ParityError):
            ClassicalMap(src, tgt, {"y": SuperSeries.of_var(src, "th", ORDER)})


class TestRelationIdentity:
    def test_golden_passes(self):
        assert relation_check(worked_example()).passed

    def test_random_both_kinds(self):
        gen = Generator(31)
        for kind in (KIND_EVEN, KIND_ODD):
            for _ in range(5):
                phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
                rep = relation_check(phi)
                assert rep.passed, rep.render()

    def test_mispaired_parities_fail(self):
        # The identity tests exactly the parity-dependent sign in the
        # even-kind relation, so pairing an odd coordinate's momentum
        # with an even coordinate (and vice versa) must break it.
        src = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        tgt = Chart("N", [Variable("y", EVEN), Variable("eta", ODD)])
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", ORDER)
        th = SuperSeries.of_var(c, "th", ORDER)
        qy = SuperSeries.of_var(c, "q_y", ORDER)
        qe = SuperSeries.of_var(c, "q_eta", ORDER)
        S = mul(x, qy) + mul(th, qe) + mul(x, mul(th, qe))
        phi = mk_thick(src, tgt, KIND_EVEN, S, ORDER)
        assert relation_check(phi).passed
        bad = ThickMorphism(src, tgt, KIND_EVEN, S, ORDER,
                            (Conjugate("y", "q_eta"), Conjugate("eta", "q_y")))
        assert not relation_check(bad).passed


class TestPullback:
    def test_golden_regression(self):
        g = SuperSeries.of_var(chart_y(), "y", 2) ** 2
        assert serialize(pullback(worked_example(2), g, 2)) == \
            "eps*x^2 + 2*eps^2*x^2"

    def test_golden_third_order(self):
        g = SuperSeries.of_var(chart_y(), "y", 3) ** 2
        assert serialize(pullback(worked_example(3), g, 3)) == \
            "eps*x^2 + 2*eps^2*x^2 + 4*eps^3*x^2"

    @pytest.mark.parametrize("a, b, G", [
        (1, 1, 2),
        (2, Fraction(-1, 3), Fraction(3, 2)),
        (Fraction(-1, 2), 3, Fraction(-2, 5)),
    ])
    @pytest.mark.parametrize("n_eps", [8, 10, 12])
    def test_quadratic_closed_form(self, a, b, G, n_eps):
        """S = a x q + b q^2 / 2 pulls g = G y^2 / 2 back to the geometric
        series G a^2 x^2 / 2 * sum_k eps^(k+1) (b G)^k, computed here
        without any solver code; a = b = 1, G = 2 is eps x^2 / (1 - 2 eps)."""
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", n_eps)
        q = SuperSeries.of_var(c, "q_y", n_eps)
        S = mul(x, q).scale(a) + (q ** 2).scale(Fraction(b, 2))
        phi = mk_thick(src, tgt, KIND_EVEN, S, n_eps)
        g = (SuperSeries.of_var(tgt, "y", n_eps) ** 2).scale(Fraction(G, 2))
        out = pullback(phi, g, n_eps)
        expected = SuperSeries.zero(out.chart, n_eps)
        for k in range(n_eps):
            coeff = Fraction(G, 2) * a ** 2 * (b * G) ** k
            expected = expected + SuperSeries.monomial(
                out.chart, {EPS: k + 1, "x": 2}, coeff, n_eps)
        assert out == expected

    def test_constant_function(self):
        g = SuperSeries.const(chart_y(), 7, 2)
        out = pullback(worked_example(2), g, 2)
        work = out.chart
        assert out == SuperSeries.of_var(work, EPS, 2).scale(7)

    def test_classical_reduction_example(self):
        src, tgt = chart_x(), chart_y()
        x = SuperSeries.of_var(src, "x", ORDER)
        cmap = ClassicalMap(src, tgt, {"y": x ** 2})
        thin = from_classical(cmap, KIND_EVEN, ORDER)
        g = SuperSeries.of_var(tgt, "y", ORDER) \
            + SuperSeries.const(tgt, 1, ORDER)
        out = pullback(thin, g, ORDER)
        work = out.chart
        expected = mul(SuperSeries.of_var(work, EPS, ORDER),
                       embed(oracle_pullback_classical(cmap, g), work, ORDER))
        assert out == expected

    def test_wrong_parity_rejected(self):
        src = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        tgt = Chart("N", [Variable("eta", ODD)])
        c = combined_chart(src, tgt, KIND_ODD)
        # ys_eta is even, so an odd-kind S needs an odd source factor
        S = mul(SuperSeries.of_var(c, "th", ORDER),
                SuperSeries.of_var(c, "ys_eta", ORDER))
        phi = mk_thick(src, tgt, KIND_ODD, S, ORDER)
        g = SuperSeries.of_var(tgt, "eta", ORDER)  # odd: fine
        pullback(phi, g, ORDER)
        with pytest.raises(ParityError):
            pullback(phi, SuperSeries.const(tgt, 1, ORDER), ORDER)
        with pytest.raises(ParityError):  # the eliminator checks no parity itself
            pullback_series(phi, SuperSeries.of_var(series_chart(phi), EPS, ORDER), ORDER)

    def test_wrong_chart_rejected(self):
        phi = worked_example(2)
        with pytest.raises(ChartMismatch):
            pullback(phi, SuperSeries.of_var(chart_z(), "z", 2), 2)
        # pullback_series reads its parameters between eps and the target
        # coordinates: eps must come first and the target coordinates last
        eps, s = series_chart(phi).var(EPS), Variable("s", EVEN, ROLE_PARAM, 1)
        y = phi.target.var("y")
        for variables in [(y,), (y, eps), (s, eps, y), (eps, y, s)]:
            h = SuperSeries.of_var(Chart("h", variables), "y", 2)
            with pytest.raises(ChartMismatch,
                               match=r"series must live on \(eps, params, target coords\)"):
                pullback_series(phi, h, 2)

    def test_eliminator_rejects_weight_zero_coordinate_terms(self):
        # h = y^2 without eps: every sweep feeds w back at weight zero
        # (w = x + 2w), so the sweeps never settle and must not be trusted.
        phi = worked_example(2)
        work = pullback_chart(phi)
        h_chart = Chart("h", (work.var(EPS),) + tuple(phi.target.variables))
        h = SuperSeries.of_var(h_chart, "y", 2) ** 2
        with pytest.raises(MorphismError, match="sweeps"):
            _eliminate(phi, h, work, 2)

    def test_eliminator_rejects_convergent_weight_zero_terms(self):
        # h = y + eps*y^2 converges: w = (x + 1)(1 + 2 eps + 4 eps^2 + 8 eps^3)
        # solves w = x + 1 + 2 eps w at order 3.  But mu = 1 at eps = 0, so
        # the value is not the envelope of the eps-graded terms.
        phi = worked_example(3)
        work = pullback_chart(phi)
        x, eps = (SuperSeries.of_var(work, n, 3) for n in ("x", EPS))
        one = SuperSeries.const(work, 1, 3)
        w = mul(x + one, one + eps.scale(2) + (eps ** 2).scale(4) + (eps ** 3).scale(8))
        assert w == x + one + mul(eps, w).scale(2)
        h_chart = Chart("h", (work.var(EPS),) + tuple(phi.target.variables))
        y = SuperSeries.of_var(h_chart, "y", 3)
        h = y + mul(SuperSeries.of_var(h_chart, EPS, 3), y ** 2)
        with pytest.raises(MorphismError):
            _eliminate(phi, h, work, 3)

    def test_weighted_source_coordinate_rejected(self):
        src, tgt = Chart("M", [Variable("x", EVEN, weight=1)]), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", ORDER)
        q = SuperSeries.of_var(c, "q_y", ORDER)
        phi = mk_thick(src, tgt, KIND_EVEN, mul(x, q) + (q ** 2).scale(Fraction(1, 2)),
                       ORDER)
        g = SuperSeries.of_var(tgt, "y", ORDER) ** 2
        with pytest.raises(MorphismError, match="weight 0"):
            pullback(phi, g, ORDER)

    @pytest.mark.parametrize("order", [5, 8])
    def test_even_weight_certificate(self, order):
        """h = eps^2 G y^2 / 2 enters only at even weights, so the sweep at
        weight 1 leaves w = x unchanged; stopping there would drop every
        term past eps^2.  The pullback is (G/2) x^2 sum_k G^(k-1) eps^(2k)
        (w = x / (1 - G eps^2)), computed here without any solver code."""
        G = Fraction(3, 2)
        phi = worked_example(order)
        work = pullback_chart(phi)
        h_chart = Chart("h", (work.var(EPS),) + tuple(phi.target.variables))
        h = SuperSeries.monomial(h_chart, {EPS: 2, "y": 2}, G / 2, order)
        expected = SuperSeries.zero(work, order)
        for k in range(1, order // 2 + 1):
            expected = expected + SuperSeries.monomial(
                work, {EPS: 2 * k, "x": 2}, G / 2 * G ** (k - 1), order)
        assert pullback_series(phi, h, order) == expected

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_constant_gradient_certificate(self, order):
        """h = 3 eps y - 5/2 eps^2 y has the gradient 3 eps - 5/2 eps^2 at
        every truncation >= 2, while w = x + mu + 2 mu^2 still gains a term
        of weight order - 1 there.  A gradient from below t = order - 1 must
        not certify, or that term of w is missing from the value."""
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, KIND_EVEN)
        x = SuperSeries.of_var(c, "x", order)
        q = SuperSeries.of_var(c, "q_y", order)
        S = mul(x, q) + (q ** 2).scale(Fraction(1, 2)) + (q ** 3).scale(Fraction(2, 3))
        phi = mk_thick(src, tgt, KIND_EVEN, S, order)
        work = pullback_chart(phi)
        h_chart = Chart("h", (work.var(EPS),) + tuple(phi.target.variables))
        h = (SuperSeries.monomial(h_chart, {EPS: 1, "y": 1}, 3, order)
             + SuperSeries.monomial(h_chart, {EPS: 2, "y": 1}, Fraction(-5, 2), order))
        assert pullback_series(phi, h, order) == oracle_eliminate(phi, h, work, order)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_substitute_all_calls(self, n, monkeypatch):
        """A pullback at eps-order n >= 2 makes n - 1 sweeps of two
        half-sweeps, each one ``_substitute_packed`` call, and certifies on
        the next gradient alone: 2n - 1 calls.  At n = 1 the first sweep
        leaves w unchanged (2).  compose certifies on an unchanged w: 2n - 2
        calls here.  The base map's call (the relations at mu = 0, weight 0)
        comes first and the value's (at the full order) last; neither is a
        half-sweep, and neither is counted."""
        calls = []

        def counted(layout, chart, order, *args):
            calls.append(order)
            return _substitute_packed(layout, chart, order, *args)
        monkeypatch.setattr(morphisms, "_substitute_packed", counted)
        pullback(worked_example(n), SuperSeries.of_var(chart_y(), "y", n) ** 2, n)
        base, *sweeps, value = calls
        assert (base, value) == (0, n) and max(sweeps) < n
        assert len(sweeps) == (2 * n - 1 if n > 1 else 2)
        if n > 2:
            calls.clear()
            compose(golden_psi(), worked_example(n), n)
            base, *sweeps, value = calls
            assert (base, value) == (0, n) and max(sweeps) < n
            assert len(sweeps) <= 2 * n - 2

    def test_guard_hit_in_a_sweep(self, monkeypatch):
        """Exponents past 127 overflow the 8-bit fields in the first gradient
        already, not only in the value, and the whole elimination reruns
        wider.  The expected text is what the eliminator printed while each
        half-sweep still unpacked its output."""
        hits = []

        def counted(layout, chart, order, *args):
            try:
                return _substitute_packed(layout, chart, order, *args)
            except OverflowError:
                hits.append(order)
                raise
        monkeypatch.setattr(morphisms, "_substitute_packed", counted)
        phi = worked_example(3)
        y = SuperSeries.of_var(chart_y(), "y", 3)
        got = pullback(phi, y ** 200 + mul(y ** 130, y ** 3), 3)
        assert hits and min(hits) < 3
        assert serialize(got) == (
            "eps*x^133 + eps*x^200 + 17689/2*eps^2*x^264 + 26600*eps^2*x^331"
            " + 155274042*eps^3*x^395 + 20000*eps^2*x^398 + 819000700*eps^3*x^462"
            " + 1409800000*eps^3*x^529 + 796000000*eps^3*x^596")
        work = pullback_chart(phi)
        h_chart = series_chart(phi)
        h = (SuperSeries.monomial(h_chart, {EPS: 1, "y": 200}, 1, 3)
             + SuperSeries.monomial(h_chart, {EPS: 1, "y": 133}, 1, 3))
        assert got == oracle_eliminate(phi, h, work, 3)

    def test_unsettled_gradient_raises(self, monkeypatch):
        """A gradient that moves after the last sweep fails the certificate:
        each patched call adds a fresh constant to its sums, so no two agree."""
        calls = []

        def drifting(*args):
            calls.append(None)
            return [({**acc, 0: acc.get(0, 0) + len(calls) * den}, den)
                    for acc, den in _substitute_packed(*args)]
        monkeypatch.setattr(morphisms, "_substitute_packed", drifting)
        g = SuperSeries.of_var(chart_y(), "y", 3) ** 2
        with pytest.raises(MorphismError, match="^gradient still moving at weight 2$"):
            pullback(worked_example(3), g, 3)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        g = SuperSeries.of_var(chart_y(), "y", 2) ** 2
        with pytest.raises(ValueError, match="at least 1"):
            pullback(worked_example(2), g, order)
        with pytest.raises(ValueError, match="at least 1"):
            compose(golden_psi(), worked_example(), order)

    def test_series_without_eps_rejected(self):
        phi = worked_example(2)
        h = SuperSeries.of_var(series_chart(phi), "y", 2)
        with pytest.raises(MorphismError):
            pullback_series(phi, h, 2)


class TestPullbackDerivative:
    """d/dt|_0 Phi*[f + t g] against two closed forms built by substitution."""

    def eps_times(self, phi, series):
        work = pullback_chart(phi)
        return mul(SuperSeries.of_var(work, EPS, ORDER), embed(series, work, ORDER))

    @pytest.mark.parametrize("kind", [KIND_EVEN, KIND_ODD])
    def test_at_zero_is_base_map_composite(self, kind):
        # envelope theorem: at f = 0 the stationary point is the base map
        gen = Generator(60)
        nonzero = 0
        for _ in range(8):
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
            g = gen.series(phi.target, ORDER, parity=gen.rng.choice([EVEN, ODD]),
                           n_terms=2, max_degree=2)
            got = pullback_derivative(phi, SuperSeries.zero(phi.target, ORDER), g, ORDER)
            base = ClassicalMap(phi.source, phi.target, base_map(phi))
            want = self.eps_times(phi, oracle_pullback_classical(base, g))
            assert got == want
            nonzero += not want.is_zero()
        assert nonzero >= 4

    @pytest.mark.parametrize("kind", [KIND_EVEN, KIND_ODD])
    def test_classical_is_substitution(self, kind):
        gen = Generator(61)
        src = gen.chart(1, 1, name="A")
        tgt = gen.chart(2, 1, name="B", stems=("y", "eta"))
        nonzero = 0
        for _ in range(8):
            cmap = gen.classical_map(src, tgt, ORDER)
            f = gen.series(tgt, ORDER, parity=kind_parity(kind), n_terms=2, max_degree=2)
            g = gen.series(tgt, ORDER, parity=gen.rng.choice([EVEN, ODD]),
                           n_terms=2, max_degree=2)
            phi = from_classical(cmap, kind, ORDER)
            got = pullback_derivative(phi, f, g, ORDER)
            want = self.eps_times(phi, oracle_pullback_classical(cmap, g))
            assert got == want
            nonzero += not want.is_zero()
        assert nonzero >= 4

    def test_target_coordinate_named_t(self):
        """The derivative's own parameter takes no name a workspace can
        spell, so a target coordinate t is an ordinary name: the result
        is the one with t spelled y."""
        text = ("chart M { x : even }\nchart N { %s : even }\n"
                "morphism Phi : M -> N kind=even { S = x*q_%s + 1/2*q_%s^2 }\n"
                "function g on N { %s^2 }\n")
        for name in ("t", "y"):
            ws = parse_workspace(text % ((name,) * 4))
            g = ws.functions["g"]
            got = pullback_derivative(ws.morphisms["Phi"], g, g, 2)
            assert serialize(got) == "eps*x^2 + 4*eps^2*x^2"

    def test_mixed_direction_rejected(self):
        tgt = Chart("N", [Variable("y", EVEN), Variable("eta", ODD)])
        phi = from_classical(identity_map(tgt, ORDER), KIND_EVEN, ORDER)
        y, eta = (SuperSeries.of_var(tgt, n, ORDER) for n in ("y", "eta"))
        zero = SuperSeries.zero(tgt, ORDER)
        with pytest.raises(ParityError):
            pullback_derivative(phi, zero, y + eta, ORDER)
        assert pullback_derivative(phi, y, zero, ORDER).is_zero()


class TestCompose:
    def test_golden_regression(self):
        out = compose(golden_psi(), worked_example(), ORDER)
        assert serialize(out.S) == "x*q_z + q_z^2"

    def test_odd_momentum_after_odd_coordinate(self):
        """The value step multiplies each term from the right, starting from its
        outer momenta: eta's odd image of 2*q_z*q_zeta*eta (chart order
        eta*q_z*q_zeta) goes on the left of q_zeta, and the product takes that
        pair's sign."""
        ws = parse_workspace(
            "chart M { x : even, xi : odd }\n"
            "chart N { y : even, eta : odd }\n"
            "chart P { z : even, zeta : odd }\n"
            "morphism Phi : M -> N kind=even "
            "{ S = x*q_y + xi*q_eta + 1/2*q_y^2 + x*xi*q_eta*q_y }\n"
            "morphism Psi : N -> P kind=even "
            "{ S = y*q_z + eta*q_zeta + y*eta*q_zeta + 2*q_z*q_zeta*eta + 1/3*q_z^2 }\n")
        psi, phi = ws.morphisms["Psi"], ws.morphisms["Phi"]
        out = compose(psi, phi, ORDER)
        work = combined_chart(phi.source, psi.target, KIND_EVEN,
                              [psi.chart.var(m) for m in psi.momentum_names()])
        assert out.S == oracle_eliminate(phi, psi.S, work, ORDER)
        assert serialize(out.S) == (
            "x*q_z + xi*q_zeta + 5/6*q_z^2 + x*xi*q_zeta - xi*q_z*q_zeta"
            " + x*xi*q_z*q_zeta + x^2*xi*q_z*q_zeta - x*xi*q_z^2*q_zeta")

    def test_classical_factors(self):
        gen = Generator(32)
        a = gen.chart(1, 1, name="A")
        b = gen.chart(1, 1, name="B", stems=("y", "eta"))
        c = gen.chart(1, 1, name="C", stems=("z", "zeta"))
        for kind in (KIND_EVEN, KIND_ODD):
            f = gen.classical_map(a, b, ORDER)
            g = gen.classical_map(b, c, ORDER)
            got = compose(from_classical(g, kind, ORDER),
                          from_classical(f, kind, ORDER), ORDER)
            want = from_classical(g.compose(f, ORDER), kind, ORDER)
            assert got.S == want.S

    def test_identity_neutral(self):
        phi = worked_example()
        ident_src = from_classical(identity_map(phi.source, ORDER),
                                   KIND_EVEN, ORDER)
        ident_tgt = from_classical(identity_map(phi.target, ORDER),
                                   KIND_EVEN, ORDER)
        assert compose(phi, ident_src, ORDER).S == phi.S
        assert compose(ident_tgt, phi, ORDER).S == phi.S

    def test_kind_mismatch_rejected(self):
        gen = Generator(33)
        a = gen.chart(1, 1, name="A")
        b = gen.chart(1, 1, name="B", stems=("y", "eta"))
        c = gen.chart(1, 1, name="C", stems=("z", "zeta"))
        inner = from_classical(gen.classical_map(a, b, ORDER), KIND_EVEN, ORDER)
        outer = from_classical(gen.classical_map(b, c, ORDER), KIND_ODD, ORDER)
        with pytest.raises(MorphismError):
            compose(outer, inner, ORDER)

    def test_chart_mismatch_rejected(self):
        with pytest.raises(ChartMismatch):
            compose(worked_example(), golden_psi(), ORDER)

    def test_associativity(self):
        gen = Generator(34)
        for kind in (KIND_EVEN, KIND_ODD):
            a = gen.chart(1, 1, name="A")
            b = gen.chart(1, 1, name="B", stems=("y", "eta"))
            c = gen.chart(1, 1, name="C", stems=("z", "zeta"))
            d = gen.chart(1, 1, name="D", stems=("u", "ups"))
            f = g = h = None
            while f is None or g is None or h is None:
                f = gen.thick(a, b, kind, ORDER, max_momentum_degree=2)
                g = gen.thick(b, c, kind, ORDER, max_momentum_degree=2)
                h = gen.thick(c, d, kind, ORDER, max_momentum_degree=2)
            left = compose(h, compose(g, f, ORDER), ORDER)
            right = compose(compose(h, g, ORDER), f, ORDER)
            assert left.S == right.S

    def test_base_map_functorial(self):
        gen = Generator(35)
        from mfc.testkit import random_pair_of_morphisms
        for kind in (KIND_EVEN, KIND_ODD):
            outer, inner = random_pair_of_morphisms(gen, kind, ORDER,
                                                    max_momentum_degree=2)
            whole = base_map(compose(outer, inner, ORDER))
            parts = ClassicalMap(outer.source, outer.target, base_map(outer)).compose(
                ClassicalMap(inner.source, inner.target, base_map(inner)), ORDER)
            for v in outer.target:
                assert whole[v.name] == parts.components[v.name]

    def test_contravariance(self):
        phi, psi = worked_example(), golden_psi()
        g = SuperSeries.of_var(chart_z(), "z", ORDER) ** 2
        direct = pullback(compose(psi, phi, ORDER), g, ORDER)
        staged = pullback_series(phi, pullback(psi, g, ORDER), ORDER)
        assert direct == staged

    def test_contravariance_random(self):
        gen = Generator(36)
        from mfc.testkit import random_pair_of_morphisms
        for kind in (KIND_EVEN, KIND_ODD):
            want = EVEN if kind == KIND_EVEN else ODD
            outer, inner = random_pair_of_morphisms(gen, kind, ORDER,
                                                    max_momentum_degree=2)
            g = gen.series(outer.target, ORDER, parity=want,
                           n_terms=2, max_degree=2)
            direct = pullback(compose(outer, inner, ORDER), g, ORDER)
            staged = pullback_series(inner, pullback(outer, g, ORDER), ORDER)
            assert direct == staged


class TestReferenceEliminator:
    """compose and pullback_series against ``oracle_eliminate`` on seeded draws.
    Draws go on until three outputs reach weight ``deep``, past what the
    first sweep alone decides; every draw must match."""

    @staticmethod
    def check(draw, deep=2):
        reached = 0
        for _ in range(30):
            got, want = draw()
            assert got == want
            reached += any(got.chart.mono_weight(m) >= deep for m in got.terms)
            if reached == 3:
                return
        pytest.fail(f"only {reached} of 30 draws reach weight {deep}")

    # orders 1 and 2 are the schedule's edges: no sweep runs below weight order - 1
    EDGES, IDS = [((2, 1), 1), ((2, 1), 2)], ["shape0", "shape1", "order1", "order2"]

    @pytest.mark.parametrize("kind", [KIND_EVEN, KIND_ODD])
    @pytest.mark.parametrize("shape, order", [((2, 2), ORDER), ((3, 3), ORDER), *EDGES], ids=IDS)
    def test_compose(self, kind, shape, order):
        gen = Generator(40 + shape[0])
        a = gen.chart(*shape, name="A")
        b = gen.chart(*shape, name="B", stems=("y", "eta"))
        c = gen.chart(*shape, name="C", stems=("z", "zeta"))

        def draw():
            inner = gen.thick(a, b, kind, order, n_terms=6, max_momentum_degree=3)
            outer = gen.thick(b, c, kind, order, n_terms=6, max_momentum_degree=3)
            out_momenta = [outer.chart.var(m) for m in outer.momentum_names()]
            work = combined_chart(a, c, kind, out_momenta)
            return (compose(outer, inner, order).S,
                    oracle_eliminate(inner, outer.S, work, order))
        self.check(draw, deep=min(order, 2))

    @pytest.mark.parametrize("kind", [KIND_EVEN, KIND_ODD])
    @pytest.mark.parametrize("shape, order", [((2, 2), 4), ((3, 3), 4), *EDGES], ids=IDS)
    def test_pullback_series(self, kind, shape, order):
        gen = Generator(50 + shape[0])
        src = gen.chart(*shape, name="A")
        tgt = gen.chart(*shape, name="B", stems=("y", "eta"))

        def draw():
            # S(x; 0) = S0(x) + 1 for even kind: not normalized, so not constant
            phi = gen.thick(src, tgt, kind, order, n_terms=8, max_momentum_degree=3)
            S0 = gen.series(src, order, parity=kind_parity(kind), n_terms=2, max_degree=2)
            phi = mk_thick(src, tgt, kind, phi.S + embed(S0, phi.chart, order)
                           + (1 - kind_parity(kind)), order, strict=False)
            g = gen.series(tgt, order, parity=kind_parity(kind), n_terms=6, max_degree=3)
            h, work = eps_series(phi, g, order)
            return pullback_series(phi, h, order), oracle_eliminate(phi, h, work, order)
        self.check(draw, deep=min(order, 2))

    def test_weight_one_parameter(self):
        """A formal parameter s of weight 1 is scaled along with eps: h has
        terms s*eps*g1 of weight 2 and a coordinate-free 2/3*s^2."""
        order = 5
        gen = Generator(60)
        s = Variable("s", EVEN, ROLE_PARAM, 1)
        src = gen.chart(1, 1, name="A")
        tgt = gen.chart(2, 1, name="B", stems=("y", "eta"))
        g_chart = Chart("g", (s,) + tuple(tgt.variables))

        def draw():
            phi = gen.thick(src, tgt, KIND_EVEN, order, n_terms=6, max_momentum_degree=3)
            g0, g1 = (embed(gen.series(tgt, order, parity=EVEN, n_terms=4, max_degree=3),
                            g_chart, order) for _ in range(2))
            h, work = eps_series(phi, g0 + mul(SuperSeries.of_var(g_chart, "s", order), g1),
                                 order, params=(s,))
            h = h + SuperSeries.monomial(h.chart, {"s": 2}, Fraction(2, 3), order)
            got = pullback_series(phi, h, order)
            return got, oracle_eliminate(phi, h, work, order)
        self.check(draw, deep=3)
