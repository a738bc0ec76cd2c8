"""Tangent and antitangent lifts: examples, functoriality, bundle maps."""

from fractions import Fraction
from pathlib import Path

import pytest

from mfc.functors import (
    ANTITANGENT,
    TANGENT,
    antitangent_lift,
    check_bundle_morphism,
    check_functoriality,
    lift,
    tangent_lift,
)
from mfc.morphisms import (
    KIND_EVEN,
    KIND_ODD,
    base_map,
    combined_chart,
    mk_thick,
    pullback,
    relation_check,
)
from mfc.superalg import (
    EVEN,
    ODD,
    Chart,
    SuperSeries,
    Variable,
    embed,
    mul,
    partial,
    truncate,
)
from mfc.superforms import PIT, T, fiber_variables
from mfc.testkit import (
    Generator,
    from_classical,
    random_morphism,
    random_pair_of_morphisms,
    worked_example,
)
from mfc.textio import parse_workspace, serialize

ORDER = 3


def chart_x():
    return Chart("M", [Variable("x", EVEN)])


def chart_y():
    return Chart("N", [Variable("y", EVEN)])


def square_phi(order=ORDER):
    """S = x^2 q_y, the thin morphism of x -> x^2."""
    src, tgt = chart_x(), chart_y()
    c = combined_chart(src, tgt, KIND_EVEN)
    S = mul(SuperSeries.of_var(c, "x", order) ** 2,
            SuperSeries.of_var(c, "q_y", order))
    return mk_thick(src, tgt, KIND_EVEN, S, order)


class TestLiftExamples:
    def test_tangent_of_square_map(self):
        lifted = tangent_lift(square_phi())
        assert serialize(lifted.S) == "x^2*dot_q_y + 2*x*dot_x*q_y"

    def test_readme_lifts_golden(self):
        """Both lifts of the README workspace's Phi, byte for byte."""
        root = Path(__file__).parents[1]
        ws = parse_workspace((root / "perfbench" / "workspaces" / "readme.mfc").read_text())
        out = "".join(serialize(lift_of(ws.morphisms["Phi"]).S) + "\n"
                      for lift_of in (tangent_lift, antitangent_lift))
        assert out == (root / "tests" / "golden" / "readme_lifts.txt").read_text()

    def test_tangent_of_golden(self):
        lifted = tangent_lift(worked_example())
        assert serialize(lifted.S) == "x*dot_q_y + dot_x*q_y + q_y*dot_q_y"

    def test_dotted_terms_degree_one(self):
        """The lifted generating function is linear in the dotted variables."""
        gen = Generator(40)
        for kind in (KIND_EVEN, KIND_ODD):
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
            lifted = tangent_lift(phi)
            chart = lifted.chart
            dotted = [i for i, v in enumerate(chart.variables)
                      if v.name.startswith("dot_")]
            for m in lifted.S.terms:
                assert sum(m[i] for i in dotted) == 1

    def test_tangent_keeps_kind_antitangent_flips(self):
        phi = worked_example()
        assert tangent_lift(phi).kind == KIND_EVEN
        assert antitangent_lift(phi).kind == KIND_ODD

    def test_antitangent_momentum_parities(self):
        lifted = antitangent_lift(worked_example())
        assert lifted.chart.var("par_q_y").parity == ODD
        assert lifted.chart.var("par_x").parity == ODD

    @pytest.mark.parametrize("bundle, lift_of", [(T, tangent_lift), (PIT, antitangent_lift)])
    def test_lifted_momenta_are_the_bundle_partners(self, bundle, lift_of):
        """A lift twice gives one chart, whose new momenta are the very
        ``Variable``s that ``fiber_variables`` keeps for the old ones.  The
        chart names are new to this test, so no earlier lift cached them."""
        src = Chart("Mfiber", [Variable("u", EVEN), Variable("nu", ODD)])
        tgt = Chart("Nfiber", [Variable("v", EVEN), Variable("mu", ODD)])
        c = combined_chart(src, tgt, KIND_EVEN)
        var = lambda n: SuperSeries.of_var(c, n, ORDER)
        phi = mk_thick(src, tgt, KIND_EVEN, mul(var("u"), var("q_v"))
                       + mul(var("nu"), var("q_mu")) + var("q_v") ** 2, ORDER)
        first, second = lift_of(phi), lift_of(phi)
        assert first.chart is second.chart
        momenta = phi.chart.variables[len(src):]
        tail = first.chart.variables[len(first.source):]
        assert tail[:len(momenta)] == momenta
        assert all(a is b for a, b in zip(tail[len(momenta):], fiber_variables(momenta, bundle),
                                          strict=True))

    def test_unknown_lift_rejected(self):
        with pytest.raises(ValueError):
            lift(worked_example(), "bogus")

    def test_repeated_lift_refused(self):
        # T(T(M)) would derive dot_x twice
        with pytest.raises(ValueError, match="duplicate variable 'dot_x'"):
            tangent_lift(tangent_lift(square_phi()))

    def test_base_map_of_lift_is_prolonged_base(self):
        """On coordinates, T Phi's base map is the tangent prolongation
        of Phi's base map: w = phi(x), dot_w = dot_x d(phi)/dx."""
        gen = Generator(41)
        for kind in (KIND_EVEN, KIND_ODD):
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
            lifted = tangent_lift(phi)
            got = base_map(lifted)
            base = base_map(phi)
            src = lifted.source  # TM chart of phi.source
            assert set(got) == {v.name for v in lifted.target}
            for v in phi.target:
                assert (base[v.name].chart, base[v.name].order) == (phi.source, phi.order)
                assert (got[v.name].chart, got[v.name].order) == (src, lifted.order)
                assert got[v.name] == embed(base[v.name], src, ORDER)
                expect = SuperSeries.zero(src, ORDER)
                for u in phi.source:
                    expect = expect + mul(
                        SuperSeries.of_var(src, "dot_" + u.name, ORDER),
                        embed(partial(base[v.name], u.name), src, ORDER))
                assert got["dot_" + v.name] == expect


class TestLiftRelations:
    @pytest.mark.parametrize("which", [TANGENT, ANTITANGENT])
    def test_relation_identity_random(self, which):
        gen = Generator(42)
        for kind in (KIND_EVEN, KIND_ODD):
            for _ in range(4):
                phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
                rep = relation_check(lift(phi, which))
                assert rep.passed, rep.render()


class TestFunctoriality:
    @pytest.mark.parametrize("which", [TANGENT, ANTITANGENT])
    def test_random_pairs(self, which):
        gen = Generator(43)
        for kind in (KIND_EVEN, KIND_ODD):
            for _ in range(3):
                outer, inner = random_pair_of_morphisms(
                    gen, kind, ORDER, max_momentum_degree=2)
                rep = check_functoriality(outer, inner, which, ORDER)
                assert rep.passed, rep.render()

    def test_thin_morphisms_compose_as_maps(self):
        gen = Generator(44)
        a = gen.chart(1, 1, name="A")
        b = gen.chart(1, 1, name="B", stems=("y", "eta"))
        c = gen.chart(1, 1, name="C", stems=("z", "zeta"))
        inner = from_classical(gen.classical_map(a, b, ORDER), KIND_EVEN, ORDER)
        outer = from_classical(gen.classical_map(b, c, ORDER), KIND_EVEN, ORDER)
        rep = check_functoriality(outer, inner, TANGENT, ORDER)
        assert rep.passed, rep.render()


class TestBundleMorphism:
    def test_golden_example(self):
        phi = worked_example(2)
        g = SuperSeries.of_var(phi.target, "y", 2) ** 2
        rep = check_bundle_morphism(phi, g, 2)
        assert rep.passed, rep.render()

    def test_golden_discrepancy_at_top_order(self):
        """T Phi does not reproduce Phi's own pullback: on the running
        example the sides differ by 2 eps^2 x^2 and agree only modulo
        eps^2, which is why the check compares with the base map."""
        phi = worked_example(2)
        g = SuperSeries.of_var(phi.target, "y", 2) ** 2
        lifted = tangent_lift(phi)
        lhs = pullback(lifted, embed(g, lifted.target, 2), 2)
        rhs = embed(pullback(phi, g, 2), lhs.chart, 2)
        diff = lhs - rhs
        assert not diff.is_zero()
        assert serialize(diff) == "-2*eps^2*x^2"
        assert truncate(diff, 1).is_zero()

    def test_golden_base_map_exact(self):
        """At n_eps = 4, (T Phi)*g is exactly eps * x^2, the base map's
        pullback, while Phi's own pullback adds 2 eps^2 x^2 + ..."""
        phi = worked_example(4)
        g = SuperSeries.of_var(phi.target, "y", 4) ** 2
        assert check_bundle_morphism(phi, g, 4).passed
        lifted = tangent_lift(phi)
        lhs = pullback(lifted, embed(g, lifted.target, 4), 4)
        assert serialize(lhs) == "eps*x^2"
        rhs = embed(pullback(phi, g, 4), lhs.chart, 4)
        assert truncate(lhs - rhs, 1).is_zero()
        assert not truncate(lhs - rhs, 2).is_zero()

    def test_random_morphisms(self):
        gen = Generator(45)
        for kind in (KIND_EVEN, KIND_ODD):
            want = EVEN if kind == KIND_EVEN else ODD
            for _ in range(4):
                phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
                g = gen.series(phi.target, ORDER, parity=want,
                               n_terms=2, max_degree=2)
                rep = check_bundle_morphism(phi, g, ORDER)
                assert rep.passed, rep.render()

    def test_corrupted_base_fails(self):
        """Lifting a different morphism (shifted base map) must not agree
        with the original even at first order in eps."""
        phi = worked_example(2)
        src, tgt = phi.source, phi.target
        c = phi.chart
        x = SuperSeries.of_var(c, "x", 2)
        q = SuperSeries.of_var(c, "q_y", 2)
        other = mk_thick(src, tgt, KIND_EVEN,
                         mul(x ** 2, q) + (q ** 2).scale(Fraction(1, 2)), 2)
        g = SuperSeries.of_var(tgt, "y", 2) ** 2
        lifted = tangent_lift(other)
        lhs = pullback(lifted, embed(g, lifted.target, 2), 2)
        rhs = embed(pullback(phi, g, 2), lhs.chart, 2)
        assert not truncate(lhs - rhs, 1).is_zero()
