"""The generators and oracles themselves: determinism, worked examples,
and solver/oracle agreement."""

import itertools

import pytest

from mfc import testkit
from mfc.morphisms import (
    KIND_EVEN,
    KIND_ODD,
    MorphismError,
    pullback,
)
from mfc.superalg import EVEN, ODD, Chart, SuperSeries, Variable, mul
from mfc.testkit import (
    ClassicalMap,
    Generator,
    oracle_pullback_classical,
    oracle_pullback_naive,
    random_morphism,
    suite_identifications,
    suite_pullback_props,
)
from mfc.textio import serialize

ORDER = 3


class TestDeterminism:
    def test_same_seed_same_series(self):
        a, b = Generator(42), Generator(42)
        ca, cb = a.chart(2, 2), b.chart(2, 2)
        for _ in range(10):
            assert serialize(a.series(ca, ORDER, n_terms=4, max_degree=3)) == \
                serialize(b.series(cb, ORDER, n_terms=4, max_degree=3))

    def test_same_seed_same_morphism(self):
        a, b = Generator(42), Generator(42)
        pa = random_morphism(a, KIND_EVEN, ORDER, max_momentum_degree=2)
        pb = random_morphism(b, KIND_EVEN, ORDER, max_momentum_degree=2)
        assert serialize(pa.S) == serialize(pb.S)

    def test_different_seeds_differ(self):
        a, b = Generator(1), Generator(2)
        ca, cb = a.chart(2, 2), b.chart(2, 2)
        outs_a = [serialize(a.series(ca, ORDER, n_terms=4, max_degree=3))
                  for _ in range(5)]
        outs_b = [serialize(b.series(cb, ORDER, n_terms=4, max_degree=3))
                  for _ in range(5)]
        assert outs_a != outs_b

    @pytest.mark.parametrize("draw", ["series", "generating_function"])
    def test_one_series_per_draw(self, monkeypatch, draw):
        """The accepted terms are summed in a dict and built into one series."""
        gen = Generator(42)
        a, b = gen.chart(2, 2), gen.chart(1, 1, name="N", stems=("y", "eta"))
        made = []
        init = SuperSeries.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SuperSeries, "__init__", counted)
        sizes = []
        for kind in (KIND_EVEN, KIND_ODD) * 5:
            made.clear()
            out = (gen.series(a, ORDER, n_terms=4, max_degree=3) if draw == "series"
                   else gen.generating_function(a, b, kind, ORDER))
            assert len(made) == 1 and made[0] is out
            sizes.append(len(out.terms))
        assert max(sizes) > 1


class TestClassicalOracle:
    def test_even_example(self):
        src = Chart("M", [Variable("x", EVEN)])
        tgt = Chart("N", [Variable("y", EVEN)])
        x = SuperSeries.of_var(src, "x", ORDER)
        phi = ClassicalMap(src, tgt, {"y": x ** 2})
        g = SuperSeries.of_var(tgt, "y", ORDER) + SuperSeries.const(tgt, 1, ORDER)
        assert serialize(oracle_pullback_classical(phi, g)) == "1 + x^2"

    def test_odd_example(self):
        src = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        tgt = Chart("N", [Variable("y", EVEN), Variable("eta", ODD)])
        x = SuperSeries.of_var(src, "x", ORDER)
        th = SuperSeries.of_var(src, "th", ORDER)
        phi = ClassicalMap(src, tgt, {"y": x, "eta": mul(x, th)})
        g = mul(SuperSeries.of_var(tgt, "y", ORDER),
                SuperSeries.of_var(tgt, "eta", ORDER))
        assert serialize(oracle_pullback_classical(phi, g)) == "x^2*th"


class TestNaiveOracle:
    def test_agrees_with_solver(self):
        gen = Generator(70)
        for i in range(20):
            kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
            want = EVEN if kind == KIND_EVEN else ODD
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
            g = gen.series(phi.target, ORDER, parity=want, n_terms=3,
                           max_degree=2)
            assert serialize(pullback(phi, g, ORDER)) == \
                serialize(oracle_pullback_naive(phi, g, ORDER))

    def test_moving_sweeps_raise(self, monkeypatch):
        # a gradient that changes at every sweep never settles
        phi = random_morphism(Generator(71), KIND_EVEN, ORDER, max_momentum_degree=2)
        g = SuperSeries.of_var(phi.target, phi.target.variables[0].name, ORDER)
        counter = itertools.count(1)
        monkeypatch.setattr(testkit, "partial", lambda a, name: SuperSeries.const(
            a.chart, next(counter), a.order))
        with pytest.raises(MorphismError, match=f"after {ORDER + 1} sweeps"):
            oracle_pullback_naive(phi, g, ORDER)


class TestSuites:
    def test_identifications_suite(self):
        rep = suite_identifications(order=3)
        assert rep.passed, rep.render()
        assert len(rep.checks) >= 18

    def test_pullback_props_suite(self):
        rep = suite_pullback_props(seed=3, trials=4, order=ORDER)
        assert rep.passed, rep.render()
