"""Homological fields, Q-morphism residuals, closedness, derivative
homomorphism and the intertwining identity."""

import pytest

from mfc.functors import antitangent_lift, tangent_lift
from mfc.morphisms import (
    KIND_EVEN,
    KIND_ODD,
    combined_chart,
    mk_thick,
    pullback,
)
from mfc.qcalc import (
    HomologicalField,
    check_antitangent_q,
    closedness_check,
    de_rham_field,
    derivative_homomorphism_check,
    hamiltonian_of_field,
    intertwining_check,
    q_morphism_residual,
)
from mfc.superalg import (
    EVEN,
    ODD,
    Chart,
    ParityError,
    SuperSeries,
    Variable,
    mul,
)
from mfc.superforms import (
    PIT,
    StructureError,
    de_rham,
    extend_chart,
    poisson_bracket,
)
from mfc.testkit import Generator, from_classical, random_morphism, worked_example
from mfc.textio import serialize

ORDER = 3


def chart_x():
    return Chart("M", [Variable("x", EVEN)])


def chart_y():
    return Chart("N", [Variable("y", EVEN)])


class TestHomologicalFields:
    def test_component_parity_enforced(self):
        c = Chart("M", [Variable("x", EVEN)])
        with pytest.raises(ParityError):
            HomologicalField(c, {"x": SuperSeries.of_var(c, "x", ORDER)})

    def test_hamiltonian_example(self):
        c = Chart("M", [Variable("x", EVEN), Variable("xi", ODD)])
        q = HomologicalField(c, {
            "x": SuperSeries.of_var(c, "xi", ORDER),
            "xi": SuperSeries.zero(c, ORDER),
        })
        assert serialize(hamiltonian_of_field(q, "even")) == "xi*q_x"
        assert serialize(hamiltonian_of_field(q, "odd")) == "xi*ys_x"
        assert q.is_homological()
        with pytest.raises(ValueError, match="structure must be 'even' or 'odd'"):
            hamiltonian_of_field(q, "bogus")

    def test_non_homological_field(self):
        c = Chart("M", [Variable("x", EVEN), Variable("xi", ODD)])
        q = HomologicalField(c, {
            "x": SuperSeries.of_var(c, "xi", ORDER),
            "xi": SuperSeries.of_var(c, "x", ORDER),
        })
        assert not q.is_homological()

    def test_de_rham_field(self):
        c = extend_chart(chart_x(), PIT)
        q = de_rham_field(c, order=ORDER)
        assert q.components["x"] == SuperSeries.of_var(c, "par_x", ORDER)
        assert q.components["par_x"].is_zero()
        assert q.is_homological()
        h = hamiltonian_of_field(q, "even")
        assert poisson_bracket(h, h).is_zero()

    def test_de_rham_needs_par_level(self):
        with pytest.raises(StructureError):
            de_rham_field(chart_x(), order=ORDER)


class TestAntitangentQ:
    def test_golden(self):
        rep = check_antitangent_q(worked_example(), ORDER)
        assert rep.passed, rep.render()

    def test_classical(self):
        gen = Generator(50)
        src = gen.chart(1, 1, name="A")
        tgt = gen.chart(1, 1, name="B", stems=("y", "eta"))
        for kind in (KIND_EVEN, KIND_ODD):
            phi = from_classical(gen.classical_map(src, tgt, ORDER), kind, ORDER)
            rep = check_antitangent_q(phi, ORDER)
            assert rep.passed, rep.render()

    def test_random_both_kinds(self):
        gen = Generator(51)
        for kind in (KIND_EVEN, KIND_ODD):
            for _ in range(4):
                phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
                rep = check_antitangent_q(phi, ORDER)
                assert rep.passed, rep.render()

    @pytest.mark.parametrize("kind", [KIND_EVEN, KIND_ODD])
    def test_after_tangent_lift(self, kind):
        """PiT(T(Phi)) is a Q-morphism too: a lift may follow a lift."""
        gen = Generator(52)
        for shape in [(1, 0), (1, 1)]:
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2, shapes=(shape,))
            rep = check_antitangent_q(tangent_lift(phi), ORDER)
            assert rep.passed, rep.render()
        # negative control on x -> x^2, since on some draws (this seed's odd
        # (1|1) one) both de Rham Hamiltonians vanish on the relation: twice
        # the target's Hamiltonian leaves a residual
        src, tgt = chart_x(), chart_y()
        c = combined_chart(src, tgt, kind)
        S = mul(SuperSeries.of_var(c, "x", ORDER) ** 2,
                SuperSeries.of_var(c, c.variables[-1].name, ORDER))
        phi = tangent_lift(mk_thick(src, tgt, kind, S, ORDER))
        assert check_antitangent_q(phi, ORDER).passed
        lifted = antitangent_lift(phi)
        h1, h2 = (hamiltonian_of_field(de_rham_field(side, order=ORDER), lifted.kind)
                  for side in (lifted.source, lifted.target))
        assert not q_morphism_residual(lifted, h1, h2.scale(2), ORDER).is_zero()

    def test_non_lift_fails(self):
        """A thin morphism between PiT charts that kills the par
        coordinate is not a Q-morphism for the de Rham fields."""
        src = extend_chart(chart_x(), PIT)
        tgt = extend_chart(chart_y(), PIT)
        c = combined_chart(src, tgt, KIND_EVEN)
        S = mul(SuperSeries.of_var(c, "x", ORDER),
                SuperSeries.of_var(c, "q_y", ORDER))
        phi = mk_thick(src, tgt, KIND_EVEN, S, ORDER)
        q1 = de_rham_field(src, order=ORDER)
        q2 = de_rham_field(tgt, order=ORDER)
        residual = q_morphism_residual(
            phi, hamiltonian_of_field(q1, "even"),
            hamiltonian_of_field(q2, "even"), ORDER)
        assert not residual.is_zero()


class TestClosedness:
    def target2(self):
        return Chart("N", [Variable("y0", EVEN), Variable("y1", EVEN)])

    def phi2(self):
        src = Chart("M", [Variable("x0", EVEN), Variable("x1", EVEN)])
        tgt = self.target2()
        c = combined_chart(src, tgt, KIND_EVEN)
        x0 = SuperSeries.of_var(c, "x0", ORDER)
        x1 = SuperSeries.of_var(c, "x1", ORDER)
        q0 = SuperSeries.of_var(c, "q_y0", ORDER)
        q1 = SuperSeries.of_var(c, "q_y1", ORDER)
        S = mul(x0, q0) + mul(x1, q1) + mul(q0, q1)
        return mk_thick(src, tgt, KIND_EVEN, S, ORDER)

    def omega_exact(self):
        """d(y0^2) = 2 y0 par_y0 on the lifted target."""
        tgt = extend_chart(self.target2(), PIT)
        return mul(SuperSeries.of_var(tgt, "y0", ORDER),
                   SuperSeries.of_var(tgt, "par_y0", ORDER)).scale(2)

    def test_exact_form_stays_closed(self):
        rep = closedness_check(self.phi2(), self.omega_exact(), ORDER)
        assert rep.passed, rep.render()

    def test_golden_morphism(self):
        tgt = extend_chart(chart_y(), PIT)
        omega = mul(SuperSeries.of_var(tgt, "y", ORDER),
                    SuperSeries.of_var(tgt, "par_y", ORDER))
        rep = closedness_check(worked_example(), omega, ORDER)
        assert rep.passed, rep.render()

    def test_non_closed_rejected(self):
        tgt = extend_chart(self.target2(), PIT)
        omega = mul(SuperSeries.of_var(tgt, "y1", ORDER),
                    SuperSeries.of_var(tgt, "par_y0", ORDER))
        with pytest.raises(ValueError, match="not closed"):
            closedness_check(self.phi2(), omega, ORDER)


class TestDerivativeHomomorphism:
    def test_golden(self):
        tgt = chart_y()
        y = SuperSeries.of_var(tgt, "y", ORDER)
        rep = derivative_homomorphism_check(worked_example(), y, y, y, ORDER)
        assert rep.passed, rep.render()

    def test_zero_base_point(self):
        tgt = chart_y()
        y = SuperSeries.of_var(tgt, "y", ORDER)
        zero = SuperSeries.zero(tgt, ORDER)
        rep = derivative_homomorphism_check(worked_example(), zero, y, y ** 2, ORDER)
        assert rep.passed, rep.render()

    def test_classical(self):
        gen = Generator(52)
        src = gen.chart(1, 1, name="A")
        tgt = gen.chart(1, 1, name="B", stems=("y", "eta"))
        phi = from_classical(gen.classical_map(src, tgt, ORDER),
                             KIND_EVEN, ORDER)
        y = SuperSeries.of_var(tgt, "y0", ORDER)
        eta = SuperSeries.of_var(tgt, "eta0", ORDER)
        rep = derivative_homomorphism_check(phi, y, eta, eta, ORDER)
        assert rep.passed, rep.render()

    def test_random(self):
        gen = Generator(53)
        done = 0
        while done < 6:
            kind = KIND_EVEN if done % 2 == 0 else KIND_ODD
            want = EVEN if kind == KIND_EVEN else ODD
            phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
            f = gen.series(phi.target, ORDER, parity=want, n_terms=2,
                           max_degree=2)
            pg = gen.rng.choice([EVEN, ODD])
            g = gen.series(phi.target, ORDER, parity=pg, n_terms=2,
                           max_degree=2)
            h = gen.series(phi.target, ORDER, parity=pg, n_terms=2,
                           max_degree=2)
            if g.is_zero() or h.is_zero():
                continue
            rep = derivative_homomorphism_check(phi, f, g, h, ORDER)
            assert rep.passed, rep.render()
            done += 1


def nondegenerate(phi, omega):
    """The pulled-back form has a nonzero differential, so the
    intertwining identity compares two nonzero sides."""
    rho = pullback(antitangent_lift(phi), omega, ORDER)
    return not de_rham(rho, PIT).is_zero()


class TestIntertwining:
    def test_classical(self):
        gen = Generator(54)
        checked = []
        for _ in range(6):
            src = gen.chart(1, 1, name="A")
            tgt = gen.chart(1, 1, name="B", stems=("y", "eta"))
            phi = from_classical(gen.classical_map(src, tgt, ORDER),
                                 KIND_EVEN, ORDER)
            lifted_tgt = extend_chart(tgt, PIT)
            omega = gen.series(lifted_tgt, ORDER, parity=ODD, n_terms=2,
                               max_degree=2)
            if omega.is_zero():
                continue
            rep = intertwining_check(phi, omega, ORDER)
            assert rep.passed, rep.render()
            checked.append(nondegenerate(phi, omega))
        assert any(checked)

    def test_thick_both_kinds(self):
        """Draws until each kind has two nondegenerate cases; many random
        draws give a pulled-back form with zero differential."""
        gen = Generator(55)
        for kind in (KIND_EVEN, KIND_ODD):
            found = 0
            for _ in range(20):
                phi = random_morphism(gen, kind, ORDER, max_momentum_degree=2)
                lifted_tgt = extend_chart(phi.target, PIT)
                omega = gen.series(lifted_tgt, ORDER,
                                   parity=ODD if kind == KIND_EVEN else EVEN,
                                   n_terms=2, max_degree=2)
                rep = intertwining_check(phi, omega, ORDER)
                assert rep.passed, rep.render()
                found += nondegenerate(phi, omega)
                if found == 2:
                    break
            assert found == 2, kind

    def test_golden_thick_example(self):
        tgt = extend_chart(chart_y(), PIT)
        omega = mul(SuperSeries.of_var(tgt, "y", ORDER),
                    SuperSeries.of_var(tgt, "par_y", ORDER))
        rep = intertwining_check(worked_example(), omega, ORDER)
        assert rep.passed, rep.render()

    def test_zero_form_passes(self):
        tgt = extend_chart(chart_y(), PIT)
        omega = SuperSeries.zero(tgt, ORDER)
        rep = intertwining_check(worked_example(), omega, ORDER)
        assert rep.passed, rep.render()
