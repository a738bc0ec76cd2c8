"""Bundle charts, exterior operators, Liouville forms and the six
identification theorems."""

import gc

import pytest

from mfc import superforms
from mfc.morphisms import (KIND_ODD, canonical_conjugates, combined_chart, pullback_chart,
                           series_chart)
from mfc.qcalc import HomologicalField, hamiltonian_of_field
from mfc.superalg import (
    EVEN,
    ODD,
    ROLE_ODD_VELOCITY,
    ROLE_PARAM,
    Chart,
    ParityError,
    SuperSeries,
    Variable,
    cached_chart,
    deriv,
    embed,
    mul,
    partial,
    substitute,
    truncate_base_degree,
)
from mfc.superforms import (
    COTANGENT,
    D,
    IDENTIFICATION_CASES,
    PIT,
    PITSTAR,
    StructureError,
    T,
    TSTAR,
    apply_operator,
    de_rham,
    extend_chart,
    fiber_variables,
    liouville,
    partner,
    poisson_bracket,
    prolong_coordinate_change,
    verify_identification,
)
from mfc.testkit import Generator, worked_example
from mfc.textio import ParseError, parse_workspace, serialize

ORDER = 6


def base_chart(n_even=1, n_odd=1):
    evens = [Variable(f"x{i}", EVEN) for i in range(n_even)]
    odds = [Variable(f"xi{i}", ODD) for i in range(n_odd)]
    return Chart("M", evens + odds)


class TestExtensions:
    def test_cotangent_parities(self):
        c = extend_chart(Chart("M", [Variable("x", EVEN)]), TSTAR)
        assert c.var("q_x").parity == EVEN

    def test_anticotangent_flips(self):
        c = extend_chart(Chart("M", [Variable("x", EVEN)]), PITSTAR)
        assert c.var("ys_x").parity == ODD

    def test_iterated_t_after_pitstar(self):
        c = extend_chart(extend_chart(Chart("M", [Variable("x", EVEN)]), PITSTAR), T)
        assert [v.parity for v in c] == [EVEN, ODD, EVEN, ODD]
        assert [v.name for v in c] == ["x", "ys_x", "dot_x", "dot_ys_x"]

    def test_d_level_is_a_bundle(self):
        c = extend_chart(base_chart(), D)
        assert c.name == "d(M)"
        assert c.variables == (
            Variable("x0", EVEN), Variable("xi0", ODD),
            Variable("d_x0", ODD, ROLE_ODD_VELOCITY, 0, base="x0"),
            Variable("d_xi0", EVEN, ROLE_ODD_VELOCITY, 0, base="xi0"),
        )


class TestChartCache:
    """A derived chart is built once per key of names and variables."""

    def test_equal_inputs_give_one_chart(self):
        fresh = lambda: (Chart("M", [Variable("x", EVEN), Variable("xi", ODD)]),
                         Chart("N", [Variable("y", EVEN), Variable("eta", ODD)]))
        (m, n), (m2, n2) = fresh(), fresh()
        assert extend_chart(m, T) is extend_chart(m2, T)
        assert fiber_variables(m.variables, T) is fiber_variables(m2.variables, T)
        assert combined_chart(m, n, KIND_ODD) is combined_chart(m2, n2, KIND_ODD)
        phi, psi = worked_example(), worked_example()
        assert phi.source is not psi.source and phi.chart is psi.chart
        t = lambda: Variable("t'", EVEN, ROLE_PARAM, 0, max_power=1)
        assert pullback_chart(phi) is pullback_chart(psi)
        assert pullback_chart(phi, [t()]) is pullback_chart(psi, (t(),))
        assert series_chart(phi, [t()]) is series_chart(psi, (t(),))

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_equal_variables_keep_their_names(self, first):
        # Chart.__eq__ ignores the name: a cache keyed without it would hand
        # the chart built for one name to the other.  The variables are new to
        # each case, so either order starts from nothing cached.
        variables = [Variable("u_" + first, EVEN), Variable("v", ODD)]
        a, b = Chart("A", variables), Chart("B", variables)
        target = Chart("N", [Variable("y", EVEN)])
        for c in (a, b) if first == "A" else (b, a):
            assert extend_chart(c, T).name == f"T({c.name})"
            assert combined_chart(c, target, KIND_ODD).name == f"{c.name}=>N"
        assert extend_chart(a, T) == extend_chart(b, T)
        assert extend_chart(a, T) is not extend_chart(b, T)

    def test_refused_extension_is_not_cached(self):
        chart = Chart("M", [Variable("x", EVEN), Variable("dot_x", EVEN)])
        before = cached_chart.cache_info()
        for _ in range(2):
            with pytest.raises(ValueError, match="duplicate variable 'dot_x'"):
                extend_chart(chart, T)
        after = cached_chart.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)
        # the workspace of the CI line, refused at the coordinate each time
        text = ("chart M { x : even, dot_x : even }\nchart N { y : even }\n"
                "morphism Phi : M -> N kind=even { S = x*q_y + dot_x*q_y^2 }\n")
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse_workspace(text)
            assert (exc.value.line, exc.value.col) == (1, 21)

    def test_caches_stay_at_their_bound(self):
        size = cached_chart.cache_info().maxsize
        for i in range(size + 5):
            extend_chart(Chart(f"S{i}", [Variable(f"s{i}", EVEN)]), T)
        assert cached_chart.cache_info().currsize == size
        assert fiber_variables.cache_info()[2:] == (size, size)  # maxsize, currsize


class TestBundleTable:
    @pytest.mark.parametrize("kind, names, parities", [
        ("even", ["q_y", "q_eta"], [EVEN, ODD]),
        ("odd", ["ys_y", "ys_eta"], [ODD, EVEN]),
    ])
    def test_momenta_are_the_cotangent_fiber(self, kind, names, parities):
        src = base_chart()
        tgt = Chart("N", [Variable("y", EVEN), Variable("eta", ODD)])
        bundle = extend_chart(tgt, COTANGENT[kind])
        fiber = bundle.variables[len(tgt):]
        assert [v.name for v in fiber] == names
        assert [v.parity for v in fiber] == parities
        assert combined_chart(src, tgt, kind).variables[len(src):] == fiber
        assert [c.momentum for c in canonical_conjugates(tgt, kind)] == names
        q = HomologicalField(tgt, {v.name: SuperSeries.zero(tgt, ORDER) for v in tgt})
        assert hamiltonian_of_field(q, kind).chart.variables == bundle.variables

    @pytest.mark.parametrize("name", ["dot_z", "par_z", "d_z"])
    def test_theta_pairs_a_coordinate_named_like_a_partner(self, name):
        # a derived variable is told by its base: a coordinate called dot_z,
        # par_z or d_z (with no z) is underived and gets its own pair
        c = extend_chart(extend_chart(Chart("M", [Variable("x", EVEN), Variable(name, EVEN)]),
                                      TSTAR), D)
        var = lambda n: SuperSeries.of_var(c, n, 3)
        expect = mul(var("d_x"), var("q_x")) + mul(var(partner(name, D)), var("q_" + name))
        assert liouville(c, "theta", 3) == expect

    def test_theta_needs_momentum_pairs(self):
        with pytest.raises(StructureError):
            liouville(extend_chart(extend_chart(base_chart(), T), D), "theta", ORDER)

    def test_unknown_names_refused(self):
        with pytest.raises(ValueError, match="unknown bundle 'TT'"):
            extend_chart(base_chart(), "TT")
        with pytest.raises(ValueError, match="unknown Liouville form 'omega'"):
            liouville(extend_chart(extend_chart(base_chart(), TSTAR), D), "omega", ORDER)

    def test_lifted_form_needs_a_lifted_chart(self):
        """theta_TM on T*M with its d level, but no T prolongation of it."""
        with pytest.raises(StructureError, match=r"chart is not a T prolongation of a T\* bundle"):
            liouville(extend_chart(extend_chart(base_chart(), TSTAR), D), "theta_TM", ORDER)


class TestOperators:
    def chart(self):
        return extend_chart(extend_chart(base_chart(2, 2), PIT), D)

    def test_par_leibniz_example(self):
        c = self.chart()
        x, xi = SuperSeries.of_var(c, "x0", ORDER), SuperSeries.of_var(c, "xi0", ORDER)
        out = apply_operator(mul(x, xi), PIT)
        expect = mul(SuperSeries.of_var(c, "par_x0", ORDER), xi) \
            + mul(x, SuperSeries.of_var(c, "par_xi0", ORDER))
        assert out == expect

    def test_squares_vanish(self):
        gen = Generator(3)
        c = self.chart()
        for _ in range(15):
            a = gen.series(c, ORDER, n_terms=4, max_degree=3)
            assert apply_operator(apply_operator(a, D), D).is_zero()
            assert apply_operator(apply_operator(a, PIT), PIT).is_zero()

    def test_d_par_anticommute(self):
        gen = Generator(4)
        c = self.chart()
        for _ in range(15):
            a = gen.series(c, ORDER, n_terms=4, max_degree=3)
            dp = apply_operator(apply_operator(a, PIT), D)
            pd = apply_operator(apply_operator(a, D), PIT)
            assert dp == -pd

    @pytest.mark.parametrize("bundle", [T, PIT, D])
    def test_builds_no_image_series(self, bundle, monkeypatch):
        """The derivation shifts terms: its result is the one series it makes."""
        c = extend_chart(extend_chart(extend_chart(base_chart(2, 2), T), PIT), D)
        a = Generator(5).series(c, ORDER, n_terms=6, max_degree=3)
        made = []
        init = SuperSeries.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SuperSeries, "__init__", counted)
        out = apply_operator(a, bundle)
        assert len(made) == 1 and made[0] is out

    def test_de_rham_requires_level(self):
        c = base_chart()
        a = SuperSeries.of_var(c, "x0", ORDER)
        with pytest.raises(StructureError):
            de_rham(a, PIT)

    @pytest.mark.parametrize("bundle", [TSTAR, PITSTAR, "dot"])
    def test_only_tangent_type_bundles_name_a_derivation(self, bundle):
        a = SuperSeries.of_var(self.chart(), "x0", ORDER)
        with pytest.raises(ValueError):
            apply_operator(a, bundle)

    def test_de_rham_level_is_d_or_pit(self):
        c = extend_chart(base_chart(), T)
        with pytest.raises(ValueError):
            de_rham(SuperSeries.of_var(c, "x0", ORDER), T)


class TestImageTables:
    """``apply_operator`` keeps each chart's ``deriv`` images per bundle, and
    the table names variables only: it holds no chart, its own or another."""

    def chart(self):
        return extend_chart(extend_chart(extend_chart(base_chart(2, 2), T), PIT), D)

    def test_cached_images_match_a_fresh_table(self):
        hub = self.chart()
        direct = Chart(hub.name, hub.variables)  # equal, but not from the cache
        gen = Generator(12)
        order = [T, PIT, D, PIT, T, D, D, T, PIT]
        for _ in range(6):
            a = gen.series(hub, ORDER, n_terms=6, max_degree=3)
            b = embed(a, direct, ORDER)
            for bundle in order:
                # a chart that has never run a derivation builds its table from scratch
                fresh = apply_operator(embed(a, Chart(hub.name, hub.variables), ORDER), bundle)
                assert apply_operator(a, bundle) == fresh
                assert apply_operator(b, bundle) == fresh
                a, b = apply_operator(a, bundle) + a, apply_operator(b, bundle) + b
        assert sorted(hub.images) == sorted(direct.images) == sorted([T, PIT, D])

    def test_refused_operator_leaves_no_table(self):
        a = SuperSeries.of_var(self.chart(), "x0", ORDER)
        chart = Chart("M", a.chart.variables)
        with pytest.raises(ValueError, match="names no derivation"):
            apply_operator(embed(a, chart, ORDER), TSTAR)
        assert chart.images == {}
        # a coordinate named like x's T partner, of the wrong parity for it
        odd_dot = Chart("M", [Variable("x", EVEN), Variable("dot_x", ODD)])
        x = SuperSeries.of_var(odd_dot, "x", ORDER)
        for _ in range(2):
            with pytest.raises(ParityError, match="image of 'x' has the wrong parity"):
                apply_operator(x, T)
            assert odd_dot.images == {}

    def test_deriv_checks_every_table(self):
        a = Generator(13).series(self.chart(), ORDER, n_terms=4, max_degree=3)
        apply_operator(a, PIT)
        images = dict(a.chart.images[PIT])
        with pytest.raises(ParityError, match="image of 'x0' has the wrong parity"):
            deriv(a, images, EVEN)  # PiT's images under an even derivation
        images["x0"] = ("dot_x0", 1)
        with pytest.raises(ParityError, match="image of 'x0' has the wrong parity"):
            deriv(a, images, ODD)

    def test_no_chart_keeps_another_alive(self):
        hub = self.chart()
        a = Generator(14).series(hub, ORDER, n_terms=6, max_degree=3)

        def visit(i):
            chart = Chart(f"visitor{i}", hub.variables)
            b = embed(a, chart, ORDER)
            for bundle in (D, PIT):
                assert embed(apply_operator(b, bundle), hub, ORDER) == apply_operator(a, bundle)

        for i in range(200):
            visit(i)
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if isinstance(o, Chart) and o.name.startswith("visitor")]
        assert alive == []
        assert {D, PIT} <= set(hub.images) <= {T, PIT, D}  # T: an earlier test's
        assert all(isinstance(name, str) and isinstance(target, str) and sign in (1, -1)
                   for table in hub.images.values() for name, (target, sign) in table.items())


class TestPoisson:
    def chart(self):
        return extend_chart(base_chart(2, 1), TSTAR)

    def test_refusals(self):
        c = self.chart()
        x, xi = (SuperSeries.of_var(c, n, ORDER) for n in ("x0", "xi0"))
        with pytest.raises(ValueError, match="structure must be 'even' or 'odd'"):
            poisson_bracket(x, x, "bogus")
        with pytest.raises(ParityError, match="bracket needs a parity-homogeneous first argument"):
            poisson_bracket(x + xi, x)
        y = SuperSeries.of_var(base_chart(), "x0", ORDER)
        with pytest.raises(StructureError, match="chart 'M' has no antimomentum pairs"):
            poisson_bracket(y, y, "odd")

    def test_darboux(self):
        c = self.chart()
        x = SuperSeries.of_var(c, "x0", ORDER)
        p = SuperSeries.of_var(c, "q_x0", ORDER)
        assert poisson_bracket(x, p) == SuperSeries.const(c, 1, ORDER)
        assert poisson_bracket(x, x).is_zero()

    def test_de_rham_hamiltonian_squares_to_zero(self):
        c = extend_chart(extend_chart(base_chart(2, 1), PIT), TSTAR)
        h = SuperSeries.zero(c, ORDER)
        for v in base_chart(2, 1):
            h = h + mul(SuperSeries.of_var(c, "par_" + v.name, ORDER),
                        SuperSeries.of_var(c, "q_" + v.name, ORDER))
        assert poisson_bracket(h, h).is_zero()

    def test_graded_antisymmetry(self):
        gen = Generator(10)
        c = self.chart()
        for _ in range(20):
            pa = gen.rng.choice([EVEN, ODD])
            pb = gen.rng.choice([EVEN, ODD])
            a = gen.series(c, ORDER, parity=pa, n_terms=3, max_degree=3)
            b = gen.series(c, ORDER, parity=pb, n_terms=3, max_degree=3)
            sign = -1 if (pa and pb) else 1
            assert poisson_bracket(a, b) == poisson_bracket(b, a).scale(-sign)

    def test_jacobi(self):
        gen = Generator(11)
        c = self.chart()
        for _ in range(8):
            ps = [gen.rng.choice([EVEN, ODD]) for _ in range(3)]
            a, b, d = [gen.series(c, ORDER, parity=p, n_terms=2, max_degree=2)
                       for p in ps]
            pb = poisson_bracket
            lhs = pb(a, pb(b, d))
            mid = pb(pb(a, b), d)
            sign = -1 if (ps[0] and ps[1]) else 1
            rhs = mid + pb(b, pb(a, d)).scale(sign)
            assert lhs == rhs

    @pytest.mark.parametrize("structure", ["even", "odd"])
    def test_darboux_on_a_coordinate_named_d(self, structure):
        # d_y is a coordinate here, not the form level of a y
        bundle = COTANGENT[structure]
        c = extend_chart(Chart("M", [Variable("x", EVEN), Variable("d_y", EVEN)]), bundle)
        y = SuperSeries.of_var(c, "d_y", ORDER)
        m = SuperSeries.of_var(c, partner("d_y", bundle), ORDER)
        assert poisson_bracket(y, m, structure) == SuperSeries.const(c, 1, ORDER)

    def test_odd_bracket_darboux(self):
        c = extend_chart(base_chart(1, 1), PITSTAR)
        x = SuperSeries.of_var(c, "x0", ORDER)
        xs = SuperSeries.of_var(c, "ys_x0", ORDER)
        assert poisson_bracket(x, xs, "odd") == SuperSeries.const(c, 1, ORDER)


class TestIdentifications:
    @pytest.mark.parametrize("case", sorted(IDENTIFICATION_CASES))
    @pytest.mark.parametrize("shape", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_case_passes(self, case, shape):
        chart = base_chart(*shape)
        report = verify_identification(case, chart, order=4)
        assert report.passed, report.render()

    def test_mx_with_mixed_fiber(self):
        chart = base_chart(1, 1)
        fiber = [Variable("u0", ODD), Variable("u1", EVEN)]
        assert verify_identification("MX", chart, fiber=fiber, order=4).passed
        assert verify_identification("oddMX", chart, fiber=fiber, order=4).passed

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            verify_identification("bogus", base_chart(), order=4)


class TestProlongation:
    def test_velocity_scales(self):
        c = Chart("M", [Variable("x", EVEN)])
        f = {"x": SuperSeries.of_var(c, "x", 4).scale(2)}
        chart, sigma = prolong_coordinate_change(f, c, [T], 4)
        assert sigma["dot_x"] == SuperSeries.of_var(chart, "dot_x", sigma["dot_x"].order).scale(2)

    def test_image_off_the_base_chart_refused(self):
        c = Chart("M", [Variable("x", EVEN)])
        f = {"x": SuperSeries.of_var(extend_chart(c, T), "x", 4)}
        with pytest.raises(ValueError, match="base change images must live on the base chart"):
            prolong_coordinate_change(f, c, [T], 4)

    def test_momentum_inverse_jacobian(self):
        c = Chart("M", [Variable("x", EVEN)])
        f = {"x": SuperSeries.of_var(c, "x", 4).scale(2)}
        chart, sigma = prolong_coordinate_change(f, c, [TSTAR], 4)
        from fractions import Fraction
        assert sigma["q_x"] == SuperSeries.of_var(chart, "q_x", sigma["q_x"].order).scale(Fraction(1, 2))

    def test_nonlinear_momentum_law(self):
        c = Chart("M", [Variable("x", EVEN)])
        x = SuperSeries.of_var(c, "x", 4)
        f = {"x": x + x ** 2}
        chart, sigma = prolong_coordinate_change(f, c, [TSTAR], 2)
        xs = SuperSeries.of_var(chart, "x", sigma["q_x"].order)
        p = SuperSeries.of_var(chart, "q_x", sigma["q_x"].order)
        # (1 + 2x)^-1 = 1 - 2x + 4x^2 - ... truncated at base degree 2
        expect = mul(SuperSeries.const(chart, 1, p.order)
                     - xs.scale(2) + (xs ** 2).scale(4), p)
        assert truncate_base_degree(sigma["q_x"] - expect, 2).is_zero()

    def test_unsettled_momentum_solve_raises(self, monkeypatch):
        """A solve whose sweeps never repeat u runs out of sweeps: each patched
        truncation adds a fresh constant."""
        calls = []

        def drifting(a, n):
            calls.append(None)
            return truncate_base_degree(a, n) + len(calls)
        monkeypatch.setattr(superforms, "truncate_base_degree", drifting)
        c = Chart("M", [Variable("x", EVEN)])
        f = {"x": SuperSeries.of_var(c, "x", 4).scale(2)}
        with pytest.raises(ValueError, match="^momentum solve did not converge$"):
            prolong_coordinate_change(f, c, [TSTAR], 4)

    def test_singular_change_rejected(self):
        c = Chart("M", [Variable("x", EVEN)])
        f = {"x": SuperSeries.of_var(c, "x", 4) ** 2}
        with pytest.raises(ValueError):
            prolong_coordinate_change(f, c, [TSTAR], 4)

    @pytest.mark.parametrize("kinds", [[PITSTAR, TSTAR], [TSTAR, PITSTAR]])
    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_two_cotangent_stages_solve_momenta(self, kinds, order):
        # the second stage's Jacobian has entries of base degree 0 (the first
        # stage's momenta), so its solve must run to a fixed point
        base = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        x, th = (SuperSeries.of_var(base, v, order) for v in ("x", "th"))
        F = {"x": x + x ** 2 + x ** 3, "th": th + mul(x, th)}
        chart, sigma = prolong_coordinate_change(F, base, kinds, order)
        stage = base
        for kind in kinds:
            names = [v.name for v in stage]
            for b in names:
                # sum_v d(sigma v)/db * sigma(mu_v) - mu_b
                resid = -SuperSeries.of_var(chart, partner(b, kind), sigma[b].order)
                for v in names:
                    resid = resid + mul(partial(sigma[v], b), sigma[partner(v, kind)])
                assert truncate_base_degree(resid, order).is_zero(), (kind, b)
            stage = extend_chart(stage, kind)

    def test_second_stage_image_outweighs_order(self):
        # ys_th's image carries the first stage's momentum q_th beside its own
        # ys_q_x: weight 2, past the order 1, so the images keep one weight per
        # cotangent stage
        order = 1
        base = Chart("M", [Variable("x", EVEN), Variable("th", ODD)])
        x, th = (SuperSeries.of_var(base, v, order) for v in ("x", "th"))
        F = {"x": x + x ** 2 + x ** 3, "th": th + mul(x, th)}
        chart, sigma = prolong_coordinate_change(F, base, [TSTAR, PITSTAR], order)
        image = sigma["ys_th"]
        assert serialize(image) == "ys_th - x*ys_th + q_th*ys_q_x + x*q_th*ys_q_x"
        assert image.order >= 2

    @pytest.mark.parametrize("mom_kind, which", [(TSTAR, "theta"), (PITSTAR, "lambda")])
    @pytest.mark.parametrize("change", ["permutation", "shear"])
    def test_non_diagonal_linear_part(self, change, mom_kind, which):
        # the permutation's zero first pivot forces a row swap in the inversion
        # of the Jacobian's linear part; the shear leaves an off-diagonal entry
        # to clear
        order = 3
        base = base_chart(2, 0 if change == "permutation" else 2)
        v = {w.name: SuperSeries.of_var(base, w.name, order) for w in base}
        if change == "permutation":
            F = {"x0": v["x1"], "x1": v["x0"]}
        else:
            F = {"x0": v["x0"] + v["x1"] + v["x0"] ** 2, "x1": v["x1"],
                 "xi0": v["xi0"] + v["xi1"], "xi1": v["xi1"]}
        chart, sigma = prolong_coordinate_change(F, base, [mom_kind], order)
        names = list(F)
        for b in names:
            # sum_v d(sigma v)/db * sigma(mu_v) - mu_b
            resid = -SuperSeries.of_var(chart, partner(b, mom_kind), sigma[b].order)
            for name in names:
                resid = resid + mul(partial(sigma[name], b), sigma[partner(name, mom_kind)])
            assert truncate_base_degree(resid, order).is_zero(), b
        th = liouville(chart, which, order)
        img = substitute(th, sigma, chart=chart, order=max(s.order for s in sigma.values()))
        assert truncate_base_degree(img - embed(th, chart, img.order), order).is_zero()


def random_base_change(gen, base, order):
    """Identity plus a higher-degree polynomial perturbation."""
    F = {}
    for v in base:
        pert = gen.series(base, order, parity=v.parity, n_terms=2, max_degree=order)
        pert = SuperSeries(base, {m: c for m, c in pert.terms.items()
                                  if sum(m) >= 2}, order)
        F[v.name] = SuperSeries.of_var(base, v.name, order) + pert
    return F


class TestLiouvilleInvariance:
    @pytest.mark.parametrize("mom_kind,which", [(TSTAR, "theta"), (PITSTAR, "lambda")])
    def test_base_forms_invariant(self, mom_kind, which):
        gen = Generator(21)
        for shape in [(1, 0), (1, 1), (2, 1)]:
            base = base_chart(*shape)
            F = random_base_change(gen, base, 4)
            chart, sigma = prolong_coordinate_change(F, base, [mom_kind], 4)
            th = liouville(chart, which, 4)
            img = substitute(th, sigma, chart=chart,
                             order=max(s.order for s in sigma.values()))
            resid = truncate_base_degree(img - embed(th, chart, img.order), 4)
            assert resid.is_zero()

    @pytest.mark.parametrize("mom_kind,tan_kind,which", [
        (TSTAR, T, "theta_TM"),
        (PITSTAR, T, "lambda_TM"),
        (PITSTAR, PIT, "theta_PiTM"),
        (TSTAR, PIT, "lambda_PiTM"),
    ])
    def test_lifted_forms_invariant(self, mom_kind, tan_kind, which):
        gen = Generator(22)
        for shape in [(1, 0), (1, 1)]:
            base = base_chart(*shape)
            F = random_base_change(gen, base, 4)
            chart, sigma = prolong_coordinate_change(F, base, [mom_kind, tan_kind], 4)
            th = liouville(chart, which, 4)
            img = substitute(th, sigma, chart=chart,
                             order=max(s.order for s in sigma.values()))
            resid = truncate_base_degree(img - embed(th, chart, img.order), 4)
            assert resid.is_zero()
