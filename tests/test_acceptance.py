"""Acceptance gate: ten exact, seeded, property-based criteria.

Each criterion prints a single ``CRITERION <n> <name> PASS|FAIL`` line
and then asserts.  All residual comparisons are exact rational zeros;
no floating-point tolerances appear anywhere.
"""

import time

from mfc.functors import (
    ANTITANGENT,
    TANGENT,
    antitangent_lift,
    check_bundle_morphism,
    check_functoriality,
)
from mfc.morphisms import (
    EPS,
    KIND_EVEN,
    KIND_ODD,
    combined_chart,
    mk_thick,
    pullback,
)
from mfc.qcalc import (
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
    SuperSeries,
    Variable,
    embed,
    mul,
    substitute,
    truncate_base_degree,
)
from mfc.superforms import (
    IDENTIFICATION_CASES,
    PIT,
    PITSTAR,
    T,
    TSTAR,
    de_rham,
    extend_chart,
    liouville,
    prolong_coordinate_change,
    verify_identification,
)
from mfc.testkit import (
    Generator,
    from_classical,
    oracle_pullback_classical,
    oracle_pullback_naive,
    random_morphism,
    random_pair_of_morphisms,
    worked_example,
)
from mfc.textio import serialize


def report_line(number, name, ok):
    print(f"CRITERION {number:02d} {name} {'PASS' if ok else 'FAIL'}",
          flush=True)
    assert ok, f"criterion {number} ({name}) failed"


SHAPES_22 = ((1, 0), (1, 1), (0, 1), (2, 1), (2, 2))


def test_criterion_1_identification_suite():
    start = time.monotonic()
    ok = True
    for case in IDENTIFICATION_CASES:
        for shape in ((1, 0), (1, 1), (2, 1)):
            chart = Generator().chart(*shape)
            rep = verify_identification(case, chart, order=4)
            ok = ok and rep.passed
    elapsed = time.monotonic() - start
    report_line(1, "identification_suite", ok and elapsed < 10)


def test_criterion_2_liouville_invariance():
    start = time.monotonic()
    gen = Generator(101)
    order = 4
    ok = True
    changes = 0
    variants = [([TSTAR], "theta"), ([PITSTAR], "lambda"),
                ([TSTAR, T], "theta_TM"), ([PITSTAR, T], "lambda_TM"),
                ([PITSTAR, PIT], "theta_PiTM"), ([TSTAR, PIT], "lambda_PiTM")]
    for kinds, which in variants:
        for shape in ((1, 0), (1, 1)):
            for _ in range(5):
                base = gen.chart(*shape)
                F = {}
                for v in base:
                    pert = gen.series(base, order, parity=v.parity,
                                      n_terms=2, max_degree=order)
                    pert = SuperSeries(base, {m: c for m, c in pert.terms.items()
                                              if sum(m) >= 2}, order)
                    F[v.name] = SuperSeries.of_var(base, v.name, order) + pert
                chart, sigma = prolong_coordinate_change(F, base, kinds, order)
                th = liouville(chart, which, order)
                img = substitute(th, sigma, chart=chart,
                                 order=max(s.order for s in sigma.values()))
                resid = truncate_base_degree(img - embed(th, chart, img.order),
                                             order)
                ok = ok and resid.is_zero()
                changes += 1
    elapsed = time.monotonic() - start
    report_line(2, "liouville_invariance",
                ok and changes >= 50 and elapsed < 60)


def test_criterion_3_functoriality():
    start = time.monotonic()
    gen = Generator(102)
    ok = True
    for i in range(100):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        outer, inner = random_pair_of_morphisms(gen, kind, 3, max_momentum_degree=2,
                                                shapes=SHAPES_22)
        for which in (TANGENT, ANTITANGENT):
            rep = check_functoriality(outer, inner, which, 3)
            ok = ok and rep.passed
    elapsed = time.monotonic() - start
    report_line(3, "functoriality", ok and elapsed < 300)


def test_criterion_4_bundle_morphism():
    gen = Generator(103)
    ok = True
    for i in range(100):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        want = EVEN if kind == KIND_EVEN else ODD
        phi = random_morphism(gen, kind, 2, max_momentum_degree=2,
                              shapes=SHAPES_22)
        g = gen.series(phi.target, 2, parity=want, n_terms=2, max_degree=2)
        rep = check_bundle_morphism(phi, g, 2)
        ok = ok and rep.passed
    report_line(4, "bundle_morphism", ok)


def test_criterion_5_classical_reduction():
    gen = Generator(104)
    ok = True
    for i in range(200):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        want = EVEN if kind == KIND_EVEN else ODD
        sa = gen.rng.choice(SHAPES_22)
        sb = gen.rng.choice(SHAPES_22)
        src = gen.chart(*sa, name="A")
        tgt = gen.chart(*sb, name="B", stems=("y", "eta"))
        cmap = gen.classical_map(src, tgt, 3)
        phi = from_classical(cmap, kind, 3)
        g = gen.series(tgt, 3, parity=want, n_terms=3, max_degree=2)
        got = pullback(phi, g, 3)
        work = got.chart
        expected = mul(SuperSeries.of_var(work, EPS, 3),
                       embed(oracle_pullback_classical(cmap, g, 3), work, 3))
        ok = ok and got == expected
    report_line(5, "classical_reduction", ok)


def test_criterion_6_antitangent_q():
    gen = Generator(105)
    ok = True
    for kind in (KIND_EVEN, KIND_ODD):
        for _ in range(100):
            phi = random_morphism(gen, kind, 3, max_momentum_degree=2,
                                  shapes=SHAPES_22)
            rep = check_antitangent_q(phi, 3)
            ok = ok and rep.passed
    # negative control: a thin morphism between PiT charts that kills the
    # par coordinate is NOT a Q-morphism and the residual must be nonzero
    src = extend_chart(Chart("M", [Variable("x", EVEN)]), PIT)
    tgt = extend_chart(Chart("N", [Variable("y", EVEN)]), PIT)
    c = combined_chart(src, tgt, KIND_EVEN)
    S = mul(SuperSeries.of_var(c, "x", 3), SuperSeries.of_var(c, "q_y", 3))
    bad = mk_thick(src, tgt, KIND_EVEN, S, 3)
    residual = q_morphism_residual(
        bad,
        hamiltonian_of_field(de_rham_field(src, order=3), "even"),
        hamiltonian_of_field(de_rham_field(tgt, order=3), "even"), 3)
    control_fails = not residual.is_zero()
    report_line(6, "antitangent_q", ok and control_fails)


def test_criterion_7_derivative_homomorphism():
    gen = Generator(106)
    ok = True
    done = 0
    while done < 100:
        kind = KIND_EVEN if done % 2 == 0 else KIND_ODD
        want = EVEN if kind == KIND_EVEN else ODD
        phi = random_morphism(gen, kind, 3, max_momentum_degree=2,
                              shapes=SHAPES_22)
        f = gen.series(phi.target, 3, parity=want, n_terms=2, max_degree=2)
        pg = gen.rng.choice([EVEN, ODD])
        g = gen.series(phi.target, 3, parity=pg, n_terms=2, max_degree=2)
        h = gen.series(phi.target, 3, parity=pg, n_terms=2, max_degree=2)
        if g.is_zero() or h.is_zero():
            continue
        rep = derivative_homomorphism_check(phi, f, g, h, 3)
        ok = ok and rep.passed
        done += 1
    report_line(7, "derivative_homomorphism", ok)


def test_criterion_8_closedness_and_intertwining():
    gen = Generator(107)
    ok = True
    # closedness: pullbacks of exact (hence closed) forms stay closed
    for i in range(30):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        phi = random_morphism(gen, kind, 2, max_momentum_degree=2,
                              shapes=SHAPES_22)
        lifted_tgt = extend_chart(phi.target, PIT)
        f = gen.series(phi.target, 2,
                       parity=EVEN if kind == KIND_EVEN else ODD,
                       n_terms=2, max_degree=2)
        omega = SuperSeries.zero(lifted_tgt, 2)
        from mfc.superalg import partial
        for v in phi.target:
            omega = omega + mul(
                SuperSeries.of_var(lifted_tgt, "par_" + v.name, 2),
                embed(partial(f, v.name), lifted_tgt, 2))
        if omega.is_zero():
            continue
        rep = closedness_check(phi, omega, 2)
        ok = ok and rep.passed
    # intertwining: d commutes with the antitangent pullback, on classical
    # and on thick morphisms; each group needs a draw whose pulled-back
    # form has a nonzero differential, or the check would be vacuous
    def intertwines(phi, omega):
        rho = pullback(antitangent_lift(phi), omega, 3)
        return (intertwining_check(phi, omega, 3).passed,
                not de_rham(rho, PIT).is_zero())

    classical = []
    for _ in range(20):
        sa = gen.rng.choice(SHAPES_22)
        sb = gen.rng.choice(SHAPES_22)
        src = gen.chart(*sa, name="A")
        tgt = gen.chart(*sb, name="B", stems=("y", "eta"))
        phi = from_classical(gen.classical_map(src, tgt, 3), KIND_EVEN, 3)
        lifted_tgt = extend_chart(tgt, PIT)
        omega = gen.series(lifted_tgt, 3, parity=ODD, n_terms=2, max_degree=2)
        if omega.is_zero():
            continue
        classical.append(intertwines(phi, omega))
    thick = []
    for i in range(20):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        phi = random_morphism(gen, kind, 3, max_momentum_degree=2,
                              shapes=SHAPES_22)
        lifted_tgt = extend_chart(phi.target, PIT)
        omega = gen.series(lifted_tgt, 3,
                           parity=ODD if kind == KIND_EVEN else EVEN,
                           n_terms=2, max_degree=2)
        if omega.is_zero():
            continue
        thick.append(intertwines(phi, omega))
    for group in (classical, thick):
        ok = ok and all(p for p, _ in group) and any(n for _, n in group)
    report_line(8, "closedness_and_intertwining", ok)


def test_criterion_9_solver_oracle_equivalence():
    gen = Generator(108)
    ok = True
    for i in range(200):
        kind = KIND_EVEN if i % 2 == 0 else KIND_ODD
        want = EVEN if kind == KIND_EVEN else ODD
        phi = random_morphism(gen, kind, 3, max_momentum_degree=2,
                              shapes=SHAPES_22)
        g = gen.series(phi.target, 3, parity=want, n_terms=3, max_degree=2)
        ok = ok and serialize(pullback(phi, g, 3)) == \
            serialize(oracle_pullback_naive(phi, g, 3))
    report_line(9, "solver_oracle_equivalence", ok)


def test_criterion_10_worked_example():
    from pathlib import Path
    phi = worked_example(2)
    g = SuperSeries.of_var(phi.target, "y", 2) ** 2
    golden_path = Path(__file__).parent / "golden" / "worked_example.txt"
    golden = golden_path.read_text().strip()
    solver = serialize(pullback(phi, g, 2))
    oracle = serialize(oracle_pullback_naive(phi, g, 2))
    report_line(10, "worked_example", solver == golden and oracle == golden)
