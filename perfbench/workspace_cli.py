"""workspace-cli: ``mfc.cli.main(argv)`` in-process on workspace files.

Every command re-reads and re-parses its workspace, so textio, mk_thick
validation, argparse and serialize carry most of the time while the
solver does little.  Each pass runs the README workspace (kept verbatim
in ``workspaces/readme.mfc``, the one input that repeats) and a designed
(2|2) workspace whose coefficients are drawn fresh from the seed into
``workspaces/designed.mfc.in``.  Outputs are read back with the
benchmark's own parser and compared with closed forms:

- pullback of g = 1/2 yGy through S = xAq + 1/2 qBq + xi C q_eta is
  1/2 eps x^T A (sum_k (eps GB)^k) G A^T x (the odd block drops out);
- the composite of two such S has A = A1 A2, B = A2^T B1 A2 + B2 and
  odd block C = C1 C2;
- a tangent (antitangent) lift is the dot- (par-) derivation of S;
- ``check`` prints only PASS lines.

Two malformed-input operations fail today because of faults in mfc and
are counted as failed: ``order=abc`` exits 2 without a line:col position
(the unguarded ``int(val)`` in ``textio.parse_workspace``), and
``pullback --order -1`` exits 0 printing ``0`` instead of a usage error.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import string
from fractions import Fraction
from typing import Dict, List

from algebra import SPoly, mat_mul, parse_printed, quadratic_compose, quadratic_pullback
from jobs import Job, Workload, coeff, matrix

HERE = os.path.dirname(os.path.abspath(__file__))
WORKSPACES = os.path.join(HERE, "workspaces")
README_WS = os.path.join(WORKSPACES, "readme.mfc")
BAD_ORDER_WS = os.path.join(WORKSPACES, "bad_order.mfc")
DESIGNED_PATH = os.path.join(HERE, "out", "designed.mfc")

M = (("x0", 0), ("x1", 0), ("xi0", 1), ("xi1", 1))


def cli(api, argv: List[str]):
    """Run one command; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- expected outputs -----------------------------------------------------------


def _quadratic_S(A, B, C, src, tgt_even, tgt_odd) -> Dict[tuple, Fraction]:
    """x A q + 1/2 q B q + xi C q_eta as {factors: coeff}."""
    n = len(A)
    terms = {(src[i], tgt_even[j]): A[i][j] for i in range(n) for j in range(n)}
    for i in range(n):
        terms[(tgt_even[i], tgt_even[i])] = B[i][i] / 2
        for j in range(i + 1, n):
            terms[(tgt_even[i], tgt_even[j])] = B[i][j]
    if C is not None:
        for i in range(n):
            for j in range(n):
                terms[(f"xi{i}", tgt_odd[j])] = C[i][j]
    return terms


def _pullback_poly(A, B, G, order, xs, names, parities) -> SPoly:
    terms = {("eps",) * k + (a, b): c
             for (k, a, b), c in quadratic_pullback(A, B, G, order, xs).items()}
    return SPoly.from_factors(names, parities, terms)


def _lift_poly(S: Dict[tuple, Fraction], names, parities, prefix: str, odd: bool) -> SPoly:
    poly = SPoly.from_factors(names, parities, S)
    image = {v: (prefix + v, 1) for v in names if prefix + v in names}
    return poly.derive(image, odd)


def _lifted_names(src, momenta, prefix: str, flip: bool):
    """Variable list of a lifted chart: src, prefixed src, momenta, prefixed momenta."""
    f = (lambda p: 1 - p) if flip else (lambda p: p)
    return ([n for n, _ in src] + [prefix + n for n, _ in src]
            + [n for n, _ in momenta] + [prefix + n for n, _ in momenta],
            [p for _, p in src] + [f(p) for _, p in src]
            + [p for _, p in momenta] + [f(p) for _, p in momenta])


def printed_job(api, cls: str, argv: List[str], expected) -> Job:
    """A command whose printed series must equal ``expected()``.

    ``expected`` is called at check time, so oracle work stays out of
    the timed calls and out of set-up.
    """
    def check(result) -> bool:
        code, out, _ = result
        want = expected()
        return code == 0 and parse_printed(out, want.names, want.parities).terms == want.terms

    return Job(cls, lambda: cli(api, argv), check,
               control=lambda r: check((r[0], r[1].rstrip() + " + 1\n", r[2])))


def check_job(api, cls: str, path: str, count: int) -> Job:
    """``mfc check`` must print ``count`` lines, all PASS."""
    def check(result) -> bool:
        code, out, _ = result
        lines = out.strip().splitlines()
        return (code == 0 and len(lines) == count
                and all(ln.startswith("CHECK ") and ln.endswith(" PASS") for ln in lines))

    return Job(cls, lambda: cli(api, ["check", path]), check,
               control=lambda r: check((r[0], r[1].replace(" PASS", " FAIL", 1), r[2])))


def _usage_error_at_position(result) -> bool:
    code, _, err = result
    return code == 2 and re.search(r"\b\d+:\d+:", err) is not None


def _usage_error(result) -> bool:
    code, out, _ = result
    return code == 2 and not out.strip()


# -- the README workspace ---------------------------------------------------


def _readme_jobs(api) -> List[Job]:
    one = [[Fraction(1)]]
    S_phi = {("x", "q_y"): Fraction(1), ("q_y", "q_y"): Fraction(1, 2)}
    pullback = ["pullback", README_WS, "--morphism", "Phi", "--function", "gsq"]
    return [
        check_job(api, "readme-check", README_WS, 3),
        printed_job(api, "readme-pullback", pullback + ["--order", "2"],
                    lambda: _pullback_poly(one, one, [[Fraction(2)]], 2, ["x"],
                                           ["eps", "x"], [0, 0])),
        printed_job(api, "readme-compose",
                    ["compose", README_WS, "--outer", "Psi", "--inner", "Phi"],
                    lambda: SPoly.from_factors(
                        ["x", "q_z"], [0, 0],
                        _quadratic_S(*quadratic_compose(one, one, one, one), None,
                                     ["x"], ["q_z"], []))),
        printed_job(api, "readme-lift", ["lift", README_WS, "--morphism", "Phi", "--tangent"],
                    lambda: _lift_poly(S_phi, *_lifted_names((("x", 0),), (("q_y", 0),),
                                                             "dot_", False), "dot_", False)),
        Job("bad-order", lambda: cli(api, ["check", BAD_ORDER_WS]),
            _usage_error_at_position, known_fault=True),
        Job("neg-order", lambda: cli(api, pullback + ["--order", "-1"]),
            _usage_error, known_fault=True),
    ]


# -- the designed workspace --------------------------------------------------


def _designed(rng: random.Random):
    """The workspace text and a function giving the expected outputs."""
    A1, B1, C1 = matrix(rng, 2), matrix(rng, 2, True), matrix(rng, 2)
    A2, B2, C2 = matrix(rng, 2), matrix(rng, 2, True), matrix(rng, 2)
    D = {k: coeff(rng) for k in ("00", "11", "01")}
    E = {k: coeff(rng) for k in ("00", "11", "01")}
    a = [coeff(rng), coeff(rng)]
    h0 = coeff(rng)
    fields = {"g_0": a[0], "g_1": a[1], "h_0": h0}
    for name, m in (("A1", A1), ("B1", B1), ("C1", C1), ("A2", A2), ("B2", B2), ("C2", C2)):
        for i in range(2):
            for j in range(2):
                fields[f"{name}_{i}{j}"] = m[i][j]
    fields.update({f"D_{k}": v for k, v in D.items()})
    fields.update({f"E_{k}": v for k, v in E.items()})
    with open(os.path.join(WORKSPACES, "designed.mfc.in"), encoding="utf-8") as fh:
        text = string.Template(fh.read()).substitute({k: str(v) for k, v in fields.items()})

    cache: Dict[str, SPoly] = {}

    def expected() -> Dict[str, SPoly]:
        if not cache:
            cache.update(_expected(A1, B1, C1, A2, B2, C2, D, E, a))
        return cache

    return text, expected


def _expected(A1, B1, C1, A2, B2, C2, D, E, a):
    xs = ["x0", "x1"]
    q_y, q_eta = ["q_y0", "q_y1"], ["q_eta0", "q_eta1"]
    q_z, q_zeta = ["q_z0", "q_z1"], ["q_zeta0", "q_zeta1"]
    G = [[a[i] * a[j] for j in range(2)] for i in range(2)]
    A, B = quadratic_compose(A1, B1, A2, B2)
    S_phi = _quadratic_S(A1, B1, C1, xs, q_y, q_eta)
    S_chi = {("x0", "ys_y0"): D["00"], ("x1", "ys_y1"): D["11"],
             ("x0", "x1", "ys_y1"): D["01"], ("xi0", "ys_eta0"): E["00"],
             ("xi1", "ys_eta1"): E["11"], ("ys_y0", "ys_eta1"): E["01"]}
    return {
        "pullback": _pullback_poly(A1, B1, G, 3, xs, ["eps"] + [n for n, _ in M],
                                   [0] + [p for _, p in M]),
        "compose": SPoly.from_factors(
            [n for n, _ in M] + q_z + q_zeta, [0, 0, 1, 1, 0, 0, 1, 1],
            _quadratic_S(A, B, mat_mul(C1, C2), xs, q_z, q_zeta)),
        "lift-t": _lift_poly(S_phi, *_lifted_names(
            M, (("q_y0", 0), ("q_y1", 0), ("q_eta0", 1), ("q_eta1", 1)), "dot_", False),
            "dot_", False),
        "lift-a": _lift_poly(S_chi, *_lifted_names(
            M, (("ys_y0", 1), ("ys_y1", 1), ("ys_eta0", 0), ("ys_eta1", 0)), "par_", True),
            "par_", True),
    }


def build(api, rng: random.Random, pass_no: int, state: Dict) -> List[Job]:
    text, expected = _designed(rng)
    os.makedirs(os.path.dirname(DESIGNED_PATH), exist_ok=True)
    with open(DESIGNED_PATH, "w", encoding="utf-8") as fh:
        fh.write(text)
    api.textio.parse_workspace(text)  # inputs are validated before they are used
    ws = DESIGNED_PATH
    return _readme_jobs(api) + [
        check_job(api, "ws-check", ws, 4),
        printed_job(api, "ws-pullback", ["pullback", ws, "--morphism", "Phi", "--function", "g",
                                         "--order", "3"], lambda: expected()["pullback"]),
        printed_job(api, "ws-compose", ["compose", ws, "--outer", "Psi", "--inner", "Phi"],
                    lambda: expected()["compose"]),
        printed_job(api, "ws-lift-t", ["lift", ws, "--morphism", "Phi", "--tangent"],
                    lambda: expected()["lift-t"]),
        printed_job(api, "ws-lift-a", ["lift", ws, "--morphism", "Chi", "--antitangent"],
                    lambda: expected()["lift-a"]),
    ]


WORKLOAD = Workload("workspace-cli", "ws-pullback", "readme-lift", trace_passes=3, build=build)
