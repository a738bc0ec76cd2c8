"""Serializer, expression parser, workspace format and the CLI."""

import contextlib
import io
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mfc import cli, textio
from mfc.cli import MAX_TRIALS, SUITES, main
from mfc.morphisms import KIND_EVEN, pullback
from mfc.report import Report
from mfc.superalg import (
    EVEN,
    ODD,
    Chart,
    SuperSeries,
    Variable,
    mul,
)
from mfc.testkit import Generator
from mfc.textio import (
    MAX_NESTING,
    MAX_ORDER,
    MAX_POWER_TERMS,
    ParseError,
    Token,
    parse_series,
    _TOKEN_RE,
    parse_workspace,
    serialize,
    tokenize,
)
from test_fuzz import BODY_COUNT, BODY_SEED, COUNT, SEED, _body_mutant, _mutant, seeded_mutants

ORDER = 3
GOLDEN = pathlib.Path(__file__).parent / "golden"
WORKSPACES = pathlib.Path(__file__).parents[1] / "perfbench" / "workspaces"


WORKSPACE = """
# running example
set order = 3

chart M { x : even }
chart N { y : even }
chart P { z : even }

morphism Phi : M -> N kind=even order=3 { S = x*q_y + 1/2*q_y^2 }
morphism Psi : N -> P kind=even order=3 { S = y*q_z + 1/2*q_z^2 }

function gsq on N { y^2 }
"""


class TestSerializer:
    def test_zero(self):
        c = Chart("M", [Variable("x", EVEN)])
        assert serialize(SuperSeries.zero(c, ORDER)) == "0"

    def test_golden_generating_function(self):
        ws = parse_workspace(WORKSPACE)
        assert serialize(ws.morphisms["Phi"].S) == "x*q_y + 1/2*q_y^2"

    def test_golden_pullback(self):
        ws = parse_workspace(WORKSPACE)
        out = pullback(ws.morphisms["Phi"], ws.functions["gsq"], 2)
        assert serialize(out) == "eps*x^2 + 2*eps^2*x^2"

    def test_golden_lift(self):
        from mfc.functors import tangent_lift
        c = Chart("M", [Variable("x", EVEN)])
        n = Chart("N", [Variable("y", EVEN)])
        from mfc.morphisms import combined_chart, mk_thick
        cc = combined_chart(c, n, KIND_EVEN)
        S = mul(SuperSeries.of_var(cc, "x", ORDER) ** 2,
                SuperSeries.of_var(cc, "q_y", ORDER))
        phi = mk_thick(c, n, KIND_EVEN, S, ORDER)
        assert serialize(tangent_lift(phi).S) == "x^2*dot_q_y + 2*x*dot_x*q_y"

    def test_koszul_reordering_canonical(self):
        c = Chart("M", [Variable("th", ODD), Variable("et", ODD)])
        a = parse_series("th*et", c, ORDER)
        b = parse_series("-et*th", c, ORDER)
        assert serialize(a) == serialize(b) == "th*et"

    def test_determinism_random(self):
        gen = Generator(60)
        chart = gen.chart(2, 2)
        for _ in range(30):
            s = gen.series(chart, ORDER, n_terms=5, max_degree=4)
            text = serialize(s)
            assert serialize(parse_series(text, chart, ORDER)) == text

    def test_round_trip(self):
        gen = Generator(61)
        chart = gen.chart(2, 2)
        for _ in range(30):
            s = gen.series(chart, ORDER, n_terms=5, max_degree=4)
            assert parse_series(serialize(s), chart, ORDER) == s


class TestParser:
    def chart(self):
        return Chart("M", [Variable("x", EVEN), Variable("th", ODD)])

    def test_rationals(self):
        c = self.chart()
        s = parse_series("2/3*x + 5", c, ORDER)
        assert s == SuperSeries.of_var(c, "x", ORDER).scale(Fraction(2, 3)) \
            + SuperSeries.const(c, 5, ORDER)
        x = SuperSeries.of_var(c, "x", ORDER)
        assert parse_series("1 - x", c, ORDER) == 1 - x
        assert parse_series("2 + x", c, ORDER) == 2 + x

    @pytest.mark.parametrize("text, expected", [
        ("1/2 + 1/3 - 5", "-25/6"),
        ("x - 1", "-1 + x"),
        ("x*th + 2 - x*th - 2", "0"),
        ("1 - x", "1 - x"),
        ("2 + x - th + 3*x - 1/2", "3/2 + 4*x - th"),
        ("1/2 - (x + 1/2) + th*x + x", "x*th"),
    ])
    def test_sum_adds_no_series(self, monkeypatch, text, expected):
        """A sum folds its terms into one dict and builds its series once."""
        def refuse(*args):
            raise AssertionError("the parser added two series")

        for name in ("__add__", "__sub__", "__radd__", "__rsub__"):
            monkeypatch.setattr(SuperSeries, name, refuse)
        assert serialize(parse_series(text, self.chart(), ORDER)) == expected

    def test_number_sum_stays_a_number(self, monkeypatch):
        calls = []
        monkeypatch.setattr(textio, "mul", lambda a, b: calls.append(1) or mul(a, b))
        c = self.chart()
        x = SuperSeries.of_var(c, "x", ORDER)
        assert parse_series("(1/2 + 1/3)*x", c, ORDER) == x.scale(Fraction(5, 6))
        assert calls == []
        assert parse_series("(1/2 + x)*x", c, ORDER) == x ** 2 + x.scale(Fraction(1, 2))
        assert calls == [1]

    def test_parentheses_and_power(self):
        c = self.chart()
        x = SuperSeries.of_var(c, "x", ORDER)
        assert parse_series("(x + 1)^2", c, ORDER) == \
            x ** 2 + x.scale(2) + SuperSeries.const(c, 1, ORDER)

    def test_unary_minus(self):
        c = self.chart()
        assert parse_series("-x", c, ORDER) == -SuperSeries.of_var(c, "x", ORDER)

    def test_odd_square_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse_series("x + th^2", self.chart(), ORDER)
        assert "squared" in str(exc.value)
        assert exc.value.line == 1
        assert exc.value.col == 8  # points at the exponent literal

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse_series("x + nope", self.chart(), ORDER)
        assert "undeclared" in str(exc.value)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_series("x )", self.chart(), ORDER)

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse_series("x + $", self.chart(), ORDER)
        assert exc.value.col == 5

    def test_power_exponent_limit(self):
        c = self.chart()
        with pytest.raises(ParseError, match="at most") as exc:
            parse_series("x^100000000", c, ORDER)
        assert (exc.value.line, exc.value.col) == (1, 3)


class TestMonomialProducts:
    """Numbers and products of identifiers parse to the value that the
    source-order fold through ``SuperSeries.of_var``, ``scale`` and ``mul`` gives."""

    CHART = Chart("C", [Variable("q_y", EVEN, role="momentum", weight=1),
                        Variable("s", EVEN, role="formal-parameter", max_power=2),
                        Variable("th", ODD), Variable("xi", ODD),
                        Variable("q_eta", ODD, role="momentum", weight=1)])
    LITERALS = ["0", "1", "2", "1/2", "3/4", "6/4"]

    def draw(self, rng, depth=0):
        """A factor: ("num" | "var", text), ("neg", factor), ("par", word) or
        ("pow", atom, n), an atom being a number, a variable or a parenthesized word; a word
        is a list of factors, joined by ``*``."""
        r = rng.random()
        if r < 0.15:
            return "neg", self.draw(rng, depth + 1)
        if r < 0.3 and depth < 3:
            node = ("par", [self.draw(rng, depth + 1) for _ in range(rng.randint(1, 3))])
        elif r < 0.5:
            node = ("num", rng.choice(self.LITERALS))
        else:
            node = ("var", rng.choice([v.name for v in self.CHART]))
        return ("pow", node, rng.choice((0, 1, 2, 3))) if rng.random() < 0.2 else node

    def text(self, node):
        kind = node[0]
        if kind in ("num", "var"):
            return node[1]
        if kind == "neg":
            return "-" + self.text(node[1])
        if kind == "par":
            return "(" + "*".join(self.text(f) for f in node[1]) + ")"
        return f"{self.text(node[1])}^{node[2]}"

    def times(self, a, b):
        """a * b in the kernel: ``mul`` of two series, ``scale`` by a number."""
        if isinstance(a, SuperSeries) and isinstance(b, SuperSeries):
            return mul(a, b)
        if isinstance(b, SuperSeries):
            return b.scale(a)
        return a.scale(b) if isinstance(a, SuperSeries) else a * b

    def fold(self, node, at, order):
        """(value, offset past the factor) of the factor at offset ``at``; an odd
        square raises ParseError at its exponent, as the parser must."""
        kind = node[0]
        if kind == "num":
            return Fraction(node[1]), at + len(node[1])
        if kind == "var":
            return SuperSeries.of_var(self.CHART, node[1], order), at + len(node[1])
        if kind == "neg":
            v, at = self.fold(node[1], at + 1, order)
            return self.times(Fraction(-1), v), at
        if kind == "par":
            v, at = self.fold_word(node[1], at + 1, order)
            return v, at + 1
        base, at = self.fold(node[1], at, order)
        n = node[2]
        if n > 1 and isinstance(base, SuperSeries) and len(base.terms) == 1:
            (mono, _), = base.terms.items()
            odd = [v.name for v, e in zip(self.CHART, mono) if e and v.parity == ODD]
            if odd:
                raise ParseError(f"odd variable {odd[0]!r} squared", 1, at + 2)
        v = Fraction(1)
        for _ in range(n):
            v = self.times(v, base)
        return v, at + 1 + len(str(n))

    def fold_word(self, word, at, order):
        v, at = self.fold(word[0], at, order)
        for f in word[1:]:
            w, at = self.fold(f, at + 1, order)
            v = self.times(v, w)
        return v, at

    def test_matches_source_order_fold(self):
        rng = random.Random(20261020)
        refused = nonzero = 0
        for _ in range(1500):
            word = [self.draw(rng) for _ in range(rng.randint(1, 6))]
            text, order = "*".join(self.text(f) for f in word), rng.randint(1, 3)
            try:
                v, _ = self.fold_word(word, 0, order)
            except ParseError as expected:
                with pytest.raises(ParseError) as exc:
                    parse_series(text, self.CHART, order)
                assert str(exc.value) == str(expected), text
                refused += 1
                continue
            if not isinstance(v, SuperSeries):
                v = SuperSeries.const(self.CHART, v, order)
            got = parse_series(text, self.CHART, order)
            assert got == v and got.order == order, text
            nonzero += not got.is_zero()
        assert refused > 50 and nonzero > 500  # both outcomes are drawn often

    @pytest.mark.parametrize("text, expected", [
        ("th*xi", "th*xi"),
        ("xi*th", "-th*xi"),
        ("q_eta*th*xi", "th*xi*q_eta"),
        ("xi*q_eta*th", "th*xi*q_eta"),
        ("q_eta*xi*th", "-th*xi*q_eta"),
        ("xi*xi", "0"),
        ("th*xi*th", "0"),
        ("q_y^2*q_y^2", "0"),
        ("s^2*s", "0"),
        ("0*x", "0"),
        ("x^0", "1"),
        ("-x*-q_y", "x*q_y"),
        ("-(th*-xi)^1", "th*xi"),
    ])
    def test_corner_cases(self, text, expected):
        chart = Chart("C", [Variable("x", EVEN), *self.CHART.variables])
        assert serialize(parse_series(text, chart, 3)) == expected

    @pytest.mark.parametrize("text, message", [
        ("xi^2", "1:4: odd variable 'xi' squared"),
        ("(xi*th)^2", "1:9: odd variable 'th' squared"),
        ("x + 2*(q_eta*th*xi)^3", "1:21: odd variable 'th' squared"),
    ])
    def test_odd_square_refused(self, text, message):
        chart = Chart("C", [Variable("x", EVEN), *self.CHART.variables])
        with pytest.raises(ParseError) as exc:
            parse_series(text, chart, 3)
        assert str(exc.value) == message

    def test_series_times_number(self):
        """A sum times a number on its right is scaled, as the fold's ``times`` does."""
        chart = Chart("C", [Variable("x", EVEN), Variable("y", EVEN), *self.CHART.variables])
        x, y, q_y, xi = (SuperSeries.of_var(chart, v, 3) for v in ("x", "y", "q_y", "xi"))
        words = [("(x + y)*2", self.times(x + y, Fraction(2)), "2*x + 2*y"),
                 ("(x + xi)*3/2*x", self.times(self.times(x + xi, Fraction(3, 2)), x),
                  "3/2*x^2 + 3/2*x*xi"),
                 ("-(q_y + x)*1/3", self.times(self.times(Fraction(-1), q_y + x), Fraction(1, 3)),
                  "-1/3*x - 1/3*q_y")]
        for text, want, printed in words:
            got = parse_series(text, chart, 3)
            assert got == want and got.order == 3, text
            assert serialize(got) == printed

    def test_exponent_edge(self):
        """A power of a power may reach the exponent that the longest chain of
        products reaches, x^10001, and no further; a chart of no variables has
        no exponent to bound."""
        chart = Chart("M", [Variable("x", EVEN)])
        assert serialize(parse_series("(x^1000)^10*x", chart, 3)) == "x^10001"
        with pytest.raises(ParseError) as exc:
            parse_series("(x^1000)^10*x^2", chart, 3)
        assert str(exc.value) == "1:12: power of 'x' exceeds 10001"
        assert serialize(parse_series("2*3^2", Chart("E", []), 3)) == "18"

    def test_pair_budget_edge(self):
        """Each ``*`` of one-term factors counts one pair: 10,000 are allowed."""
        chart = Chart("M", [Variable("x", EVEN)])
        assert serialize(parse_series("*".join(["x"] * 10001), chart, 3)) == "x^10001"
        text = "*".join(["x"] * 10002)
        with pytest.raises(ParseError, match="more than 10000 term pairs") as exc:
            parse_series(text, chart, 3)
        assert (exc.value.line, exc.value.col) == (1, text.rindex("*") + 1)


class TestWorkspace:
    def test_parses_golden(self):
        ws = parse_workspace(WORKSPACE)
        assert set(ws.charts) == {"M", "N", "P"}
        assert set(ws.morphisms) == {"Phi", "Psi"}
        assert ws.default_order == 3
        assert ws.morphisms["Phi"].kind == KIND_EVEN

    def test_function_auto_extension(self):
        text = WORKSPACE + "\nfunction form on N { y*par_y }\n"
        ws = parse_workspace(text)
        assert "par_y" in ws.functions["form"].chart

    def test_duplicate_chart_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_workspace("chart M { x : even }\nchart M { y : even }")

    def test_unknown_declaration(self):
        with pytest.raises(ParseError, match="unknown declaration"):
            parse_workspace("frobnicate M")

    def test_bad_parity(self):
        with pytest.raises(ParseError):
            parse_workspace("chart M { x : sideways }")

    @pytest.mark.parametrize("value", ["abc", "0", "3/2", "{", "100000"])
    def test_morphism_order_positioned(self, value):
        text = ("chart M { x : even }\nchart N { y : even }\n"
                f"morphism Phi : M -> N kind=even order={value} {{ S = x*q_y }}")
        with pytest.raises(ParseError, match="order") as exc:
            parse_workspace(text)
        assert (exc.value.line, exc.value.col) == (3, 39)

    @pytest.mark.parametrize("value", ["abc", "0", "65"])
    def test_set_order_positioned(self, value):
        with pytest.raises(ParseError, match="order") as exc:
            parse_workspace(f"chart M {{ x : even }}\nset order = {value}\n")
        assert (exc.value.line, exc.value.col) == (2, 13)

    def test_strict_normalization_enforced(self):
        from mfc.morphisms import MorphismError
        text = ("chart M { x : even }\nchart N { y : even }\n"
                "morphism Bad : M -> N kind=even order=3 { S = x*q_y + x }")
        with pytest.raises(ParseError, match="zero momenta") as exc:
            parse_workspace(text)
        assert (exc.value.line, exc.value.col) == (3, 1)
        assert isinstance(exc.value.__cause__, MorphismError)
        ws = parse_workspace(
            "set strict = 0\n" + text.replace("Bad", "Loose"))
        assert not ws.morphisms["Loose"].normalized

    def test_settings_typed(self):
        ws = parse_workspace("set order = 5\nset strict = 0\n")
        assert (ws.default_order, ws.strict) == (5, False)
        ws = parse_workspace("set strict = 1\n")
        assert (ws.default_order, ws.strict) == (3, True)

    @pytest.mark.parametrize("text, position, message", [
        ("set ordr = 5\n", (1, 5), "unknown setting 'ordr'"),
        ("set strict = yes\n", (1, 14), "strict must be 0 or 1, found 'yes'"),
        ("set order = 4\nset strict = 2\n", (2, 14), "strict must be 0 or 1, found '2'"),
    ])
    def test_setting_error_positioned(self, text, position, message):
        with pytest.raises(ParseError) as exc:
            parse_workspace(text)
        assert (exc.value.line, exc.value.col) == position
        assert exc.value.msg == message


@pytest.fixture
def ws_file(tmp_path):
    path = tmp_path / "work.mfc"
    path.write_text(WORKSPACE)
    return str(path)


class TestCli:
    def test_check_passes(self, ws_file, capsys):
        assert main(["check", ws_file]) == 0
        out = capsys.readouterr().out
        assert "CHECK workspace_parses PASS" in out
        assert "CHECK Phi:relation_identity PASS" in out

    def test_pullback_golden(self, ws_file, capsys):
        code = main(["pullback", ws_file, "--morphism", "Phi",
                     "--function", "gsq", "--order", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "eps*x^2 + 2*eps^2*x^2"

    def test_compose_golden(self, ws_file, capsys):
        code = main(["compose", ws_file, "--outer", "Psi", "--inner", "Phi"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "x*q_z + q_z^2"

    def test_lift_golden(self, ws_file, capsys):
        code = main(["lift", ws_file, "--morphism", "Phi", "--tangent"])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            "x*dot_q_y + dot_x*q_y + q_y*dot_q_y"

    def test_odd_lifts_golden(self, tmp_path, capsys):
        """``mfc check`` and both lifts of a morphism with odd coordinates,
        written out of chart order, byte for byte (the CI workspace odd.mfc)."""
        ws = tmp_path / "odd.mfc"
        ws.write_text(
            "chart M { x : even, xi : odd, th : odd }\nchart N { y : even, eta : odd }\n"
            "morphism Phi : M -> N kind=even { S = x*q_y + th*q_eta + x*q_eta*xi"
            " + q_y*th*xi*x + 1/2*q_y^2 + q_y^2*q_y^2 }\n")
        for argv in (["check"], ["lift", "--morphism", "Phi", "--tangent"],
                     ["lift", "--morphism", "Phi", "--antitangent"]):
            assert main([argv[0], str(ws), *argv[1:]]) == 0
        assert capsys.readouterr().out == (GOLDEN / "odd_lifts.txt").read_text()

    def test_verify_suite(self, capsys):
        code = main(["verify", "--suite", "functoriality", "--trials", "2"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_every_suite_runs(self, capsys, suite):
        assert main(["verify", "--suite", suite, "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert out and "FAIL" not in out

    def test_help_golden(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        pages = []
        for argv in (["--help"], *([c, "--help"] for c in
                                   ("check", "pullback", "compose", "lift", "verify"))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            pages.append(f"$ mfc {' '.join(argv)}\n{out.getvalue()}")
        assert "".join(pages) == (GOLDEN / "cli_help.txt").read_text()

    def test_missing_file_usage_error(self, capsys):
        assert main(["check", "/no/such/file.mfc"]) == 2

    def test_directory_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_timeout_propagates(self, ws_file, monkeypatch):
        # the fuzzer's alarm raises TimeoutError, an OSError, to flag a hang
        def hang(text):
            raise TimeoutError("input ran too long")
        monkeypatch.setattr(cli, "parse_workspace", hang)
        with pytest.raises(TimeoutError):
            main(["check", ws_file])

    @pytest.mark.parametrize("data, message", [
        (b"chart M { x : even }\nfunction f on M { x\xff }\n",
         "error: 2:20: byte 0xff is not UTF-8\n"),
        # a comment stops at the byte, so the byte is refused there too
        (b"chart M { x : even } # caf\xe9\n", "error: 1:27: byte 0xe9 is not UTF-8\n"),
    ], ids=["body", "comment"])
    def test_non_utf8_byte_positioned(self, tmp_path, capsys, data, message):
        bad = tmp_path / "bytes.mfc"
        bad.write_bytes(data)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)

    def test_form_prefixed_coordinate(self, tmp_path, capsys):
        # d_x is a declared coordinate here, not the form level of x: d maps
        # it to d_d_x and the lifts to its own partner
        ws = tmp_path / "prefixed.mfc"
        ws.write_text("chart M { d_x : even }\nchart N { y : even }\n"
                      "morphism Phi : M -> N kind=even { S = d_x*q_y + 1/2*q_y^2 }\n")
        assert main(["check", str(ws)]) == 0
        assert main(["lift", str(ws), "--morphism", "Phi", "--tangent"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "d_x*dot_q_y + dot_d_x*q_y + q_y*dot_q_y"

    @pytest.mark.parametrize("coordinates, flag, message", [
        ("x : even, dot_x : even", "--tangent",
         "error: 1:21: coordinate 'dot_x' names the velocity of 'x'\n"),
        ("x : even, par_x : even", "--antitangent",
         "error: 1:21: coordinate 'par_x' names the odd-velocity of 'x'\n"),
        ("dot_x : even, x : even", "--tangent",
         "error: 1:11: coordinate 'dot_x' names the velocity of 'x'\n"),
    ])
    def test_bundle_partner_coordinate_positioned(self, tmp_path, capsys, coordinates,
                                                  flag, message):
        # the lift names x's partner so and would declare it a second time
        bad = tmp_path / "partner.mfc"
        bad.write_text(f"chart M {{ {coordinates} }}\nchart N {{ y : even }}\n"
                       "morphism Phi : M -> N kind=even { S = x*q_y + 1/2*q_y^2 }\n")
        for argv in (["check", str(bad)], ["lift", str(bad), "--morphism", "Phi", flag]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("text, argv, message", [
        # the form level of x: the check's d-extension would declare d_x again
        ("chart M { x : even, d_x : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even { S = x*q_y + d_x*q_y^2 }\n", ["check"],
         "error: 1:21: coordinate 'd_x' names the odd-velocity of 'x'\n"),
        # the velocity of the target momentum q_y in the tangent lift
        ("chart M { x : even, dot_q_y : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even { S = x*q_y + 1/2*q_y^2 }\n",
         ["lift", "--morphism", "Phi", "--tangent"],
         "error: 1:21: coordinate 'dot_q_y' names the velocity of 'q_y'\n"),
        # the velocity of par_x, which a function mentioning both derives
        ("chart M { x : even, dot_par_x : even }\nfunction f on M { par_x*dot_x }\n",
         ["check"], "error: 1:21: coordinate 'dot_par_x' names the velocity of 'par_x'\n"),
        # the pullback's formal parameter, on the source chart and on the target
        ("chart M { eps : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even { S = eps*q_y + 1/2*q_y^2 }\nfunction g on N { y^2 }\n",
         ["pullback", "--morphism", "Phi", "--function", "g", "--order", "2"],
         "error: 1:11: coordinate 'eps' names the formal parameter of a pullback\n"),
        ("chart M { x : even }\nchart N { eps : even }\n"
         "morphism Phi : M -> N kind=even { S = x*q_eps + 1/2*q_eps^2 }\n"
         "function g on N { eps^2 }\n",
         ["pullback", "--morphism", "Phi", "--function", "g", "--order", "2"],
         "error: 2:11: coordinate 'eps' names the formal parameter of a pullback\n"),
    ], ids=["d", "momentum", "par", "eps-source", "eps-target"])
    def test_derived_name_coordinate_positioned(self, tmp_path, capsys, text, argv, message):
        bad = tmp_path / "derived.mfc"
        bad.write_text(text)
        assert main([argv[0], str(bad), *argv[1:]]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("body, message", [
        ("7" * 5000 + "*y", "error: 3:19: number exceeds 10000 bits\n"),
        ("1/" + "7" * 3400 + "*y", "error: 3:19: number exceeds 10000 bits\n"),
        ("9999999999^1000*y", "error: 3:30: number exceeds 10000 bits\n"),
        ("9999999999^400*y", "error: 3:30: number exceeds 10000 bits\n"),
        ("9999999999^300*9999999999^300*y", "error: 3:33: number exceeds 10000 bits\n"),
        # each term is within the bound; the series coefficient the operator
        # makes has a denominator of about 6000 digits
        (f"1/{'7' * 3000}*y + 1/{'3' * 2999}1*y", "error: 3:3024: number exceeds 10000 bits\n"),
        (f"1/{'7' * 3000}*y - 1/{'3' * 2999}1*y", "error: 3:3024: number exceeds 10000 bits\n"),
        (f"(1/{'7' * 3000}*y)*(1/{'3' * 2999}1*y)", "error: 3:3025: number exceeds 10000 bits\n"),
        # a series plus a number changes only the constant
        (f"y + 1/{'7' * 3000} + 1/{'3' * 2999}1", "error: 3:3026: number exceeds 10000 bits\n"),
    ], ids=["literal", "denominator", "power", "power400", "product",
            "series-sum", "series-difference", "series-product", "series-plus-number"])
    def test_large_number_positioned(self, tmp_path, capsys, body, message):
        bad = tmp_path / "number.mfc"
        bad.write_text(f"chart M {{ x : even }}\nchart N {{ y : even }}\n"
                       f"function f on N {{ {body} }}\n"
                       "morphism Phi : M -> N kind=even { S = x*q_y }\n")
        for argv in (["check", str(bad)],
                     ["pullback", str(bad), "--morphism", "Phi", "--function", "f"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("op", ["+", "-"])
    def test_large_number_sum_positioned(self, tmp_path, capsys, op):
        # each literal is within the bound; their sum's denominator, the
        # product of the two, is about 6000 digits
        bad = tmp_path / "sum.mfc"
        bad.write_text("chart M { x : even }\nchart N { y : even }\n"
                       f"function f on N {{ (1/{'7' * 3000} {op} 1/{'3' * 2999}1)*y }}\n"
                       "morphism Phi : M -> N kind=even { S = x*q_y }\n")
        for argv in (["check", str(bad)],
                     ["pullback", str(bad), "--morphism", "Phi", "--function", "f"]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: 3:3023: number exceeds 10000 bits\n")

    def test_unprintable_output_usage_error(self, tmp_path, capsys):
        # c has about 3000 digits, within the bound; the pullback's c^2 has
        # 6000, past what str() prints
        bad = tmp_path / "output.mfc"
        bad.write_text("chart M { x : even }\nchart N { y : even }\n"
                       "function f on N { 9999999999^300*y }\n"
                       "morphism Phi : M -> N kind=even { S = x*q_y + 1/2*q_y^2 }\n")
        assert main(["check", str(bad)]) == 0
        capsys.readouterr()
        assert main(["pullback", str(bad), "--morphism", "Phi", "--function", "f"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "4300 digits" in err
        # the interpreter's advice names a call no command line can make
        assert "set_int_max_str_digits" not in err

    def test_parser_reuse_is_stateless(self, ws_file, capsys, monkeypatch):
        # main reuses one parser: each command, run after the others in this
        # process, must print what it prints as the first of a fresh process
        sequence = [
            ["--help"], ["lift", "--help"],
            ["frobnicate"], ["check", ws_file],
            ["lift", ws_file, "--morphism", "Phi", "--tangent"],
            ["lift", ws_file, "--morphism", "Phi", "--antitangent"],
            ["pullback", ws_file, "--morphism", "Phi", "--function", "gsq", "--order", "2"],
            ["pullback", ws_file, "--morphism", "Phi", "--function", "gsq"],  # set order = 3
            ["verify", "--suite", "qmorphism", "--trials", "3"],
            ["verify", "--suite", "qmorphism"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
        fresh = [subprocess.Popen([sys.executable, "-m", "mfc.cli", *argv], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for argv in sequence]
        reused = []
        for argv in sequence:
            code = main(argv)
            reused.append((code, *capsys.readouterr()))
        for argv, proc, got in zip(sequence, fresh, reused):
            out, err = proc.communicate(timeout=60)
            assert got == (proc.returncode, out, err), argv
        assert reused[6][1] != reused[7][1]  # the order fell back to the workspace's

    def test_unknown_name_usage_error(self, ws_file, capsys):
        assert main(["pullback", ws_file, "--morphism", "Nope",
                     "--function", "gsq"]) == 2
        # the bare message, not the quoted repr that str(KeyError) gives
        assert capsys.readouterr().err == "error: no morphism named 'Nope' in workspace\n"

    def test_bad_arguments_usage_error(self, capsys):
        assert main(["lift"]) == 2
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("order", ["0", "-1", "100000"])
    def test_order_below_one_usage_error(self, ws_file, capsys, order):
        for argv in (["pullback", ws_file, "--morphism", "Phi", "--function", "gsq"],
                     ["compose", ws_file, "--outer", "Psi", "--inner", "Phi"]):
            start = time.monotonic()
            assert main(argv + ["--order", order]) == 2
            assert time.monotonic() - start < 0.5
            out, err = capsys.readouterr()
            assert out == ""
            assert "order must be at least 1" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--order", "-1", "order must be at least 1"),
        ("--order", "0", "order must be at least 1"),
        ("--order", "100000", f"at most {MAX_ORDER}"),
        ("--trials", "0", "trials must be at least 1"),
        ("--trials", "1000000", f"at most {MAX_TRIALS}"),
    ])
    def test_verify_bounds_usage_error(self, capsys, flag, value, message):
        start = time.monotonic()
        code = main(["verify", "--suite", "pullback-props", "--trials", "1",
                     flag, value])
        assert code == 2
        assert time.monotonic() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_hostile_power_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "power.mfc"
        bad.write_text("chart M { x : even, z : even }\n"
                       "function f on M { (x+z+1)^400 }\n")
        assert main(["check", str(bad)]) == 2
        assert "error: 2:27:" in capsys.readouterr().err

    def test_power_terms_usage_error(self, tmp_path, capsys):
        # 99 terms squared make 4950, past the bound, in 9900 term pairs, within
        # the budget: refused at the exponent
        names = [f"v{i}" for i in range(99)]
        bad = tmp_path / "terms.mfc"
        bad.write_text("chart M { " + ", ".join(f"{n} : even" for n in names) + " }\n"
                       "function f on M { (" + " + ".join(names) + ")^2 }\n")
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == (
            "", f"error: 2:603: power expands past {MAX_POWER_TERMS} terms\n")

    def test_compose_unnormalized_usage_error(self, tmp_path, capsys):
        loose = tmp_path / "loose.mfc"
        loose.write_text("set strict = 0\n" + WORKSPACE.replace("S = x*q_y", "S = x + x*q_y"))
        assert main(["check", str(loose)]) == 0
        capsys.readouterr()
        assert main(["compose", str(loose), "--outer", "Psi", "--inner", "Phi"]) == 2
        assert capsys.readouterr() == (
            "", "error: composition requires zero-momentum-normalized factors\n")

    @pytest.mark.parametrize("body, col", [
        ("(x+z+1)^43*(x+z+1)^43", 27),
        ("((x+z+1)^43)^2", 28),
        ("(x+z+1)^20*(x+z+1)^20", 29),
    ])
    def test_hostile_product_usage_error(self, tmp_path, capsys, body, col):
        bad = tmp_path / "product.mfc"
        bad.write_text("chart M { x : even, z : even }\n"
                       f"function f on M {{ {body} }}\n")
        start = time.monotonic()
        assert main(["check", str(bad)]) == 2
        assert time.monotonic() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: 2:{col}: expression multiplies more than" in err

    @pytest.mark.parametrize("body", [
        "(" * 3000 + "x" + ")" * 3000,
        "-" * 3000 + "x",
    ])
    def test_hostile_nesting_usage_error(self, tmp_path, capsys, body):
        bad = tmp_path / "nesting.mfc"
        bad.write_text(f"chart M {{ x : even }}\nfunction f on M {{ {body} }}\n")
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # the opening token one level past the bound, after "function f on M { "
        assert f"error: 2:{19 + MAX_NESTING}: expression nests deeper than" in err

    def test_nesting_at_bound_parses(self):
        chart = Chart("M", [Variable("x", EVEN)])
        x = SuperSeries.of_var(chart, "x", ORDER)
        nested = lambda n: "(" * n + "x" + ")" * n
        assert parse_series(nested(MAX_NESTING), chart, ORDER) == x
        assert parse_series("-" * MAX_NESTING + "x", chart, ORDER) == \
            x.scale((-1) ** MAX_NESTING)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_series("-" + nested(MAX_NESTING), chart, ORDER)

    @pytest.mark.parametrize("text, message", [
        ("chart M { x : even, x : even }\n", "error: 1:1: duplicate variable 'x'"),
        ("chart M { x : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even order=3 { S = x }\n",
         "error: 3:1: S at zero momenta must be constant"),
        ("chart M { x : even, par_x : even }\nfunction f on M { par_y }\n",
         "error: 1:21: coordinate 'par_x' names the odd-velocity of 'x'"),
        ("chart M { q_y : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even order=3 { S = q_y*q_y }\n",
         "error: 3:1: duplicate variable 'q_y'"),
    ])
    def test_declaration_error_positioned(self, tmp_path, capsys, text, message):
        bad = tmp_path / "declaration.mfc"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_bad_order_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "order.mfc"
        for setting in ("order=abc", "order=100000"):
            bad.write_text(WORKSPACE.replace("order=3", setting, 1))
            assert main(["check", str(bad)]) == 2
            assert "error: 9:39:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "set order =",
        "set x =",
        "chart M { x : even }\nchart N { y : even }\nmorphism Phi : M -> N kind=",
        "chart M { x : even }\nfunction f on M {",
        "chart M { x : even }\nfunction f on M { x ",
    ])
    def test_truncated_input_usage_error(self, tmp_path, capsys, text):
        bad = tmp_path / "truncated.mfc"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(r"error: \d+:\d+: ", err)

    @pytest.mark.parametrize("setting, message", [
        ("set ordr = 5", "error: 3:5: unknown setting 'ordr'\n"),
        ("set strict = yes", "error: 3:14: strict must be 0 or 1, found 'yes'\n"),
    ])
    def test_setting_usage_error(self, tmp_path, capsys, setting, message):
        bad = tmp_path / "setting.mfc"
        bad.write_text(WORKSPACE.replace("set order = 3", setting))
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("attributes, message", [
        ("kind=even foo=1", "error: 3:33: unknown morphism attribute 'foo'\n"),
        ("kind=sideways", "error: 3:28: morphism needs kind=even|odd\n"),
        ("order=3", "error: 3:31: morphism needs kind=even|odd\n"),
    ])
    def test_morphism_attribute_error_positioned(self, tmp_path, capsys, attributes,
                                                 message):
        bad = tmp_path / "attribute.mfc"
        bad.write_text("chart M { x : even }\nchart N { y : even }\n"
                       f"morphism Phi : M -> N {attributes} {{ S = x*q_y }}\n")
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("text, message", [
        ("chart M { x : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even { S = x*q_y + 1/0*q_y^2 }\n",
         "error: 3:47: zero denominator in '1/0'\n"),
        ("chart M { x : even }\nfunction f on M { 2/0 }\n",
         "error: 2:19: zero denominator in '2/0'\n"),
    ])
    def test_zero_denominator_positioned(self, tmp_path, capsys, text, message):
        bad = tmp_path / "zero.mfc"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("text, message", [
        ("chart M { x : even }\nmorphism Phi : M -> Q kind=even { S = x }\n",
         "error: 2:21: undeclared chart 'Q'\n"),
        ("chart M { x : even }\nmorphism Phi : Q -> M kind=even { S = x }\n",
         "error: 2:16: undeclared chart 'Q'\n"),
        ("chart M { x : even }\nfunction f on Q { 1 }\n",
         "error: 2:15: undeclared chart 'Q'\n"),
        ("chart M { x : evn }\n", "error: 1:15: parity must be 'even' or 'odd'\n"),
        ("chart M { x : even }\nchart N { y : even }\n"
         "morphism Phi : M -> N kind=even { S = x*q_y }\n"
         "morphism Phi : M -> N kind=even { S = x*q_y }\n",
         "error: 4:1: duplicate morphism 'Phi'\n"),
        ("chart M { x : even }\nchart N { y : even }\n"
         "function f on N { y }\nfunction f on N { y }\n",
         "error: 4:1: duplicate function 'f'\n"),
        ("chart M { x : even }\nchart M { y : even }\n", "error: 2:1: duplicate chart 'M'\n"),
    ])
    def test_header_error_at_its_token(self, tmp_path, capsys, text, message):
        bad = tmp_path / "header.mfc"
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("command", [[], ["--morphism", "Phi", "--function", "f"]])
    def test_nested_power_refused(self, tmp_path, capsys, command):
        """A power of a power costs a few term pairs, but a substitution would
        build every power of an image up to its exponent: refused as it parses."""
        bad = tmp_path / "nested.mfc"
        bad.write_text("chart M { x : even }\nchart N { y : even }\n"
                       "morphism Phi : M -> N kind=even { S = x*q_y + 1/2*q_y^2 }\n"
                       "function f on N { ((((((y^1000)^1000)^1000)^1000)^1000)^1000)^1000 }\n")
        assert main(["pullback" if command else "check", str(bad), *command]) == 2
        assert capsys.readouterr() == ("", "error: 4:33: power of 'y' exceeds 10001\n")

    def test_parse_error_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mfc"
        bad.write_text("chart M { x : sideways }")
        assert main(["check", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_failing_check_exit_code(self, tmp_path, capsys, monkeypatch):
        text = ("set strict = 0\n"
                "chart M { x : even, th : odd }\n"
                "chart N { y : even, eta : odd }\n")
        ok = tmp_path / "ok.mfc"
        ok.write_text(text)
        assert main(["check", str(ok)]) == 0
        capsys.readouterr()
        # no workspace check fails on a valid workspace, so a residual is
        # planted: a failing check prints it (README, "Exit codes") and exits 1
        ok.write_text(WORKSPACE)
        monkeypatch.setattr(cli, "relation_check",
                            lambda phi: Report.single("relation_identity", phi.S))
        assert main(["check", str(ok)]) == 1
        assert capsys.readouterr() == (
            "CHECK workspace_parses PASS\n"
            "CHECK Phi:relation_identity FAIL residual=x*q_y + 1/2*q_y^2\n"
            "CHECK Psi:relation_identity FAIL residual=y*q_z + 1/2*q_z^2\n", "")


# -- reference tokenizer ---------------------------------------------------
#
# The tokenizer that matched once per position before one finditer pass
# replaced it, kept as the oracle for token streams and error positions.


def ref_tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]  # U+DC80..U+DCFF: a byte that utf-8 refused, escaped
            what = (f"byte {ord(ch) - 0xDC00:#x} is not UTF-8" if "\udc80" <= ch <= "\udcff"
                    else f"unexpected character {ch!r}")
            raise ParseError(what, line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def lexed(tokenize, text):
    """The (kind, text, line, col) stream of ``text``, or its error and position."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.col


README = (WORKSPACES / "readme.mfc").read_text()
DESIGNED = re.sub(r"\$\w+", "1", (WORKSPACES / "designed.mfc.in").read_text())


class TestReferenceTokenizer:
    @pytest.mark.parametrize("text", [
        README,
        DESIGNED,
        README.replace("\n", "\r\n"),
        README.replace(" ", "\t"),
        README.rstrip("\n"),
        "",
        "chart M { x : even }\nfunction f on M { x\udcff }\n",
        "chart M { x : even } # caf\udcff\n",
        "chart M { x : even }\n$chart N { y : even }\n",
    ], ids=["readme", "designed", "crlf", "tabs", "no-final-newline", "empty",
            "byte-in-body", "byte-in-comment", "unexpected-at-line-start"])
    def test_matches_reference(self, text):
        assert lexed(tokenize, text) == lexed(ref_tokenize, text)

    def test_fuzz_mutants_match_reference(self):
        mutants = [*seeded_mutants(_mutant, SEED, COUNT),
                   *seeded_mutants(_body_mutant, BODY_SEED, BODY_COUNT)]
        errors = 0
        for text, _ in mutants:
            expected = lexed(ref_tokenize, text)
            assert lexed(tokenize, text) == expected, text
            errors += isinstance(expected, tuple)
        assert errors > 0  # some mutants carry a character the lexer refuses
