"""Seeded token-level fuzzing of the workspace front end through ``cli.main``.

Each mutant of the README workspace deletes, inserts, replaces or swaps
tokens, drawn from the file itself and from a pool of edge tokens, and
runs one command in process.  Whatever the input, ``main`` must return 0,
1 or 2 within a time bound, a usage error must say ``error:``, and a fault
in the file must carry its ``line:col``.  Most such mutants stop in the
parser, so a second mutator edits only inside expression bodies, where
many mutants still parse and reach the evaluator and the commands.
"""

import pathlib
import random
import re
import signal

import pytest

from mfc.cli import main
from mfc.textio import ParseError, parse_workspace, tokenize

README = pathlib.Path(__file__).parents[1] / "perfbench" / "workspaces" / "readme.mfc"
WORKSPACE = README.read_text() + ("function om on N { y^2*par_y }\n"
                                  "function v on N { y*dot_y }\n")
EDGE_TOKENS = ["0", "1/0", "-1", "9999999999", "^", "{", "}", "ys_y", "d_y", "é"]
NUMBERS = ["0", "1", "2", "3", "1/2", "2/5", "7/3"]
OPERATORS = ["+", "-", "*", "^", "(", ")"]
COMMANDS = [
    ["check"],
    ["pullback", "--morphism", "Phi", "--function", "gsq"],
    ["pullback", "--morphism", "Phi", "--function", "om"],
    ["compose", "--outer", "Psi", "--inner", "Phi"],
    ["lift", "--morphism", "Phi", "--tangent"],
    ["lift", "--morphism", "Psi", "--antitangent"],
]
SEED, COUNT = 20261018, 300
BODY_SEED, BODY_COUNT = 20261019, 200
SECONDS = 5  # bound on one input; every input takes milliseconds

ZERO_DENOMINATORS = [
    "chart M { x : even }\nchart N { y : even }\n"
    "morphism Phi : M -> N kind=even { S = x*q_y + 1/0*q_y^2 }\n",
    "chart M { x : even }\nfunction f on M { 2/0 }\n",
]


def _lines(text):
    """The workspace as lines of token texts; comments are dropped."""
    lines = {}
    for t in tokenize(text)[:-1]:
        lines.setdefault(t.line, []).append(t.text)
    return list(lines.values())


def _mutant(rng, lines):
    lines = [list(line) for line in lines]
    pools = ([t for line in lines for t in line], EDGE_TOKENS)
    for _ in range(rng.choice((1, 1, 1, 2))):
        line = rng.choice([ln for ln in lines if ln])
        i = rng.randrange(len(line))
        op = rng.choice(("delete", "insert", "replace", "swap"))
        if op == "delete":
            del line[i]
        elif op == "insert":
            line.insert(i, rng.choice(rng.choice(pools)))
        elif op == "replace":
            line[i] = rng.choice(rng.choice(pools))
        else:
            other = rng.choice([ln for ln in lines if ln])
            j = rng.randrange(len(other))
            line[i], other[j] = other[j], line[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def _bodies(lines):
    """(line, first, end) of each expression body: the tokens after a
    function's ``{`` or a morphism's ``{ S =``, up to the closing ``}``."""
    return [(k, line.index("{") + (3 if line[0] == "morphism" else 1), len(line) - 1)
            for k, line in enumerate(lines) if line[0] in ("morphism", "function")]


def _body_mutant(rng, lines):
    """One or two edits inside one expression body.  An operand is replaced
    by a number, an identifier of the body (all are on its chart) or an edge
    token, an operator by an operator; an insertion adds an operator and an
    operand after a token; a deletion drops a token, a swap exchanges two."""
    lines = [list(line) for line in lines]
    for _ in range(rng.choice((1, 1, 1, 2))):
        k, first, end = rng.choice(_bodies(lines))
        line = lines[k]
        operands = NUMBERS + [t for t in line[first:end] if t[0].isalpha()]
        i = rng.randrange(first, end)
        op = rng.choice(("replace", "replace", "insert", "insert", "delete", "swap"))
        if op == "replace":
            pool = (OPERATORS if line[i] in OPERATORS
                    else rng.choice((operands, operands, operands, EDGE_TOKENS)))
            line[i] = rng.choice(pool)
        elif op == "insert":
            line[i + 1:i + 1] = [rng.choice(OPERATORS), rng.choice(operands)]
        elif op == "delete":
            del line[i]
        else:
            j = rng.randrange(first, end)
            line[i], line[j] = line[j], line[i]
    return "\n".join(" ".join(line) for line in lines) + "\n"


def seeded_mutants(mutate, seed, count):
    """``count`` (mutant text, command) pairs of the workspace, drawn from ``seed``."""
    lines = _lines(WORKSPACE)
    rng = random.Random(seed)
    for _ in range(count):
        yield mutate(rng, lines), rng.choice(COMMANDS)


def _parses(text):
    try:
        parse_workspace(text)
    except ParseError:
        return False
    return True


def _run(path, text, command, capsys):
    """Run ``command`` on ``text``; assert the exit contract, return the code."""
    path.write_text(text, encoding="utf-8")
    try:
        parse_workspace(text)
        file_fault = False
    except ParseError as exc:
        assert exc.line > 0, (text, str(exc))
        file_fault = True

    def expire(signum, frame):
        raise TimeoutError(f"input ran past {SECONDS} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(SECONDS)
    try:
        code = main([command[0], str(path), *command[1:]])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (text, command, code)
    if code == 2:
        assert out == "" and err.startswith("error: "), (text, command, err)
        if file_fault:
            assert re.match(r"error: \d+:\d+: ", err), (text, command, err)
    else:
        assert not file_fault, (text, command, code)
    return code


@pytest.mark.parametrize("text", ZERO_DENOMINATORS)
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, text):
    assert _run(tmp_path / "zero.mfc", text, ["check"], capsys) == 2


def test_seeded_mutants_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "mutant.mfc"
    for command in COMMANDS:
        expected = 2 if "om" in command else 0  # even Phi pulls back even functions
        assert _run(path, WORKSPACE, command, capsys) == expected
    codes = [_run(path, text, command, capsys)
             for text, command in seeded_mutants(_mutant, SEED, COUNT)]
    assert {0, 2} <= set(codes)


def test_body_mutants_exit_cleanly(tmp_path, capsys):
    path = tmp_path / "mutant.mfc"
    mutants = list(seeded_mutants(_body_mutant, BODY_SEED, BODY_COUNT))
    codes = [_run(path, text, command, capsys) for text, command in mutants]
    assert {0, 2} <= set(codes)
    parsed = sum(_parses(text) for text, _ in mutants)
    assert parsed >= BODY_COUNT // 5, parsed  # the evaluator sees at least 20% of them
