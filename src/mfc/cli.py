"""Command-line interface: check, pullback, compose, lift, verify.

Each command is a function ``(workspace, args)`` that returns a Report or
a series.  Only ``main`` reads the workspace, turns errors into exit code 2
and renders the result: a Report prints its checks and exits 0 or 1, a
series prints ``serialize`` and exits 0.  The argument parser is built once
per process, on the first ``main`` call, and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .functors import antitangent_lift, tangent_lift
from .morphisms import compose, pullback, relation_check
from .report import CheckResult, Report
from .textio import MAX_ORDER, bounded, parse_workspace, serialize

USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_TRIALS = 1000  # bound of `mfc verify --trials`

# suite name: (default order, runner); a runner takes testkit, imported only
# when a suite runs, and the parsed arguments
SUITES = {
    "identifications": (4, lambda kit, a: kit.suite_identifications(order=a.order)),
    "functoriality": (3, lambda kit, a: kit.suite_functoriality(a.seed, a.trials, a.order)),
    "qmorphism": (3, lambda kit, a: kit.suite_qmorphism(a.seed, a.trials, a.order)),
    "pullback-props": (3, lambda kit, a: kit.suite_pullback_props(a.seed, a.trials, a.order)),
}


def _bounded_flag(what: str, most: int):
    """An argparse type: an integer from 1 to ``most``, else a usage error."""
    def parse(text: str) -> int:
        try:
            return bounded(text, what, most)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _check(ws, args) -> Report:
    report = Report([CheckResult("workspace_parses")])
    for name, phi in ws.morphisms.items():
        report.include(name, relation_check(phi))
    return report


def _pullback(ws, args):
    return pullback(ws.morphisms[args.morphism], ws.functions[args.function], args.order)


def _compose(ws, args):
    return compose(ws.morphisms[args.outer], ws.morphisms[args.inner], args.order).S


def _lift(ws, args):
    phi = ws.morphisms[args.morphism]
    return (tangent_lift(phi) if args.tangent else antitangent_lift(phi)).S


def _verify(ws, args) -> Report:
    from . import testkit
    return SUITES[args.suite][1](testkit, args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfc", description="Symbolic checks for microformal morphisms.")
    parser.set_defaults(workspace=None, order=None)
    sub = parser.add_subparsers(dest="command", required=True)
    order = _bounded_flag("order", MAX_ORDER)

    p = sub.add_parser("check", help="validate a workspace file")
    p.add_argument("workspace")
    p.set_defaults(run=_check)

    p = sub.add_parser("pullback", help="nonlinear pullback of a function")
    p.add_argument("workspace")
    p.add_argument("--morphism", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--order", type=order)
    p.set_defaults(run=_pullback)

    p = sub.add_parser("compose", help="compose two thick morphisms")
    p.add_argument("workspace")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--order", type=order)
    p.set_defaults(run=_compose)

    p = sub.add_parser("lift", help="tangent or antitangent lift")
    p.add_argument("workspace")
    p.add_argument("--morphism", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tangent", action="store_true")
    group.add_argument("--antitangent", action="store_true")
    p.set_defaults(run=_lift)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True, choices=SUITES, metavar="SUITE",
                   help=", ".join(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_bounded_flag("trials", MAX_TRIALS), default=10)
    p.add_argument("--order", type=order)
    p.set_defaults(run=_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        ws = None
        if args.workspace is not None:
            # an undecodable byte reaches the tokenizer, which places it
            with open(args.workspace, encoding="utf-8", errors="surrogateescape") as fh:
                ws = parse_workspace(fh.read())
        if args.order is None:  # the workspace's `set order`, else the suite's
            args.order = SUITES[args.suite][0] if ws is None else ws.default_order
        result = args.run(ws, args)
        # rendered here: str() refuses an integer past 4300 digits with a ValueError
        # whose advice, sys.set_int_max_str_digits(), is no option of this command
        try:
            text = result.render() if isinstance(result, Report) else serialize(result)
        except ValueError:
            raise ValueError(f"output has a coefficient of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    except TimeoutError:  # an OSError, but raised by a caller's alarm, not by a file
        raise
    except (KeyError, OSError, ValueError) as exc:  # a ParseError is a ValueError
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    print(text)
    return CHECK_FAILED if isinstance(result, Report) and not result.passed else 0


if __name__ == "__main__":
    sys.exit(main())
