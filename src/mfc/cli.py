"""Command-line interface: check, pullback, compose, lift, verify."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .morphisms import compose, pullback, relation_check
from .report import Report
from .textio import ParseError, Workspace, order_value, parse_workspace, serialize

USAGE_ERROR = 2
CHECK_FAILED = 1
MAX_TRIALS = 1000  # bound of `mfc verify --trials`


def _load_workspace(path: str) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


def _need(ws: Workspace, table: str, name: str):
    items = getattr(ws, table)
    if name not in items:
        raise KeyError(f"no {table[:-1]} named {name!r} in workspace")
    return items[name]


def _order_flag(text: str) -> int:
    """--order: a usage error unless ``text`` is a valid order."""
    try:
        return order_value(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _trials_flag(text: str) -> int:
    """--trials: a usage error unless ``text`` is an integer from 1 to MAX_TRIALS."""
    if not text.isdecimal() or not 1 <= int(text) <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(
            f"trials must be at least 1 and at most {MAX_TRIALS}, found {text!r}")
    return int(text)


def _cmd_check(args) -> int:
    ws = _load_workspace(args.workspace)
    report = Report("check")
    report.add("workspace_parses", True)
    for name, phi in ws.morphisms.items():
        sub = relation_check(phi)
        for c in sub.checks:
            report.append(c.rename(f"{name}:{c.name}"))
    print(report.render())
    return 0 if report.passed else CHECK_FAILED


def _cmd_pullback(args) -> int:
    ws = _load_workspace(args.workspace)
    phi = _need(ws, "morphisms", args.morphism)
    g = _need(ws, "functions", args.function)
    order = args.order if args.order is not None else ws.default_order
    print(serialize(pullback(phi, g, order)))
    return 0


def _cmd_compose(args) -> int:
    ws = _load_workspace(args.workspace)
    outer = _need(ws, "morphisms", args.outer)
    inner = _need(ws, "morphisms", args.inner)
    order = args.order if args.order is not None else ws.default_order
    print(serialize(compose(outer, inner, order).S))
    return 0


def _cmd_lift(args) -> int:
    from .functors import antitangent_lift, tangent_lift
    ws = _load_workspace(args.workspace)
    phi = _need(ws, "morphisms", args.morphism)
    lifted = tangent_lift(phi) if args.tangent else antitangent_lift(phi)
    print(serialize(lifted.S))
    return 0


def _cmd_verify(args) -> int:
    from . import testkit
    order = args.order if args.order is not None else (
        4 if args.suite == "identifications" else 3)
    runners = {
        "identifications": lambda: testkit.suite_identifications(order=order),
        "functoriality": lambda: testkit.suite_functoriality(
            seed=args.seed, trials=args.trials, order=order),
        "qmorphism": lambda: testkit.suite_qmorphism(
            seed=args.seed, trials=args.trials, order=order),
        "pullback-props": lambda: testkit.suite_pullback_props(
            seed=args.seed, trials=args.trials, order=order),
    }
    report = runners[args.suite]()
    print(report.render())
    return 0 if report.passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfc", description="Symbolic checks for microformal morphisms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a workspace file")
    p.add_argument("workspace")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pullback", help="nonlinear pullback of a function")
    p.add_argument("workspace")
    p.add_argument("--morphism", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--order", type=_order_flag, default=None)
    p.set_defaults(func=_cmd_pullback)

    p = sub.add_parser("compose", help="compose two thick morphisms")
    p.add_argument("workspace")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--order", type=_order_flag, default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("lift", help="tangent or antitangent lift")
    p.add_argument("workspace")
    p.add_argument("--morphism", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--tangent", action="store_true")
    group.add_argument("--antitangent", action="store_true")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", required=True,
                   choices=["identifications", "functoriality", "qmorphism",
                            "pullback-props"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_trials_flag, default=10)
    p.add_argument("--order", type=_order_flag, default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        return args.func(args)
    except (ParseError, KeyError, FileNotFoundError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
