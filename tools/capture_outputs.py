"""pytest plugin: record the serialized output of every pullback_series,
pullback_derivative, compose, ``base_map``, ``relation_check``, _lift,
``superforms.liouville``, ``poisson_bracket``, ``prolong_coordinate_change``
and ``textio.parse_series`` call that a test run makes, the chart every ``superforms.extend_chart`` call
builds, every kernel call (``superalg.mul``, ``deriv``, ``partial`` and
``substitute``) made from outside ``superalg``, and what every
``textio.parse_workspace`` call builds.

A refactor of the kernel, the solver, the forms or the lifts should leave these
outputs byte-identical.  Record them on the parent commit and on the
change, each with its own tests, then compare the two files:

    PYTHONHASHSEED=0 PYTHONPATH=src:tools python -m pytest -q \\
        -p capture_outputs --capture-outputs=/tmp/change.jsonl
    python tools/compare_captures.py /tmp/parent.jsonl /tmp/change.jsonl

``compare_captures.py`` compares the records of the tests that both files
hold.  It requires the non-kernel records to be equal and in order, and lets
the change drop kernel records but not add or alter one, so a refactor that
saves kernel calls still passes where ``cmp`` would not, and a test that only
one tree has is left out.

Each line of the file is one output, in call order: a JSON list of the
pytest node id of the running test (``null`` before the first one starts),
the function name and its output (``serialize`` of the series, plus the kind
and the conjugacy table for a lifted morphism; one line per component of a
base map and per check of a relation report, with its name; each morphism's ``S`` and
each function of a parsed workspace, in declaration order; one line per
image of a prolonged coordinate change; the name and ``repr`` of the
variables of an extended chart).  A ``[node id, "test"]`` line marks the
start of each test, so a test all of whose records a change drops still
counts as shared.  The eliminator (``morphisms._eliminate``) makes no
``substitute`` records: it substitutes through
``superalg._substitute_packed``, packed from its first sweep to its value,
so a commit before that change writes ``substitute`` lines for its sweeps
that a later one drops.  An output with a number too long for ``str`` is
recorded as ``[node id, name, "<unprintable>"]`` and passed on unchanged, so
the caller still meets the error it would meet without the plugin.  Kernel
calls that ``superalg`` makes itself (``a * b`` calling ``mul``) are not
recorded: they are internals a kernel change may add or drop.  Targets a
commit does not define are skipped.  ``PYTHONHASHSEED=0`` fixes the order of
any set iteration, so equal code gives equal files.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys

KERNEL = "mfc.superalg"


def _series(name):
    return lambda out: [[name, serialize(out)]]


def _chart(chart):
    return [["extend_chart", chart.name, repr(chart.variables)]]


# (module, function, output -> recorded lines) for each wrapped function
TARGETS = (
    ("mfc.morphisms", "pullback_series", _series("pullback_series")),
    ("mfc.morphisms", "pullback_derivative", _series("pullback_derivative")),
    ("mfc.morphisms", "compose", lambda out: [["compose", serialize(out.S)]]),
    ("mfc.morphisms", "base_map",
     lambda out: [["base_map", coord, serialize(s)] for coord, s in out.items()]),
    ("mfc.morphisms", "relation_check",
     lambda out: [["relation_check", c.name, serialize(c.residual)] for c in out.checks]),
    ("mfc.functors", "_lift",
     lambda out: [["_lift", out.kind, serialize(out.S),
                   [[c.coord, c.momentum, c.sign] for c in out.conjugates]]]),
    ("mfc.superforms", "liouville", _series("liouville")),
    ("mfc.superforms", "poisson_bracket", _series("poisson_bracket")),
    ("mfc.superforms", "prolong_coordinate_change",
     lambda out: [["prolong_coordinate_change", name, serialize(image)]
                  for name, image in out[1].items()]),
    ("mfc.superforms", "extend_chart", _chart),
    ("mfc.textio", "parse_series", _series("parse_series")),
    ("mfc.textio", "parse_workspace",
     lambda ws: [["parse_workspace", "morphism", name, serialize(phi.S)]
                 for name, phi in ws.morphisms.items()]
     + [["parse_workspace", "function", name, serialize(f)]
        for name, f in ws.functions.items()]),
    (KERNEL, "mul", _series("mul")),
    (KERNEL, "deriv", _series("deriv")),
    (KERNEL, "partial", _series("partial")),
    (KERNEL, "substitute", _series("substitute")),
)


def serialize(series) -> str:
    from mfc.textio import serialize as text
    return text(series)


class _Running:
    """The node id of the test that runs now.  Each test's start is written as a
    ``[node id, "test"]`` line, so a test that records nothing still shows it ran."""

    def __init__(self, fh):
        self.fh, self.nodeid = fh, None

    def pytest_runtest_logstart(self, nodeid, location):
        self.nodeid = nodeid
        self.fh.write(json.dumps([nodeid, "test"]) + "\n")


def pytest_addoption(parser):
    parser.addoption("--capture-outputs", metavar="PATH", default=None,
                     help="write one JSON line per wrapped output to PATH")


def _wrap(running, name, fn, record):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if sys._getframe(1).f_globals.get("__name__") != KERNEL:
            try:
                lines = record(out)
            except ValueError:  # a number too long to print: the caller reports it
                lines = [[name, "<unprintable>"]]
            for line in lines:
                running.fh.write(json.dumps([running.nodeid, *line]) + "\n")
        return out
    return wrapper


def pytest_configure(config):
    path = config.getoption("--capture-outputs")
    if path is None:
        return
    fh = open(path, "w", encoding="utf-8")
    config.add_cleanup(fh.close)
    running = _Running(fh)
    config.pluginmanager.register(running)
    import mfc
    for info in pkgutil.iter_modules(mfc.__path__):  # every module that may bind a target
        importlib.import_module(f"mfc.{info.name}")
    for module, name, record in TARGETS:
        original = getattr(importlib.import_module(module), name, None)
        if original is None:
            continue
        wrapper = _wrap(running, name, original, record)
        # patch every mfc module that bound the name, as ``from .m import f`` does
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("mfc") and getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)
