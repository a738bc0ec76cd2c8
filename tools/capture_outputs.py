"""pytest plugin: record the serialized output of every pullback_series,
compose and _lift call that a test run makes.

A refactor of the solver or the lifts should leave these outputs
byte-identical.  Record them on the parent commit and on the change,
each with the same tests, then compare the two files:

    PYTHONHASHSEED=0 PYTHONPATH=src:tools python -m pytest -q \\
        -p capture_outputs --capture-outputs=/tmp/change.jsonl
    cmp /tmp/parent.jsonl /tmp/change.jsonl

Each line of the file is one call, in call order: a JSON list of the
function name and its output (``serialize`` of the series, plus the kind
and the conjugacy table for a lifted morphism).  ``PYTHONHASHSEED=0``
fixes the order of any set iteration, so equal code gives equal files.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys

# (module, function) pairs to wrap, and how to record each output
TARGETS = (
    ("mfc.morphisms", "pullback_series", lambda out: [serialize(out)]),
    ("mfc.morphisms", "compose", lambda out: [serialize(out.S)]),
    ("mfc.functors", "_lift",
     lambda out: [out.kind, serialize(out.S),
                  [[c.coord, c.momentum, c.sign] for c in out.conjugates]]),
)


def serialize(series) -> str:
    from mfc.textio import serialize as text
    return text(series)


def pytest_addoption(parser):
    parser.addoption("--capture-outputs", metavar="PATH", default=None,
                     help="write one JSON line per wrapped call to PATH")


def _wrap(fh, name, fn, record):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        fh.write(json.dumps([name] + record(out)) + "\n")
        return out
    return wrapper


def pytest_configure(config):
    path = config.getoption("--capture-outputs")
    if path is None:
        return
    fh = open(path, "w", encoding="utf-8")
    config.add_cleanup(fh.close)
    import mfc
    for info in pkgutil.iter_modules(mfc.__path__):  # every module that may bind a target
        importlib.import_module(f"mfc.{info.name}")
    for module, name, record in TARGETS:
        original = getattr(importlib.import_module(module), name)
        wrapper = _wrap(fh, name, original, record)
        # patch every mfc module that bound the name, as ``from .m import f`` does
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("mfc") and getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

