"""pytest plugin: list the executable lines of ``src/mfc`` that a test run never runs.

    PYTHONPATH=src:tools python -m pytest -q -p unrun_lines --unrun-lines=/tmp/unrun.txt

Each unrun line is printed at the end of the run, and written to the file, as
``file:line: text``, the file relative to the directory pytest runs in.  The
tracer is set before pytest loads any ``conftest.py``, and the package and
every module in it are imported only then, so the lines that run at import
(``def``, ``class``, decorators, module constants) are seen like any other;
the plugin refuses to start if ``mfc`` was imported before it.  The list
must equal the entries of ``tools/unrun_lines_allowed.txt``, each line there
that is no ``#`` comment:

    grep -v '^#' tools/unrun_lines_allowed.txt | diff - /tmp/unrun.txt

An executable line is one that starts an instruction in some code object
compiled from the file, the nested ones included, except a function's own
first line, which is counted as run when the function is called.  So a
lambda or comprehension counts as run wherever its first line holds other
code that ran: a branch that must stay reached needs a line of its own, as
``superalg.embed``'s narrow-chart fallback has.  Lines run in a subprocess
or in another thread are not seen.  The line tables differ between Python
versions, so compare lists made on one version.  Tracing slows a run about
fourfold.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import pkgutil
import sys
import types

import pytest

PACKAGE = "mfc"


def executable_lines(path: str) -> set:
    """The lines of ``path`` that start an instruction, less each function's first line."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines, todo = set(), [module]
    while todo:
        code = todo.pop()
        starts = {line for _, _, line in code.co_lines() if line}  # None, or 0 for RESUME
        if code is not module:  # a call event, not a line event, runs its first line
            starts.discard(code.co_firstlineno)
        lines |= starts
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


class LineTracer:
    """Records each (file, line) run in the files under ``root``."""

    def __init__(self, root: str):
        self.root, self.seen = os.path.join(os.path.abspath(root), ""), set()

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        self.seen.add((code.co_filename, code.co_firstlineno))
        return self._local

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def start(self):
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)

    def unrun(self) -> list:
        """``file:line: text`` for each executable line under ``root`` not seen run."""
        out = []
        for folder, _, files in sorted(os.walk(self.root)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read().splitlines()
                out += [f"{os.path.relpath(path)}:{n}: {text[n - 1].strip()}"
                        for n in sorted(executable_lines(path)) if (path, n) not in self.seen]
        return out


TRACER = pytest.StashKey[LineTracer]()
LINES = pytest.StashKey[list]()


def pytest_addoption(parser):
    parser.addoption("--unrun-lines", metavar="PATH", default=None,
                     help=f"trace {PACKAGE} and write its unrun executable lines to PATH")


def pytest_load_initial_conftests(early_config, parser, args):
    if early_config.known_args_namespace.unrun_lines is None:
        return
    if PACKAGE in sys.modules:
        raise pytest.UsageError(f"{PACKAGE} was imported before its lines could be traced")
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None:
        raise pytest.UsageError(f"no package {PACKAGE!r} to trace")
    tracer = LineTracer(spec.submodule_search_locations[0])
    tracer.start()
    for info in pkgutil.walk_packages(importlib.import_module(PACKAGE).__path__, f"{PACKAGE}."):
        importlib.import_module(info.name)
    early_config.stash[TRACER] = tracer


def pytest_sessionfinish(session):
    tracer = session.config.stash.get(TRACER, None)
    if tracer is None:
        return
    tracer.stop()
    lines = tracer.unrun()
    with open(session.config.getoption("--unrun-lines"), "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    session.config.stash[LINES] = lines


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash.get(LINES, None)
    if lines is not None:
        terminalreporter.write_sep("-", f"{len(lines)} unrun executable lines")
        for line in lines:
            terminalreporter.write_line(line)
