"""Per-layer spans and counters, recorded from outside mfc.

``Tracer.install`` wraps the public functions of each layer and patches
the wrapper into every mfc module that bound the name (``from .superalg
import mul`` binds ``mul`` in each importing module).  Each call records
a span (name, start, end, parent span, job) in memory and counts work at
the same boundary.  A layer's self time is its span time minus the time
covered by its child spans.  Spans are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable, Dict, List

# layer name -> (module, functions).  Both lifts report as functors.lift.
LAYERS = (
    ("superalg.mul", "superalg", ("mul",)),
    ("superalg.substitute", "superalg", ("substitute",)),
    ("superalg.deriv", "superalg", ("deriv",)),
    ("superalg.embed", "superalg", ("embed",)),
    ("superforms.apply_operator", "superforms", ("apply_operator",)),
    ("superforms.extend_chart", "superforms", ("extend_chart",)),
    ("morphisms.pullback", "morphisms", ("pullback",)),
    ("morphisms.compose", "morphisms", ("compose",)),
    ("morphisms.mk_thick", "morphisms", ("mk_thick",)),
    ("morphisms.relation_check", "morphisms", ("relation_check",)),
    ("functors.lift", "functors", ("tangent_lift", "antitangent_lift")),
    ("qcalc.q_morphism_residual", "qcalc", ("q_morphism_residual",)),
    ("textio.parse_workspace", "textio", ("parse_workspace",)),
    ("textio.serialize", "textio", ("serialize",)),
    ("cli.main", "cli", ("main",)),
)

PER_LAYER = (
    [(f"superalg.mul.{k}", u) for k, u in (("calls", "count"), ("term_pairs", "count"),
                                            ("out_terms", "count"), ("yield", "ratio"),
                                            ("self_ms", "ms"))]
    + [(f"superalg.substitute.{k}", u) for k, u in (("calls", "count"), ("in_terms", "count"),
                                                    ("self_ms", "ms"))]
    + [(f"superalg.{layer}.{k}", u) for layer in ("deriv", "embed")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [("superalg.series_created", "count"), ("superalg.fractions_created", "count")]
    + [(f"superforms.{layer}.{k}", u) for layer in ("apply_operator", "extend_chart")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"morphisms.pullback.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"),
                                                   ("out_terms", "count"),
                                                   ("substitute_calls", "count"),
                                                   ("term_pairs", "count"))]
    + [(f"morphisms.compose.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"),
                                                  ("substitute_calls", "count"),
                                                  ("term_pairs", "count"))]
    + [(f"morphisms.{layer}.{k}", u) for layer in ("mk_thick", "relation_check")
       for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"functors.lift.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"),
                                              ("out_terms", "count"))]
    + [(f"qcalc.q_morphism_residual.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"))]
    + [(f"textio.parse_workspace.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"),
                                                       ("in_bytes", "bytes"))]
    + [(f"textio.serialize.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"),
                                                 ("out_bytes", "bytes"))]
    + [(f"cli.main.{k}", u) for k, u in (("calls", "count"), ("self_ms", "ms"))]
)


def _count_mul(t, args, kwargs, out):
    t.counts["superalg.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    t.counts["superalg.mul.out_terms"] += len(out.terms)


def _count_substitute(t, args, kwargs, out):
    t.counts["superalg.substitute.in_terms"] += len(args[0].terms)


def _count_pullback(t, args, kwargs, out):
    t.counts["morphisms.pullback.out_terms"] += len(out.terms)


def _count_lift(t, args, kwargs, out):
    t.counts["functors.lift.out_terms"] += len(out.S.terms)


def _count_parse(t, args, kwargs, out):
    t.counts["textio.parse_workspace.in_bytes"] += len(args[0].encode())


def _count_serialize(t, args, kwargs, out):
    t.counts["textio.serialize.out_bytes"] += len(out.encode())


COUNTERS: Dict[str, Callable] = {
    "superalg.mul": _count_mul,
    "superalg.substitute": _count_substitute,
    "morphisms.pullback": _count_pullback,
    "functors.lift": _count_lift,
    "textio.parse_workspace": _count_parse,
    "textio.serialize": _count_serialize,
}

# layers that also report the substitute calls and term pairs beneath them
BENEATH = ("morphisms.pullback", "morphisms.compose")


class Tracer:
    def __init__(self):
        self.active = False
        self.job = 0
        self.job_labels: List[str] = ["-"]
        self.stack: List[list] = []  # [span index, start ns, child ns]
        self.next_span = 0
        self.cols = {k: array("q") for k in ("span", "layer", "start", "end", "parent", "job")}
        self.layer_index = {name: i for i, (name, _, _) in enumerate(LAYERS)}
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._restore: List[tuple] = []

    @contextlib.contextmanager
    def recording(self, label: str):
        """Record the calls made in the block as spans of job ``label``."""
        self.job_labels.append(label)
        self.job = len(self.job_labels) - 1
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- patching ---------------------------------------------------------

    def install(self, api):
        modules = [m for name, m in sys.modules.items()
                   if name == "mfc" or name.startswith("mfc.")]
        for layer, modname, funcs in LAYERS:
            for fname in funcs:
                original = getattr(getattr(api, modname), fname)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, value))
                            setattr(m, attr, wrapper)
        series = api.superalg.SuperSeries
        self._patch_constructor(series, "__init__", "superalg.series_created",
                                series.__init__, method=True)
        self._patch_constructor(Fraction, "__new__", "superalg.fractions_created",
                                Fraction.__new__, method=False)

    def _patch_constructor(self, cls, attr, counter, original, method):
        tracer = self

        def counting(*args, **kwargs):
            if tracer.stack:
                tracer.counts[counter] += 1
            return original(*args, **kwargs)

        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, counting if method else staticmethod(counting))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        counter = COUNTERS.get(layer)
        beneath = layer in BENEATH
        layer_id = self.layer_index[layer]
        calls_key = layer + ".calls"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            counts = tracer.counts
            if beneath:
                subs = counts["superalg.substitute.calls"]
                pairs = counts["superalg.mul.term_pairs"]
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer.next_span, 0, 0]
            tracer.next_span += 1
            stack.append(frame)
            frame[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                tracer.self_ns[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                cols = tracer.cols
                cols["span"].append(frame[0])
                cols["layer"].append(layer_id)
                cols["start"].append(frame[1])
                cols["end"].append(end)
                cols["parent"].append(parent)
                cols["job"].append(tracer.job)
                counts[calls_key] += 1
            if counter is not None:
                counter(tracer, args, kwargs, out)
            if beneath:
                counts[layer + ".substitute_calls"] += counts["superalg.substitute.calls"] - subs
                counts[layer + ".term_pairs"] += counts["superalg.mul.term_pairs"] - pairs
            return out

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, names) -> Dict[str, float]:
        """Values for the per-layer metric names: counts, self times, yields."""
        out = {}
        for name in names:
            if name.endswith(".self_ms"):
                out[name] = self.self_ns[name[:-len(".self_ms")]] / 1e6
            elif name == "superalg.mul.yield":
                pairs = self.counts["superalg.mul.term_pairs"]
                out[name] = self.counts["superalg.mul.out_terms"] / pairs if pairs else 0.0
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path: str):
        """Spans as tab-separated lines, in the order they were opened."""
        cols = self.cols
        order = sorted(range(len(cols["span"])), key=cols["span"].__getitem__)
        names = [name for name, _, _ in LAYERS]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_ns\tend_ns\tparent\tjob\n")
            for i in order:
                fh.write(f"{cols['span'][i]}\t{names[cols['layer'][i]]}\t{cols['start'][i]}\t"
                         f"{cols['end'][i]}\t{cols['parent'][i]}\t"
                         f"{self.job_labels[cols['job'][i]]}\n")
