"""Benchmark for mfc: one caller, one thread, a closed loop of checked jobs.

    python3 perfbench/run.py --workload eps-depth --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: mfc is imported from ``./src`` and from
nowhere else.  Each run

1. imports mfc once untimed, so that bytecode compilation on a fresh
   checkout is not timed, then sets up ``SETUP_REPEATS`` times (drop mfc
   from ``sys.modules``, import it, build the first pass's inputs
   through mfc's API) and reports the median as ``setup_s``;
2. runs whole passes of the workload's fixed job list, each pass on
   fresh inputs drawn from the seed, until ``--seconds`` have passed.
   Only the call into mfc is timed; building the next inputs and
   checking every output happen between the timed calls;
3. runs a short reference loop that touches nothing of mfc (Fraction
   sums and dict updates) ``REFERENCE_LOOPS`` times right before and
   after every timed call, and every ``SAMPLE_PERIOD_S`` during it from
   an interval timer.  On a shared 2-core VM the speed of the
   whole interpreter drifts by up to 2x within seconds, and the
   reference drifts with it, so each call's time T is rescaled to
   ``T * REFERENCE_NOMINAL_S * mean(1 / reference)``: figures read as
   if the machine ran at the speed it had when the constant was fixed.
   The raw figures go to stderr;
4. prints one JSON object as its last line.

With ``--trace 1`` the run instead makes the workload's fixed number of
traced passes and prints the per-layer metrics; spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
import types
from collections import defaultdict
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import eps_depth  # noqa: E402
import super_calculus  # noqa: E402
import workspace_cli  # noqa: E402
from algebra import PRIME, EpsSeriesOracle, mod, quadratic_pullback  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

WORKLOADS = {w.name: w for w in (eps_depth.WORKLOAD, super_calculus.WORKLOAD,
                                 workspace_cli.WORKLOAD)}
MFC_MODULES = ("superalg", "superforms", "morphisms", "functors", "qcalc", "textio", "cli")
SETUP_REPEATS = 9
REFERENCE_LOOPS = 4
SAMPLE_PERIOD_S = 0.02
HASH_SEED = "0"
# Typical time of one reference loop on the machine the README's
# figures come from (2 cores, Python 3.11); only sets the unit.
REFERENCE_NOMINAL_S = 0.00025

END_TO_END = (("jobs_per_s", "1/s"), ("heavy_p50_ms", "ms"), ("light_p50_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def reference_loop() -> float:
    """Time a fixed pure-Python loop of Fraction sums and dict updates."""
    start = time.perf_counter()
    acc: dict = {}
    total = Fraction(0)
    for i in range(1, 40):
        f = Fraction(i, i + 7)
        total += f
        acc[i % 13] = acc.get(i % 13, 0) + f
    return time.perf_counter() - start


def load_mfc(src: str):
    """Import mfc afresh from ``src``; its modules as one namespace."""
    for name in [m for m in sys.modules if m == "mfc" or m.startswith("mfc.")]:
        del sys.modules[name]
    api = types.SimpleNamespace()
    for m in MFC_MODULES:
        setattr(api, m, importlib.import_module("mfc." + m))
    where = os.path.dirname(os.path.abspath(api.superalg.__file__))
    if where != os.path.join(src, "mfc"):
        raise ImportError(f"mfc was imported from {where}, not from {src}")
    return api


class Sampler:
    """Runs the reference loop every ``SAMPLE_PERIOD_S`` inside a timed call.

    The interval timer's handler runs on the one thread between
    bytecodes; the time it spends is taken off the call's time.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.refs: list = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.refs.append(reference_loop())
        self.spent += time.perf_counter() - start

    def timed(self, fn):
        """(result, raw seconds, steadied seconds) of one call.

        The call does work W in time T at a speed proportional to 1/r,
        r the reference loop's time, so W ~ T * mean(1/r) over samples
        evenly spread in time: before, during and after the call.
        """
        before = [reference_loop() for _ in range(REFERENCE_LOOPS)]
        self.refs, self.spent = [], 0.0
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed -= self.spent
        refs = before + self.refs + [reference_loop() for _ in range(REFERENCE_LOOPS)]
        speed = statistics.fmean(1 / r for r in refs)
        return out, elapsed, elapsed * REFERENCE_NOMINAL_S * speed


def pass_rng(workload: str, seed: int, pass_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_no}")


def self_test() -> bool:
    """Both oracles reproduce the golden eps x^2/(1 - 2 eps) to eps^12.

    The golden is S = xq + q^2/2, g = y^2; a perturbed golden must fail.
    """
    one = [[Fraction(1)]]
    got = quadratic_pullback(one, one, [[Fraction(2)]], 12, ["x"])
    want = {(k, "x", "x"): Fraction(2) ** (k - 1) for k in range(1, 13)}
    bad = dict(want)
    bad[(12, "x", "x")] += 1
    x = 12345
    fixed_point = EpsSeriesOracle({(1, 1): Fraction(1), (0, 2): Fraction(1, 2)},
                                  {(2,): Fraction(1)}, 1, 12, [x]).solve()
    at_x = [0] + [mod(want[(k, "x", "x")]) * x * x % PRIME for k in range(1, 13)]
    return got == want and got != bad and fixed_point == at_x


def setup(workload, src: str, seed: int, sampler: Sampler):
    """Import mfc and build the first pass; repeated, median reported."""
    raw, steadied = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        state: dict = {}

        def once():
            api = load_mfc(src)
            return api, workload.build(api, pass_rng(workload.name, seed, 0), 0, state)

        (api, jobs), elapsed, scaled = sampler.timed(once)
        raw.append(elapsed)
        steadied.append(scaled)
    return api, jobs, state, raw, steadied


def recording(tracer, label: str):
    """Record mfc calls under ``label`` while the block runs (if tracing)."""
    return tracer.recording(label) if tracer is not None else contextlib.nullcontext()


class Run:
    def __init__(self, sampler: Sampler, tracer):
        self.sampler = sampler
        self.tracer = tracer
        self.latency = defaultdict(list)
        self.steadied = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def job(self, pass_no: int, job):
        if job.prepare is not None:
            job.prepare()

        def call():
            try:
                return job.run(), None
            except Exception:  # a job that raises is a failed operation
                return None, traceback.format_exc()

        with recording(self.tracer, f"p{pass_no}:{job.cls}"):
            (out, error), elapsed, scaled = self.sampler.timed(call)
        ok = error is None and job.check(out)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not job.known_fault:
                self.correct = False
                self.notes.append(f"p{pass_no} {job.cls} wrong output {error or ''}")
        elif pass_no == 0 and job.control is not None and job.control(out):
            self.correct = False
            self.notes.append(f"negative control of {job.cls} accepted a perturbed output")
        self.latency[job.cls].append(elapsed)
        self.steadied[job.cls].append(scaled)


def measure(workload, api, jobs, state, seed: int, seconds: float, tracer, sampler):
    """Whole passes until ``seconds`` have passed, or the traced passes."""
    run = Run(sampler, tracer)
    start = time.perf_counter()
    pass_no = 0
    while True:
        if pass_no:
            with recording(tracer, f"p{pass_no}:inputs"):
                jobs = workload.build(api, pass_rng(workload.name, seed, pass_no), pass_no, state)
        for job in jobs:
            run.job(pass_no, job)
        if pass_no == 0 and workload.controls is not None:
            for name, rejected in workload.controls(api, state):
                if not rejected:
                    run.correct = False
                    run.notes.append(f"negative control {name} accepted a perturbed S")
        pass_no += 1
        if tracer is not None:
            if pass_no >= workload.trace_passes:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return run, pass_no


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mfc", "__init__.py")):
        print(f"error: no mfc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]
    load_mfc(src)  # untimed: writes bytecode on a fresh checkout
    correct = self_test()
    # the tracer would count the sampler's Fractions as mfc's
    sampler = Sampler(enabled=not args.trace)
    api, jobs, state, setup_raw, setup_steadied = setup(workload, src, args.seed, sampler)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(api)
        state = {}
        with tracer.recording("p0:inputs"):
            jobs = workload.build(api, pass_rng(workload.name, args.seed, 0), 0, state)
    run, passes = measure(workload, api, jobs, state, args.seed, args.seconds, tracer, sampler)
    if tracer is not None:
        tracer.uninstall()
    correct = correct and run.correct
    for note in run.notes:
        print(note, file=sys.stderr)

    def figures(latency, setup_times):
        return {
            "jobs_per_s": run.attempted / sum(sum(v) for v in latency.values()),
            "heavy_p50_ms": statistics.median(latency[workload.heavy]) * 1e3,
            "light_p50_ms": statistics.median(latency[workload.light]) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    steadied = figures(run.steadied, setup_steadied)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "passes": passes,
                      "raw": figures(run.latency, setup_raw),
                      "setup_raw_s": setup_raw, "setup_steadied_s": setup_steadied,
                      "steadied_ms": {k: [round(x * 1e3, 3) for x in v]
                                      for k, v in run.steadied.items()},
                      "pass_job_s": sum(sum(v) for v in run.latency.values()) / passes,
                      "pass_job_steadied_s": sum(sum(v) for v in run.steadied.values()) / passes}),
          file=sys.stderr)

    if tracer is not None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write(os.path.join(HERE, "out", f"trace-{workload.name}-{args.seed}.tsv"))
        values = tracer.metrics([name for name, _ in PER_LAYER])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": steadied[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, and the layout it
        # gives moves import and set-up time by up to 40% between
        # otherwise identical processes: run under one fixed layout.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
