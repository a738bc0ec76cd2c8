"""Run the benchmark on two revisions in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --label kernel --seed 29 \\
        --what "what the change does" --claim "eps-depth heavy_p50_ms falls" \\
        --out BENCH_kernel.json

PARENT and CHANGE are git revisions of the repository the tool is run in.
Each is exported with ``git archive`` into a temporary directory, so nothing
is written inside the working tree but the ``--out`` file.  For every
workload, each of the ten pairs runs ``perfbench/run.py`` once in each
export, the parent first in even pairs and the change first in odd ones, one
run at a time.  The workloads, the run length and each metric's better
direction are read from CHANGE's ``BENCHMARK.json``.

The file holds ``label``, ``what``, ``command``, ``hardware``,
``paired_runs``, ``claim``, ``quartiles``, ``summary`` (per workload: the
failed counts, whether every run checked out correct, and per metric the
medians, the quartiles, ``change_worse_by``, ``change_wins`` and
``every_change_run_beats_every_parent_run``) and every run in ``runs``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
PAIRS = 10
QUARTILES = ("statistics.quantiles(values, n=4), exclusive method; change_worse_by is the "
             "median's change in the direction of worse, as a fraction of the parent median")


def export(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``tree``: its last line of output, parsed."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{os.cpu_count()} CPU {model}, {platform.system()}, "
            f"{platform.python_implementation()} {platform.python_version()}; "
            "one benchmark run at a time")


def summarize(runs: list, better: dict) -> dict:
    """Per workload: failed counts, correctness and, for each metric named in
    ``better`` (metric -> "lower" or "higher"), the comparison of the sides.
    ``runs`` holds one record per run, with ``workload``, ``pair``, ``side``,
    ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: [r for r in mine if r["side"] == s] for s in SIDES}
        out = {"failed": {s: f"{sum(r['failed'] for r in side[s])}/"
                             f"{sum(r['attempted'] for r in side[s])}" for s in SIDES},
               "correct": all(r["correct"] for r in mine)}
        for metric, direction in better.items():
            sign = 1 if direction == "lower" else -1  # worse is larger after the sign
            value = {s: {r["pair"]: r["metrics"][metric]["value"] for r in side[s]}
                     for s in SIDES}
            pairs = sorted(value["parent"].keys() & value["change"].keys())
            parent, change = ([value[s][p] for p in pairs] for s in SIDES)
            medians = [statistics.median(parent), statistics.median(change)]
            out[metric] = {
                "parent_median": round(medians[0], 4),
                "parent_quartiles": _quartiles(parent),
                "change_median": round(medians[1], 4),
                "change_quartiles": _quartiles(change),
                "change_worse_by": round(sign * (medians[1] - medians[0]) / medians[0], 4),
                "change_wins": f"{sum(sign * (c - p) < 0 for p, c in zip(parent, change))}"
                               f"/{len(pairs)}",
                "every_change_run_beats_every_parent_run":
                    max(sign * c for c in change) < min(sign * p for p in parent),
            }
        summary[workload] = out
    return summary


def _quartiles(values: list) -> list:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--label", required=True)
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--claim", required=True, help="the metric the change claims to move")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        for s, rev in zip(SIDES, (args.parent, args.change)):
            export(rev, trees[s])
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        for workload in (w["name"] for w in bench["workloads"]):
            for pair in range(PAIRS):
                for s in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    r = run_once(trees[s], workload, args.seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "side": s, **r})
                    print(f"{workload} pair {pair} {s}: " + ", ".join(
                        f"{k} {v['value']:.4g}" for k, v in r["metrics"].items()),
                        file=sys.stderr, flush=True)

    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {
        "label": args.label,
        "what": args.what,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0",
        "hardware": hardware(),
        "paired_runs": (f"alternating pairs (even pairs run the parent first, odd pairs the "
                        f"change first), parent {args.parent}, change {args.change}, seed "
                        f"{args.seed}, {seconds:g} s each, --trace 0; {PAIRS} pairs on "
                        f"each workload"),
        "claim": args.claim,
        "quartiles": QUARTILES,
        "summary": summarize(runs, better),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
