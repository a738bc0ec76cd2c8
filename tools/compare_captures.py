"""Compare two capture files written by ``capture_outputs.py``.

    python tools/compare_captures.py PARENT CHANGE

A refactor may drop kernel calls, but not change what the engine returns.
Each record carries the pytest node id of the test that made it, and only
the tests that both files hold are compared: a test that one tree adds,
renames or deletes is left out, and the number of node ids that each file
holds alone is printed.  Each test's start is a record of its own, named
``test``, so a test whose records the change drops all the same is shared.
The exit status is 0 only when the files share at least one test (an empty
capture, or one from a run that stopped at collection, shares none) and,
over the shared tests,

* the records whose name is not a kernel name (a ``mfc.superalg`` row of
  ``capture_outputs.TARGETS``: ``mul``, ``deriv``, ``partial``,
  ``substitute``) are equal, byte for byte and in the same order, in both
  files, and
* the kernel records of CHANGE are a subsequence of those of PARENT: every
  one of them occurs in PARENT, in the same order, with others left out.

Otherwise it names the first record that breaks the rule and exits 1.  It
prints the number of records of each name in both files either way.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import capture_outputs

KERNEL = tuple(name for module, name, _ in capture_outputs.TARGETS
               if module == capture_outputs.KERNEL)


def read(path: str) -> list:
    """(node id, record name, line) of each line of a capture file."""
    with open(path, encoding="utf-8") as fh:
        return [(*json.loads(line)[:2], line) for line in fh]


def split(records: list, tests: set):
    """(name counts, non-kernel lines, kernel lines) of the records made by ``tests``."""
    counts: Counter = Counter()
    outer, kernel = [], []
    for test, name, line in records:
        if test in tests:
            counts[name] += 1
            (kernel if name in KERNEL else outer).append(line)
    return counts, outer, kernel


def compare(parent: str, change: str) -> list:
    """The reasons CHANGE fails against PARENT; empty when it passes."""
    p_records, c_records = read(parent), read(change)
    p_tests, c_tests = ({test for test, _, _ in r} for r in (p_records, c_records))
    shared = p_tests & c_tests
    print(f"node ids only in parent: {len(p_tests - shared)}, "
          f"only in change: {len(c_tests - shared)}, in both: {len(shared)}")
    p_counts, p_outer, p_kernel = split(p_records, shared)
    c_counts, c_outer, c_kernel = split(c_records, shared)
    print(f"{'record':<20}{'parent':>10}{'change':>10}")
    for name in sorted(p_counts.keys() | c_counts.keys()):
        print(f"{name:<20}{p_counts[name]:>10}{c_counts[name]:>10}")
    errors = [] if shared else ["the two captures share no test"]
    if p_outer != c_outer:
        at = next((i for i, (a, b) in enumerate(zip(p_outer, c_outer)) if a != b),
                  min(len(p_outer), len(c_outer)))
        errors.append(f"non-kernel record {at + 1} differs "
                      f"({len(p_outer)} in parent, {len(c_outer)} in change)")
    rest = iter(p_kernel)
    for i, line in enumerate(c_kernel):
        if line not in rest:  # consumes the parent's records up to a match
            errors.append(f"kernel record {i + 1} of the change is not in the "
                          f"parent's, in order: {line.strip()[:120]}")
            break
    return errors


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python tools/compare_captures.py PARENT CHANGE", file=sys.stderr)
        return 2
    errors = compare(*args)
    for e in errors:
        print("FAIL:", e)
    print("FAIL" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
