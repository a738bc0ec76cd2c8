"""Compare two capture files written by ``capture_outputs.py``.

    python tools/compare_captures.py PARENT CHANGE

A refactor may drop kernel calls, but not change what the engine returns.
The exit status is 0 only when

* the records whose name is not a kernel name (``mul``, ``deriv``,
  ``partial``, ``substitute``) are equal, byte for byte and in the same
  order, in both files, and
* the kernel records of CHANGE are a subsequence of those of PARENT: every
  one of them occurs in PARENT, in the same order, with others left out.

Otherwise it names the first record that breaks the rule and exits 1.  It
prints the number of records of each name in both files either way.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

KERNEL = ("mul", "deriv", "partial", "substitute")


def read(path: str):
    """(name counts, non-kernel lines, kernel lines) of a capture file."""
    counts: Counter = Counter()
    outer, kernel = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            name = json.loads(line)[0]
            counts[name] += 1
            (kernel if name in KERNEL else outer).append(line)
    return counts, outer, kernel


def compare(parent: str, change: str) -> list:
    """The reasons CHANGE fails against PARENT; empty when it passes."""
    p_counts, p_outer, p_kernel = read(parent)
    c_counts, c_outer, c_kernel = read(change)
    print(f"{'record':<20}{'parent':>10}{'change':>10}")
    for name in sorted(p_counts.keys() | c_counts.keys()):
        print(f"{name:<20}{p_counts[name]:>10}{c_counts[name]:>10}")
    errors = []
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
