"""tools/compare_captures.py: over the tests both files hold, same non-kernel
records, kernel records a subsequence of the parent's."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_captures.py"

A, B = "tests/test_a.py::test_a", "tests/test_b.py::test_b"
PARENT = [[A, "mul", "x"], [A, "compose", "x*q_z"], [A, "substitute", "y"],
          [B, "partial", "1"], [B, "pullback_series", "eps*x"], [B, "substitute", "x^2"]]
NEW = "tests/test_c.py::test_new"
ADDED = [[NEW, "parse_series", "x"], [NEW, "mul", "x*y"]]  # a test only the change has


def run(tmp_path, change):
    paths = []
    for name, records in (("parent", PARENT), ("change", change)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), *paths],
                          capture_output=True, text=True, timeout=60)


CHANGED = [r if r[1] != "compose" else [A, "compose", "x*q_y"] for r in PARENT]


@pytest.mark.parametrize("change, code", [
    (PARENT, 0),
    ([r for r in PARENT if r[2:] != ["y"]], 0),  # a dropped kernel record
    (CHANGED, 1),
    (PARENT[:1] + [PARENT[4], PARENT[2], PARENT[3], PARENT[1], PARENT[5]], 1),  # reordered
    (PARENT + [[B, "deriv", "x"]], 1),  # an added kernel record
    (PARENT[:3] + ADDED + PARENT[3:], 0),
    (CHANGED[:3] + ADDED + CHANGED[3:], 1),
    ([], 1),
    (ADDED, 1),
], ids=["identical", "dropped-kernel", "changed", "reordered", "added-kernel",
        "test-only-in-change", "changed-beside-new-test", "empty", "no-shared-test"])
def test_exit_status(tmp_path, change, code):
    out = run(tmp_path, change)
    assert out.returncode == code, out.stdout + out.stderr
    shared = len({A, B} & {r[0] for r in change})
    assert ("compose" in out.stdout) == bool(shared)
    assert out.stdout.rstrip().endswith("FAIL" if code else "OK")
    alone = int(any(r[0] == NEW for r in change))
    assert f"only in parent: {2 - shared}, only in change: {alone}, in both: {shared}" in out.stdout


def test_test_only_in_parent_is_left_out(tmp_path):
    out = run(tmp_path, [r for r in PARENT if r[0] == A])
    assert out.returncode == 0, out.stdout + out.stderr
    assert "only in parent: 1, only in change: 0, in both: 1" in out.stdout
    assert "pullback_series" not in out.stdout  # test B's records are not counted
