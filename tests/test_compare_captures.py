"""tools/compare_captures.py: same non-kernel records, kernel records a
subsequence of the parent's."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_captures.py"

PARENT = [["mul", "x"], ["compose", "x*q_z"], ["substitute", "y"],
          ["partial", "1"], ["pullback_series", "eps*x"], ["substitute", "x^2"]]


def run(tmp_path, change):
    paths = []
    for name, records in (("parent", PARENT), ("change", change)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), *paths],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("change, code", [
    (PARENT, 0),
    ([r for r in PARENT if r != ["substitute", "y"]], 0),  # a dropped kernel record
    ([r if r[0] != "compose" else ["compose", "x*q_y"] for r in PARENT], 1),  # changed
    (PARENT[:1] + [PARENT[4], PARENT[2], PARENT[3], PARENT[1], PARENT[5]], 1),  # reordered
    (PARENT + [["deriv", "x"]], 1),  # an added kernel record
], ids=["identical", "dropped-kernel", "changed", "reordered", "added-kernel"])
def test_exit_status(tmp_path, change, code):
    out = run(tmp_path, change)
    assert out.returncode == code, out.stdout + out.stderr
    assert "compose" in out.stdout and out.stdout.rstrip().endswith("FAIL" if code else "OK")
