"""tools/unrun_lines.py on a fixture package named ``mfc``, found before the
real one: it lists exactly the executable lines no test runs, import-time
lines included."""

import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

MODULE = '''"""A fixture module: one branch of each function never runs."""

import functools

LIMIT = 3


def counted(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        return fn(*args)
    return wrapper


@counted
def pick(n):
    """A docstring is no instruction."""
    if n > LIMIT:
        return [k * k
                for k in range(n)]
    return "small"


class Box:
    size = LIMIT

    def area(self):
        return self.size ** 2
'''

TEST = '''from mfc.mod import pick


def test_pick():
    assert pick(4) == [0, 1, 4, 9]
'''


def run(tmp_path, *options):
    (tmp_path / "mfc").mkdir()
    (tmp_path / "mfc" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "mfc" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "test_fix.py").write_text(TEST, encoding="utf-8")
    (tmp_path / "conftest.py").write_text("import mfc.mod\n", encoding="utf-8")
    (tmp_path / "early.py").write_text("import mfc\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(TOOLS)]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *options, "-p", "unrun_lines", "--unrun-lines=unrun.txt",
                           "test_fix.py"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_lists_the_unrun_lines(tmp_path):
    out = run(tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    expected = [os.path.join("mfc", "mod.py") + ':21: return "small"',
                os.path.join("mfc", "mod.py") + ":28: return self.size ** 2"]
    assert (tmp_path / "unrun.txt").read_text(encoding="utf-8").splitlines() == expected
    assert "2 unrun executable lines" in out.stdout
    assert all(line in out.stdout.splitlines() for line in expected)


def test_refuses_a_package_imported_before_its_tracer(tmp_path):
    out = run(tmp_path, "-p", "early")
    assert out.returncode == 4, out.stdout + out.stderr
    assert "mfc was imported before its lines could be traced" in out.stderr
    assert not (tmp_path / "unrun.txt").exists()
