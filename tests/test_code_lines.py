"""tools/code_lines.py, the counter that the code-line figures quoted in
ROADMAP.md and CHANGES.md come from."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def count(*paths):
    return subprocess.run([sys.executable, str(TOOL), *paths], cwd=ROOT,
                          capture_output=True, encoding="utf-8", timeout=60)


def test_files_sum_to_their_directory():
    files = [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src" / "gridband").glob("*.py"))]
    run = count("src/gridband", *files)
    assert (run.returncode, run.stderr) == (0, "")
    figures = dict(line.split("\t") for line in run.stdout.splitlines())
    assert list(figures) == ["src/gridband", *files]
    assert all(int(figures[name]) > 0 for name in files)
    assert sum(int(figures[name]) for name in files) == int(figures["src/gridband"])


def test_a_missing_path_is_refused():
    run = count("src/gridband/cli.py", "no_such_dir")
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "code_lines: not a directory or .py file: no_such_dir\n"
