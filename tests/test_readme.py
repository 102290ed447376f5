"""What the README promises: its Library examples run as shown, and the
package is pure standard library."""

import ast
import doctest
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_examples():
    result = doctest.testfile(
        str(ROOT / "README.md"), module_relative=False, optionflags=doctest.ELLIPSIS
    )
    assert result.attempted > 0
    assert result.failed == 0


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "gridband").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
