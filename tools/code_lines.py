"""Count code lines per directory or file, by the standard library's tokenize.

    python tools/code_lines.py [PATH ...]

A code line holds a token of a statement that is not a string alone.  So
blank lines, comment lines and docstring lines are left out, and so is a
line of a bare string statement anywhere.  Every *.py file under a
directory counts, and a .py file counts as itself; any other path is
refused, with exit 1, before anything is counted.  With no argument it
counts src/gridband, tests and bench: the figures that ROADMAP.md and
CHANGES.md quote.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

DEFAULT_DIRS = ("src/gridband", "tests", "bench")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of one file that hold code."""
    lines, statement = set(), []
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in NOT_CODE:
                continue
            if token.type != tokenize.NEWLINE:
                statement.append(token)
                continue
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    args = argv or DEFAULT_DIRS
    refused = [arg for arg in args if not (
        Path(arg).is_dir() or Path(arg).is_file() and arg.endswith(".py"))]
    if refused:
        print(f"code_lines: not a directory or .py file: {', '.join(refused)}", file=sys.stderr)
        return 1
    for arg in args:
        files = sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)]
        print(f"{arg}\t{sum(map(code_lines, files))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
