"""Line counts of the project's Python sources, split by kind.

Prints, for each of ``src/beamtrack``, ``tests``, ``tools`` and ``demos``,
how many lines of its ``*.py`` files are code, docstring, comment and
blank, and their total.  A line that holds only whitespace is blank.  Of
the others, a line spanned by a docstring (the string that is the first
statement of a module, class or function) is docstring, a line that
starts with ``#`` is comment, and any other line is code.

    python3 tools/loc.py
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src/beamtrack", "tests", "tools", "demos")
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            counts["blank"] += 1
        elif number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> None:
    print(f"{'tree':<14}" + "".join(f"{k:>11}" for k in KINDS) + f"{'total':>8}")
    for tree in TREES:
        totals = dict.fromkeys(KINDS, 0)
        for path in sorted((ROOT / tree).glob("*.py")):
            for kind, n in count(path).items():
                totals[kind] += n
        print(f"{tree:<14}" + "".join(f"{totals[k]:>11}" for k in KINDS)
              + f"{sum(totals.values()):>8}")


if __name__ == "__main__":
    main()
