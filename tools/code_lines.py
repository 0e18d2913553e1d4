"""Count each Python module's code lines in two trees and print the change.

A code line is any line that is not blank, not a comment-only line and not
part of a docstring (of a module, class or function). The lines inside
other multi-line strings are code. Each tree is a directory or a git
revision; a revision reads the files under `--under` (default `src`) from
that commit, a directory the files below it.

    python tools/code_lines.py cf69bb4 src          # a commit against the work tree
    python tools/code_lines.py HEAD~1 HEAD --under tests
    python tools/code_lines.py old/src new/src

Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    tree = ast.parse(source)
    docstrings, strings = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
        elif isinstance(node, (ast.Constant, ast.JoinedStr)):
            # A line that starts inside a multi-line string is code, even
            # when it is blank or starts with "#".
            strings.update(range(node.lineno + 1, node.end_lineno + 1))
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docstrings:
            continue
        if number in strings or (text and not text.startswith("#")):
            count += 1
    return count


def _git(*args: str) -> str:
    return subprocess.run(("git", *args), check=True, capture_output=True,
                          text=True).stdout


def modules(tree: str, under: str) -> dict[str, str]:
    """Map each module's path, relative to the tree, to its source text."""
    root = Path(tree)
    if root.is_dir():
        return {path.relative_to(root).as_posix(): path.read_text("utf-8")
                for path in sorted(root.rglob("*.py"))}
    prefix = under.rstrip("/") + "/"
    names = _git("ls-tree", "-r", "--name-only", tree, "--", prefix).split()
    return {name[len(prefix):]: _git("show", f"{tree}:{name}")
            for name in names if name.endswith(".py")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="directory or git revision")
    parser.add_argument("new", help="directory or git revision")
    parser.add_argument("--under", default="src",
                        help="the directory a revision is read from")
    args = parser.parse_args(argv)
    old, new = modules(args.old, args.under), modules(args.new, args.under)
    rows = []
    for name in sorted(old.keys() | new.keys()):
        a = code_lines(old[name]) if name in old else 0
        b = code_lines(new[name]) if name in new else 0
        rows.append((name, a, b))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'old':>6}  {'new':>6}  {'change':>6}")
    for name, a, b in rows:
        print(f"{name:<{width}}  {a:>6}  {b:>6}  {b - a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
