"""Every public module-level function and class of the package has a caller.

A name counts as used when it appears in ``src/`` or ``perfbench/`` outside
its own definition; a package re-export counts.  Tests do not count, so an
API kept alive only by its own tests fails here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slice_sentinel"


def _sources() -> dict[Path, str]:
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {
        path: path.read_text(encoding="utf-8")
        for path in files
        if path.name != "test_smoke.py"
    }


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def _blank_lines(text: str, first: int, last: int) -> str:
    """``text`` with lines ``first``..``last`` (1-based, inclusive) emptied."""
    lines = text.splitlines()
    for i in range(first - 1, last):
        lines[i] = ""
    return "\n".join(lines)


def test_every_public_definition_has_a_use_outside_itself():
    sources = _sources()
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(sources[path])
        for node in _public_definitions(tree):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = _blank_lines(sources[path], start, node.end_lineno)
            others = (text for other, text in sources.items() if other != path)
            if not word.search(own) and not any(word.search(text) for text in others):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], "public names with no use outside their definition:\n" + "\n".join(unused)
