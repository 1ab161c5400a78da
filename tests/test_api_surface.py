"""Every public function, class and method of the package has a caller.

A module-level name counts as used when code in ``src/`` or ``perfbench/``
outside its own definition names it: as a name, an attribute, or a string
that is exactly the name.  A comment or docstring that mentions it does not
count.  A public method of a public class counts as used when its name is
read as an attribute (``obj.name``) outside its own body, or when a string
names it as ``"Class.method"`` (the way the benchmark tracer wraps methods).
Package ``__init__.py`` re-exports and the tests do not count, so an API kept
alive only by a re-export or by its own tests fails here.

Every field of a dataclass or a ``NamedTuple`` class must also be read as an
attribute (``obj.field`` in load context) somewhere in ``src/`` or
``perfbench/``; a field that is only written, or read only by tests, fails
here.  A dataclass that serializes itself whole, by calling ``asdict(self)``
in its own body, reads every field there: each one reaches its output.

The checks are name-level.  A field whose name is read on another class
passes even if it is write-only: ``SliceAccessState.node`` was never read,
yet ``.node`` is read on many other classes, so only a review catches it.
``TraceEvent.time_ms`` (a forwarding-trace field, hidden by ``alert.time_ms``)
and ``World.repository`` (hidden by ``manager.repository``) were write-only
fields of the same kind.  So were ``LinkHop.slice_id`` (hidden by
``Packet.slice_id``) and the ``PolicyRepository.rules`` list (hidden by
``FlowRecord.rules``), read only by tests; the first is deleted, the
second is now the id-keyed dict the duplicate check reads.  So was
``_Leaf.counts`` (hidden by ``TrafficDriver.counts``), written at both leaf
sites of the decision tree and never read; it is deleted.  One such field
is left: ``FlowDecision.error`` is read only by tests and passes because
perfbench calls ``parser.error``.  Per-reason drop counters in the reports
(ROADMAP item 3) are its natural reader.  A field read only by the code that
writes it is invisible here too: ``FlowRule.provenance`` was read only by
``apply_flow_mod``, to decide whether to overwrite it, and by one test.  It
is deleted; a switch cannot tell who sent a rule.

Every module of the package and of perfbench, ``__init__.py`` re-exports
aside, must use each name it imports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slice_sentinel"

# Kept without a caller on purpose: ROADMAP item 3 (`audit --log`) loads a
# recorded activity log from disk.
UNUSED_BY_DESIGN = {"ActivityLog.load"}


def _parsed() -> dict[Path, ast.Module]:
    """Every module that may hold a use, read and parsed once."""
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in files
            if path.name not in ("__init__.py", "test_smoke.py")}


PARSED = _parsed()


def _public(nodes, kinds):
    return [n for n in nodes if isinstance(n, kinds) and not n.name.startswith("_")]


def _span(node) -> tuple[int, int]:
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return start, node.end_lineno


def _package_modules():
    return [(path, tree) for path, tree in PARSED.items() if PACKAGE in path.parents]


def _uses() -> list[tuple[Path, int, str]]:
    """(file, line, word) for every name, as itself, every attribute, as
    ``.name``, and every string constant, as itself."""
    uses = []
    for path, tree in PARSED.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, "." + node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.append((path, node.lineno, node.value))
    return uses


def _used_outside(uses, path: Path, node, words: tuple[str, ...]) -> bool:
    """Whether one of ``words`` is used anywhere but in ``node``'s own lines."""
    first, last = _span(node)
    return any(word in words and not (where == path and first <= line <= last)
               for where, line, word in uses)


def test_every_public_definition_has_a_use_outside_itself():
    """A use is code: a name, an attribute, or a string that is exactly the
    name (the tracer's targets).  Comments and docstrings do not count."""
    uses = _uses()
    unused = []
    for path, tree in _package_modules():
        for node in _public(tree.body, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _used_outside(uses, path, node, (node.name, "." + node.name)):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert unused == [], "public names with no use outside their definition:\n" + "\n".join(unused)


def test_every_public_method_has_a_use_outside_its_body():
    uses = _uses()
    unused = []
    for path, tree in _package_modules():
        for cls in _public(tree.body, ast.ClassDef):
            for method in _public(cls.body, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{cls.name}.{method.name}"
                used = _used_outside(uses, path, method, ("." + method.name, qualname))
                if not used and qualname not in UNUSED_BY_DESIGN:
                    unused.append(f"{path.relative_to(ROOT)}:{method.lineno} {qualname}")
    assert unused == [], "public methods with no use outside their body:\n" + "\n".join(unused)


# Kept without an attribute read on purpose: the datapath outcome value,
# which callers and tests compare by equality (``Delivered(host=...)``).
FIELDS_READ_BY_EQUALITY = {"Delivered.host"}


def _name(node: ast.expr):
    """The last name of ``x`` or ``a.x``; None for any other expression."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(_name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
               for deco in cls.decorator_list)


def _is_named_tuple(cls: ast.ClassDef) -> bool:
    return any(_name(base) == "NamedTuple" for base in cls.bases)


def _serializes_itself(cls: ast.ClassDef) -> bool:
    """Whether the class body calls ``asdict(self)``."""
    return any(
        isinstance(node, ast.Call) and _name(node.func) == "asdict"
        and len(node.args) == 1 and getattr(node.args[0], "id", None) == "self"
        for node in ast.walk(cls)
    )


def test_every_dataclass_field_is_read_somewhere():
    """Dataclasses and ``NamedTuple`` classes alike."""
    reads = {
        node.attr
        for tree in PARSED.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path, tree in _package_modules():
        records = (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
                   and (_is_dataclass(n) or _is_named_tuple(n)) and not _serializes_itself(n))
        for cls in records:
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                qualname = f"{cls.name}.{stmt.target.id}"
                if stmt.target.id not in reads and qualname not in FIELDS_READ_BY_EQUALITY:
                    unread.append(f"{path.relative_to(ROOT)}:{stmt.lineno} {qualname}")
    assert unread == [], "record fields never read as an attribute:\n" + "\n".join(unread)


def _imported_names(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, bound name) for every import in a module, at any depth."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


def test_every_import_is_used():
    # Parsed apart from PARSED: ``test_smoke.py`` counts here.  Package
    # ``__init__.py`` files import in order to re-export, so they do not.
    files = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    unused = []
    for path in files:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in _imported_names(tree) if name not in names]
    assert unused == [], "imports never used in their module:\n" + "\n".join(unused)
