"""Module boundaries: no module reaches into another's private names.

Each on-disk format has one owner module (log records: ``core/wal.py``;
name-table pages: ``core/name_table.py``; leaders: ``core/leader.py``)
and its other readers go through that owner's public functions.  This
walks ``src/repro`` with :mod:`ast` and fails on

* ``from repro.X import _private`` in any module other than ``repro.X``;
* a private attribute of another module, or of an object whose class
  this module does not define, used to make a call
  (``obj._private(...)``, ``obj._private.method(...)``), or read off an
  imported module (``module._PRIVATE``).

``self``, ``cls`` and ``super()`` are a module's own objects.  The
allow-list holds the crossings that are settled: two hand-inlined
copies of the name table's hot path, the metadata cache's hit and the
key memo's probe (EXPERIMENTS "Fast-path audit" measures what they save
in ``host.py_calls``), and two helper imports.  An entry that no longer crosses fails too, so the
list cannot outlive its reasons.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: (module, private name) pairs that may cross a module boundary.
ALLOWED = {
    # The metadata cache's hit path, inlined in NameTablePager.read,
    # and the counter stand-in it binds when no observer is attached.
    ("repro.core.name_table", "_NullCounter"),
    ("repro.core.name_table", "_entries"),
    ("repro.core.name_table", "_lru"),
    # The scripts' I/O CPU step, reused by the alternative designs.
    ("repro.model.alternatives", "_io_cpu"),
    # The disk's label padding, for the crash explorer's write record.
    ("repro.crashcheck.workload", "_pad_label"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _own_object(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("self", "cls")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module defines: functions, classes, module globals and
    the attributes it assigns."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Store
        ):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _module_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to modules (``import a.b as c``,
    ``from repro.core import types``)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module:
            package = SRC.joinpath(*node.module.split("."))
            for alias in node.names:
                if (package / alias.name).is_dir() or (
                    package / f"{alias.name}.py"
                ).is_file():
                    aliases.add(alias.asname or alias.name)
    return aliases


def _chain(node: ast.expr) -> list[ast.Attribute]:
    """The attribute links of ``a.b.c``, outermost first."""
    links = []
    while isinstance(node, ast.Attribute):
        links.append(node)
        node = node.value
    return links


def crossings() -> set[tuple[str, str, int]]:
    """Every (module, private name, line) that crosses a boundary."""
    found: set[tuple[str, str, int]] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        defined = _defined_names(tree)
        modules = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro") and node.module != module:
                    for alias in node.names:
                        if _private(alias.name):
                            found.add((module, alias.name, node.lineno))
            elif isinstance(node, ast.Call):
                for link in _chain(node.func):
                    if (
                        _private(link.attr)
                        and link.attr not in defined
                        and not _own_object(link.value)
                    ):
                        found.add((module, link.attr, link.lineno))
            elif (
                isinstance(node, ast.Attribute)
                and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                found.add((module, node.attr, node.lineno))
    return found


def test_no_private_name_crosses_a_module_boundary():
    stray = sorted(
        f"{module}:{line} uses {name}"
        for module, name, line in crossings()
        if (module, name) not in ALLOWED
    )
    assert stray == []


def test_every_allowed_crossing_still_exists():
    used = {(module, name) for module, name, _ in crossings()}
    assert sorted(ALLOWED - used) == []
