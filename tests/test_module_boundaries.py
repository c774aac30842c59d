"""Module boundaries: no module reaches into another's private names,
and no function changes state that lives for the whole process.

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
allow-list holds the crossings that are settled: the metadata cache's
hit, inlined in the name table's pager (EXPERIMENTS "Fast-path audit"
measures what it saves in ``host.py_calls``), and two helper imports.
An entry that no longer crosses fails too, so the list cannot outlive
its reasons.

A name bound at module level lives as long as the process, so a
function that changes what it holds makes one run depend on the runs
before it in the same process.  The second check fails on any function
in ``src/repro`` that, for a name some module binds at module level
(read directly, through an import, off an imported module, or through a
local name bound to it), stores into it or deletes from it by
subscript, calls one of :data:`MUTATORS` on it, or declares a name
``global``.  :data:`STATE_ALLOWED` is its allow-list, held to the same
rule as :data:`ALLOWED`.
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

#: (module, name) of the module-level state a function may change.
STATE_ALLOWED = {
    # The recovery sweep's memo: weakly keyed by the disk, so it holds
    # nothing one disk can see of another.
    ("repro.core.recovery", "_SWEEP_MEMO"),
}

#: Methods that change a dict, list, set or deque in place.
MUTATORS = frozenset({
    "__delitem__", "__setitem__", "add", "append", "appendleft", "clear",
    "discard", "extend", "extendleft", "insert", "move_to_end", "pop",
    "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
    "update",
})


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


def _module_aliases(tree: ast.Module) -> dict[str, str]:
    """Local names bound to modules, each with its module's name
    (``import a.b as c``, ``from repro.core import types``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.partition(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            package = SRC.joinpath(*node.module.split("."))
            for alias in node.names:
                if (package / alias.name).is_dir() or (
                    package / f"{alias.name}.py"
                ).is_file():
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def _chain(node: ast.expr) -> list[ast.Attribute]:
    """The attribute links of ``a.b.c``, outermost first."""
    links = []
    while isinstance(node, ast.Attribute):
        links.append(node)
        node = node.value
    return links


def _modules() -> list[tuple[str, ast.Module]]:
    """(module name, syntax tree) of every module in ``src/repro``."""
    out = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        out.append((module, ast.parse(path.read_text(), str(path))))
    return out


def crossings() -> set[tuple[str, str, int]]:
    """Every (module, private name, line) that crosses a boundary."""
    found: set[tuple[str, str, int]] = set()
    for module, tree in _modules():
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


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names a module's own top-level statements assign."""
    names: set[str] = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        names.update(
            target.id for target in targets if isinstance(target, ast.Name)
        )
    return names


def _scope(function: ast.AST) -> list[ast.AST]:
    """The nodes of ``function``'s own body: nested functions and
    classes are scopes of their own."""
    nodes: list[ast.AST] = []
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return nodes


def state_writes() -> set[tuple[str, str, str, int]]:
    """Every (owner module, name, writing module, line) at which a
    function changes a name bound at module level."""
    modules = _modules()
    bound = {module: _module_level_names(tree) for module, tree in modules}
    found: set[tuple[str, str, str, int]] = set()
    for module, tree in modules:
        imported_modules = _module_aliases(tree)
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in bound
            for alias in node.names
            if alias.name in bound[node.module]
        }
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = _scope(function)
            local = {arg.arg for arg in ast.walk(function.args)
                     if isinstance(arg, ast.arg)}
            local.update(node.id for node in body if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store))
            aliases: dict[str, tuple[str, str]] = {}

            def owner(node: ast.expr) -> tuple[str, str] | None:
                if isinstance(node, ast.Name):
                    if node.id in aliases:
                        return aliases[node.id]
                    if node.id in local:
                        return None
                    if node.id in bound[module]:
                        return module, node.id
                    return imported.get(node.id)
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id not in local
                ):
                    other = imported_modules.get(node.value.id)
                    if node.attr in bound.get(other, ()):
                        return other, node.attr
                return None

            for node in body:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and owner(node.value) is not None
                ):
                    aliases[node.targets[0].id] = owner(node.value)
            for node in body:
                if isinstance(node, ast.Global):
                    for name in node.names:
                        found.add((module, name, module, node.lineno))
                    continue
                if isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    target = owner(node.value)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATORS
                ):
                    target = owner(node.func.value)
                else:
                    continue
                if target is not None:
                    found.add((*target, module, node.lineno))
    return found


def test_no_function_changes_module_level_state():
    stray = sorted(
        f"{writer}:{line} changes {owner}.{name}"
        for owner, name, writer, line in state_writes()
        if (owner, name) not in STATE_ALLOWED
    )
    assert stray == []


def test_every_allowed_state_write_still_exists():
    used = {(owner, name) for owner, name, _, _ in state_writes()}
    assert sorted(STATE_ALLOWED - used) == []
