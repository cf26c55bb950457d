"""The package's import order, read off the source with ``ast``.

Every module imports at its top, and the run-time imports between package
modules form one order with no cycle: the exact kernels ``lra`` and ``dbm``
import nothing from the package, and ``modelio`` reads and writes documents
without the repair loop. The one import inside a function is
``tarepair.load_bundled_model``'s, which keeps ``import tarepair`` from
loading the engine.
"""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tarepair"


def _is_type_checking(test: ast.expr) -> bool:
    return isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def _walk(node: ast.AST, scope: tuple[str, ...]):
    """(import node, scope) for every import under ``node``; the scope names
    each enclosing function or class, and ``TYPE_CHECKING`` for an
    ``if TYPE_CHECKING:`` block."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _walk(child, (*scope, child.name))
        elif isinstance(child, ast.If) and _is_type_checking(child.test):
            yield from _walk(child, (*scope, "TYPE_CHECKING"))
        else:
            yield from _walk(child, scope)


def _package_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The package modules an import names, by their short names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("tarepair.")]
    if node.level == 0:
        return [node.module.split(".")[1]] if (node.module or "").startswith("tarepair.") else []
    return [node.module] if node.module else [a.name for a in node.names]


def _imports():
    """Per module: a list of (imported package module, scope)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out[path.stem] = [(m, scope) for node, scope in _walk(tree, ()) for m in _package_modules(node)]
    return out


def test_every_import_sits_at_the_top_of_its_module():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, scope in _walk(tree, ()):
            if scope and scope != ("TYPE_CHECKING",):
                nested.append((path.stem, scope, ast.unparse(node)))
    assert nested == [("__init__", ("load_bundled_model",), "from .modelio import load_model")]


def test_the_kernels_import_nothing_from_the_package_at_run_time():
    imports = _imports()
    assert imports["lra"] == []
    assert imports["dbm"] == [("model", ("TYPE_CHECKING",))]


def test_modelio_does_not_import_the_repair_loop():
    imported = {m for m, _ in _imports()["modelio"]}
    assert not imported & {"orchestrator", "maxsmt", "seeding", "cli"}


def test_run_time_imports_form_one_order():
    graph = {
        module: {m for m, scope in imported if not scope}
        for module, imported in _imports().items()
    }
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
