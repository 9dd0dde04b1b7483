"""The package's source keeps no orphan helper: every module-level private
function or class of ``src/pontus`` is referenced somewhere in the package
besides its definition, so a helper does not outlive its last caller; and
every name that a module other than ``__init__.py`` imports is read in that
module, so an import does not outlive its last use."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pontus"


def private_definitions(tree):
    """The names of a module's top-level ``_private`` functions and classes."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def references(tree):
    """The names that a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    orphans = sorted(f"{module}: {name}" for module, tree in trees.items()
                     for name in private_definitions(tree) - used)
    assert len(trees) > 10 and orphans == []


def test_an_orphan_is_found():
    tree = ast.parse("def _used():\n    pass\n\n\ndef _orphan():\n    _used()\n")
    assert private_definitions(tree) - references(tree) == {"_orphan"}


def unread_imports(tree):
    """The names that a module's imports bind and its code never reads."""
    bound = {(alias.asname or alias.name).partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_import_is_read():
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    unread = sorted(f"{path.name}: {name}" for path in modules
                    for name in unread_imports(ast.parse(path.read_text())))
    assert len(modules) > 10 and unread == []


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from m import a, b as c\n\n\ndef f():\n    import d\n    return c(os)\n")
    assert unread_imports(tree) == {"a", "d"}
