"""The package's own import structure."""

import ast
from pathlib import Path

import dmapnet

PACKAGE = Path(dmapnet.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_import_is_at_module_level():
    # an import inside a function hides a dependency, often a cycle
    nested = []
    for name, tree in _trees().items():
        top = {id(node) for node in tree.body}
        nested += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and id(node) not in top]
    assert nested == []


def test_package_imports_form_a_dag():
    # nested imports count too: they are how a cycle is usually hidden
    deps = {name: {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1}
            for name, tree in _trees().items()}
    done = set()
    while len(done) < len(deps):
        ready = {name for name in deps
                 if name not in done and deps[name] <= done}
        assert ready, f"import cycle among {sorted(set(deps) - done)}"
        done |= ready


def test_every_public_name_resolves_once():
    # a name deleted from the package must leave the export list too
    names = dmapnet.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dmapnet, name)] == []
