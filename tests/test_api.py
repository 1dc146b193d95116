"""Every module-level function and class in the package, public or private,
is used by the package itself, and every public method and property of a
package class by the package or the benchmark: a name that only the
exports or the tests reach is unused API, and a private helper that only
the tests reach was orphaned by a deletion.  Every name a module imports is
also read there."""

import ast
from pathlib import Path

import skeinsolve

PACKAGE = Path(skeinsolve.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the benchmark's tracer and runner call into the package, so they count as
# callers; their own tests do not
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
PERFBENCH = sorted(p for p in BENCH_DIR.glob("*.py") if not p.name.startswith("test_"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _definitions(tree: ast.Module, private: bool):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None,
                      attributes_only: bool = False) -> set[str]:
    """Names read as identifiers or attributes anywhere in tree, leaving out
    the subtree skip; with attributes_only, attribute names alone."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unused_definitions(private: bool) -> list[str]:
    """Module-level definitions that no other module and no other part of
    their own module reads."""
    trees = {path.name: _parse(path) for path in MODULES}
    unused = []
    for name, tree in trees.items():
        others = set().union(*(_referenced_names(t) for n, t in trees.items()
                               if n != name))
        for node in _definitions(tree, private):
            if (node.name not in others
                    and node.name not in _referenced_names(tree, skip=node)):
                unused.append(f"{name}:{node.name}")
    return unused


def test_every_public_definition_is_used_inside_the_package():
    assert _unused_definitions(private=False) == []


def test_every_private_definition_is_used_inside_the_package():
    assert _unused_definitions(private=True) == []


def test_every_public_method_is_used_outside_its_definition():
    # a method is reached as x.name; a local variable or parameter of the
    # same name does not use it
    trees = {path.name: _parse(path) for path in MODULES}
    bench = set().union(*(_referenced_names(_parse(path), attributes_only=True)
                          for path in PERFBENCH))
    unused = []
    for name, tree in trees.items():
        others = bench.union(*(_referenced_names(t, attributes_only=True)
                               for n, t in trees.items() if n != name))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in others
                        and node.name not in _referenced_names(tree, skip=node,
                                                               attributes_only=True)):
                    unused.append(f"{name}:{cls.name}.{node.name}")
    assert unused == []


def test_every_imported_name_is_read():
    # a name left imported after its last use is deleted; __future__ imports
    # switch on features and bind nothing that is read
    unread = []
    for path in MODULES:
        tree = _parse(path)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{bound}" for alias in node.names
                           if (bound := (alias.asname or alias.name).split(".")[0])
                           not in read]
    assert unread == []
