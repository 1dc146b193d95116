"""Every module-level function and class in the package, public or private,
is used by the package itself, and every public method and property of a
package class runs in a command or is read by the benchmark: a name that
only the exports or the tests reach is unused API, and a private helper
that only the tests reach was orphaned by a deletion.  Every name a module
imports is also read there."""

import ast
import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import skeinsolve
from skeinsolve.cli import PRESET_NAMES, TEMPLATE_NAMES, main
from skeinsolve.verify import SUITES

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


def _commands() -> list[list[str]]:
    """Every command and format once, psi a miss and a hit per geometry and
    format, and every suite."""
    formats = [["--format", fmt] for fmt in ("text", "records")]
    psi = [["psi", "--geometry", g, "--max-degree", "3", *fmt]
           for g in PRESET_NAMES for fmt in formats for _ in range(2)]
    data = [[*argv, *fmt] for fmt in formats for argv in (
        ["closed-form", "--geometry", "unknot", "--partition", "2,1"],
        ["invariant", "--partition", "2,1"],
        ["partitions", "3"],
        ["content-poly", "2,1"],
        ["hook-poly", "2,1"],
        *(["solve-coefficients", "--geometry", g] for g in TEMPLATE_NAMES))]
    suites = [["verify", "--suite", s, "--max-degree", "3"] for s in SUITES]
    return psi + data + suites


def _modules():
    return [importlib.import_module(f"skeinsolve.{path.stem}") for path in MODULES]


def _code_run_by_the_commands() -> set:
    """The code objects called while the commands run in this process, with
    the package's functools caches emptied first, so that what a warm cache
    would skip runs too."""
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [main(argv) for argv in _commands()]
        finally:
            sys.setprofile(None)
    assert codes == [0] * len(codes)
    return ran


def _public_methods():
    """(class.name, code) of every public method and property a package
    class defines, decorators unwrapped."""
    for module in _modules():
        for cls in vars(module).values():
            if not (isinstance(cls, type) and cls.__module__ == module.__name__):
                continue
            for name, value in vars(cls).items():
                if name.startswith("_"):
                    continue
                if isinstance(value, property):
                    value = value.fget
                elif isinstance(value, (classmethod, staticmethod)):
                    value = value.__func__
                code = getattr(inspect.unwrap(value), "__code__", None)
                if code is not None:
                    yield f"{cls.__name__}.{name}", code


def test_every_public_method_is_used_outside_its_definition(tmp_path, monkeypatch):
    # a method counts as used when a command runs it, class by class: a
    # method of the same name on another class does not use it
    monkeypatch.setenv("SKEINSOLVE_CACHE_DIR", str(tmp_path))
    bench = set().union(*(_referenced_names(_parse(path), attributes_only=True)
                          for path in PERFBENCH))
    ran = _code_run_by_the_commands()
    unused = [name for name, code in _public_methods()
              if code not in ran and name.split(".")[1] not in bench]
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
