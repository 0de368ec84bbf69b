"""``src/numur`` holds only code that the package itself runs.

Every public top-level function and class of a module, and every public
method of such a class, must be referenced by package code outside its
own definition and outside ``__init__.py``. A reference is a load of a
name that no enclosing function binds itself, or a load of an attribute
of that name, anywhere in ``src/numur``. So a test-only entry shows up
here, while a method whose name another object's attribute also uses
may slip through. Docstrings and comments do not count. Reference
implementations that only tests run belong in ``tests/``
(``scoring_reference.py``, ``ingest_reference.py``).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "numur"


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _public_definitions(trees: dict[str, ast.Module]):
    """(qualified name, plain name, node) of each public top-level function
    and class, and of each public method of those classes."""
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def _bound(fn) -> set[str]:
    """The names a function binds: its parameters and every name it (or a
    function inside it) assigns."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    names |= {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


class _Uses(ast.NodeVisitor):
    """The name and attribute loads of a module, by name; a name that an
    enclosing function binds is a local variable and not listed."""

    def __init__(self, uses: dict[str, list[ast.AST]]):
        self.uses, self.scopes = uses, []

    def visit_FunctionDef(self, node):
        self.scopes.append(_bound(node))
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in s for s in self.scopes):
            self.uses.setdefault(node.id, []).append(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.uses.setdefault(node.attr, []).append(node)
        self.generic_visit(node)


def unreferenced() -> list[str]:
    trees = _modules()
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        _Uses(uses).visit(tree)
    missing = []
    for qualified, name, node in _public_definitions(trees):
        inside = {id(n) for n in ast.walk(node)}
        if all(id(use) in inside for use in uses.get(name, ())):
            missing.append(qualified)
    return missing


def test_every_public_entry_has_a_package_caller():
    missing = unreferenced()
    assert not missing, ("public names that no package code references; move test-only "
                         f"code to tests/: {missing}")
