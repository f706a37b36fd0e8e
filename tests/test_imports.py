"""No module of the package imports a name it never uses.

A stdlib `ast` walk: every name bound by an import statement must be read
somewhere in the same module, in code or in a string annotation.  The
package `__init__.py` is exempt, since its imports are re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ckcoh"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield node.returns
            yield from (arg.annotation for arg in every if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in _annotations(tree):
        for node in ast.walk(note) if note is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


def test_every_imported_name_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, unused
