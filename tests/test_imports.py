"""No module of the package imports a name it never uses.

A stdlib `ast` walk: every name bound by an import statement must be read
somewhere in the same module, in code or in a string annotation.  The
package `__init__.py` is exempt, since its imports are re-exports; its
`__all__` must list exactly the names it imports, so a star import neither
misses a re-export nor names one that is gone.

Importing the CLI loads no process-pool machinery: only a sweep that runs
in several processes imports `multiprocessing`.
"""

import ast
import os
import subprocess
import sys
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


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [name for name, _ in _imported(tree)]
    listed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    assert sorted(set(listed) ^ set(imported)) == []
    assert len(listed) == len(set(listed))
    namespace = {}
    exec("from ckcoh import *", namespace)
    assert set(listed) <= set(namespace)


def test_the_cli_imports_no_process_machinery():
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, ckcoh.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
