"""No module under ``src/`` imports a name it never uses.

An ``ast`` walk over every module: each name an ``import`` binds must
be referenced somewhere else in the module, as a name, the root of an
attribute chain, a name inside a string annotation, or an entry of
``__all__``.  ``__init__.py`` files are exempt, since their imports are
the package's re-exports.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _annotations(tree):
    """Every annotation expression in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree):
    """Names the module reads: plain names (attribute chains included,
    by their root), names inside string annotations, and ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value,
                                                             str):
                names |= _referenced(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def _imported(tree):
    """``(line, name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname
                                    or alias.name.split(".")[0])
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def unused_imports(source: str):
    """``(line, name)`` of each imported name *source* never uses."""
    tree = ast.parse(source)
    used = _referenced(tree)
    return [(line, name) for line, name in _imported(tree)
            if name not in used]


def test_finds_an_unused_import():
    source = ("from typing import Dict, List, Optional\n"
              "import os.path\n"
              "import json\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == [(1, "Dict"), (3, "json")]


def test_no_module_under_src_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(SRC)}:{line}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)
