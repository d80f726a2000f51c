"""Every module-level import under ``src/`` is read by its module —
pinned by walking the source, so an import whose last reader goes away
shows up here instead of lingering.

"Read" means loaded as a name anywhere in the module (an attribute
chain counts through its root name), listed in the module's
``__all__``, or named inside a string annotation.  ``__init__.py``
modules are exempt: their imports are the package's re-exports.  An
import line marked ``# noqa: F401`` is kept on purpose (an import run
for its side effect).
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _module_level(body):
    """The statements of ``body`` and of the ``if``/``try``/``with``
    blocks in it — everything that runs at import time, outside any
    function or class."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level(handler.body)


def _imports(tree, lines):
    """``{bound name: line}`` of the module-level imports in ``tree``,
    minus ``__future__`` and ``# noqa: F401`` lines."""
    bound = {}
    for node in _module_level(tree.body):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = alias.lineno
    return bound


def _annotation_names(annotation):
    """Names an annotation reads, including inside string forward refs."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _read(tree):
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            read |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            read |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            read |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return read


def unused_imports(path):
    """``[(line, name)]`` of ``path``'s module-level imports it never reads."""
    text = path.read_text()
    tree = ast.parse(text)
    read = _read(tree)
    return sorted((line, name)
                  for name, line in _imports(tree, text.splitlines()).items()
                  if name not in read)


def test_every_import_is_read():
    unused = {str(path.relative_to(SRC)): found
              for path in sorted(SRC.rglob("*.py"))
              if path.name != "__init__.py"
              and (found := unused_imports(path))}
    assert unused == {}
