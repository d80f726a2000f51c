"""A deferred function body (``parse_module_deferred``) is parsed by the
first read of ``Function._blocks``.  That one hook suffices only while
``_blocks`` stays private to the two files that own it, and deferral is
only sound for text a digest vouches for — so both are pinned here by
walking the source."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def _sites(matches):
    """``{relative path}`` of the files with a node ``matches`` accepts."""
    return {str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if matches(node)}


def test_only_function_and_parser_touch_the_block_list():
    by_attribute = _sites(lambda node: isinstance(node, ast.Attribute)
                          and node.attr == "_blocks")
    assert by_attribute == {"ir/function.py", "ir/parser.py"}
    # nor by name, through getattr / __dict__ / vars()
    by_name = _sites(lambda node: isinstance(node, ast.Constant)
                     and node.value == "_blocks")
    assert by_name == {"ir/function.py"}


def test_every_body_accessor_of_function_reads_the_block_list():
    """``name``/``args``/``module``/``memo`` are header data; everything
    else a :class:`Function` offers about its body goes through
    ``_blocks`` and therefore parses a deferred one."""
    tree = ast.parse((SRC / "ir" / "function.py").read_text())
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Function"]
    readers = {method.name for method in cls.body
               if isinstance(method, ast.FunctionDef)
               and any(isinstance(node, ast.Attribute)
                       and node.attr == "_blocks"
                       for node in ast.walk(method))}
    assert readers >= {"blocks", "entry", "add_block", "_remove_block",
                       "block_by_name", "assign_names", "instructions",
                       "__repr__"}


def test_the_deferred_parser_has_one_production_caller():
    callers = _sites(lambda node: isinstance(node, ast.Name)
                     and node.id == "parse_module_deferred"
                     and isinstance(node.ctx, ast.Load))
    assert callers == {"compile_cache.py"}
