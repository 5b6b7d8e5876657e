"""Source checks on the package: no nested function refers to itself.

A nested function that calls itself holds its own cell, so every call of
the enclosing function leaves a reference cycle for the cyclic garbage
collector; searches are written as loops instead.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "floerkit").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_referencing_nested_functions(source):
    """(name, line) of each function defined inside another function whose
    body names it."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, FUNCTIONS) and any(
                isinstance(node, ast.Name) and node.id == inner.name
                for node in ast.walk(inner)
            ):
                found.add((inner.name, inner.lineno))
    return sorted(found)


def test_the_check_finds_a_self_referencing_closure():
    source = "def search(n):\n    def rec(i):\n        return rec(i - 1) if i else 0\n    return rec(n)\n"
    assert self_referencing_nested_functions(source) == [("rec", 2)]
    assert self_referencing_nested_functions("def rec(i):\n    return rec(i)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_referencing_nested_functions(path.read_text()) == []
