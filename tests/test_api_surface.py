"""Every function, class and method under src/looseramsey/ is used by the
package itself: a definition that only the tests call does not belong in
src/.  The exported names of looseramsey.__all__ are exempt, and so are the
PairKind targets that the benchmark reads."""

import ast
from pathlib import Path

import looseramsey

SRC = Path(looseramsey.__file__).resolve().parent
EXEMPT = set(looseramsey.__all__) | {"PairKind.short_target", "PairKind.long_target"}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and of
    each non-dunder method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{node.name}.{item.name}", item


def _references(node, inside=frozenset()):
    """(name, ids of the enclosing definitions) of each Name and attribute
    read under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def unreferenced(trees):
    """The qualified names defined in trees that no code of trees refers to
    outside their own definition, exempt names aside."""
    refs = {}
    for tree in trees:
        for name, inside in _references(tree):
            refs.setdefault(name, []).append(inside)
    return [
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if qualname not in EXEMPT and all(id(node) in inside for inside in refs.get(node.name, []))
    ]


def _parse_src():
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def test_every_definition_is_used_in_src():
    assert unreferenced(_parse_src()) == []


def test_a_test_only_helper_is_flagged():
    helper = ast.parse("def all_triples(n):\n    return [t for t in all_triples(n - 1)]\n")
    assert unreferenced(_parse_src() + [helper]) == ["all_triples"]


def test_dunders_are_exempt_and_unused_methods_flagged():
    extra = ast.parse("class Unused:\n    def __len__(self):\n        return 0\n"
                      "    def never_called(self):\n        return 0\n")
    assert unreferenced(_parse_src() + [extra]) == ["Unused", "Unused.never_called"]
