"""Tooling guard: the program uses everything it defines.

Code that only tests reach looks like part of the system while no run ever
executes it.  This parses the package with ``ast`` and requires every
function, method, class and module constant defined in ``src/proactlab``
to be referenced by name somewhere in the package outside its own
definition.  Dunder methods are called by Python itself and are skipped.
"""

import ast
from collections import Counter
from pathlib import Path

import proactlab

# Kept on purpose although nothing in the package references them:
ALLOWED = {
    "__version__",   # the package version attribute, for importers
    "open_sealed",   # the inverse of seal(); the tests open sealed payloads with it
    "encode_block",  # the block encoder, kept as the inverse of decode_block
    "decode_block",  # the block decoder; fuzz-tested against hostile bytes
    "verify_chain",  # the chain check that runs will call (ROADMAP item 3)
}


def _definitions(tree):
    """(name, node) for each module-level function, class and constant and
    each method, with the node whose body is the definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not (
                            member.name.startswith("__") and member.name.endswith("__")):
                        yield member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(node):
    """How often each name is read, as a bare name or an attribute, in a tree."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def test_every_definition_is_referenced_by_the_package():
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(proactlab.__file__).parent.rglob("*.py"))]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    unreferenced = [name for tree in trees for name, node in _definitions(tree)
                    if name not in ALLOWED and everywhere[name] == _references(node)[name]]
    assert unreferenced == [], f"referenced only from outside the package: {unreferenced}"
