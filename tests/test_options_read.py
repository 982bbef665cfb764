"""Tooling guard: every scenario option is read by the program.

An option that is parsed, validated and stored but never read looks like a
setting while it changes nothing.  This parses the package with ``ast`` and
requires each ``ScenarioConfig`` field to be read as an attribute somewhere
outside the ``ScenarioConfig`` class body (its own validation does not
count as a use).
"""

import ast
import dataclasses
from pathlib import Path

import proactlab
from proactlab.sim.scenario import ScenarioConfig


class _AttributeReads(ast.NodeVisitor):
    def __init__(self) -> None:
        self.names = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name != ScenarioConfig.__name__:
            self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_scenario_option_is_read():
    reads = _AttributeReads()
    for path in sorted(Path(proactlab.__file__).parent.rglob("*.py")):
        reads.visit(ast.parse(path.read_text(), filename=str(path)))
    unread = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in reads.names]
    assert unread == [], f"options that nothing reads: {unread}"
