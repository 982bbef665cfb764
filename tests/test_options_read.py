"""Tooling guard: every scenario option is read by the program and set by
something other than its default.

An option that is parsed, validated and stored but never read looks like a
setting while it changes nothing.  This parses the package with ``ast`` and
requires each ``ScenarioConfig`` field to be read as an attribute somewhere
outside the ``ScenarioConfig`` class body (its own validation does not
count as a use).

An option that no scenario file and no test sets runs at one value only,
so it is a constant with a name that suggests otherwise.  Each field must be
an INI key of a shipped or benchmark scenario, or a keyword argument or a
string dict key in a test's source.
"""

import ast
import configparser
import dataclasses
from pathlib import Path

import proactlab
from proactlab.sim.scenario import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent


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


def _names_set():
    """INI keys of the scenario files, and keyword arguments and string dict
    keys of the tests."""
    names = set()
    for path in sorted([*ROOT.glob("configs/*.ini"), *ROOT.glob("perfbench/workloads/*.ini")]):
        parser = configparser.ConfigParser(default_section="")
        parser.read(path)
        names.update(key for section in parser.sections() for key in parser[section])
    for path in sorted(ROOT.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword):
                names.add(node.arg)
            elif isinstance(node, ast.Dict):
                names.update(key.value for key in node.keys
                             if isinstance(key, ast.Constant) and isinstance(key.value, str))
    return names


def test_every_scenario_option_is_set_by_a_scenario_or_a_test():
    names = _names_set()
    unset = [f.name for f in dataclasses.fields(ScenarioConfig) if f.name not in names]
    assert unset == [], f"options that no scenario file or test sets: {unset}"
