"""Tooling guard: the names ``perfbench/tracer.py`` hooks exist in the package.

The tracer finds what to count by name.  A name that no longer exists
matches nothing, and the figure it feeds reads 0 or stays unsplit without
any error.  This reads the tracer with ``ast``, without importing it, and
requires:

* each ``proactlab.<module>:<name>`` it names to resolve in the package;
* each ``NET_METHODS`` entry to be a ``World`` method;
* each packet kind it counts to be a key of ``agents.PACKET_SIZE``;
* the names that resolve to nothing to be exactly those of ``KNOWN_DEAD``.

The benchmark's files change only with a benchmark change, so a dead name
waits for one: ROADMAP item 1b.  The last check fails when a name dies and
when one is mended, so that ``KNOWN_DEAD`` follows the tracer.
"""

import ast
import importlib
import re
from pathlib import Path

from proactlab.sim.agents import PACKET_SIZE, World

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"
HOOK = re.compile(r"proactlab(\.\w+)*:[\w.]+")

KNOWN_DEAD = {
    "proactlab.txbuild:transaction_overhead":
        "deleted when the overhead moved to wire.tx_overhead; item 1b hooks that instead",
    "World._send_hop": "moved to netmodel.Network, whose methods the net layer traces; "
                       "item 1b cuts NET_METHODS to World.send",
    "World._send_on_link": "moved to netmodel.Network, whose methods the net layer traces; "
                           "item 1b cuts NET_METHODS to World.send",
    "World.broadcast_tgcs": "folded into World.post, which sizes each send; "
                            "item 1b cuts NET_METHODS to World.send",
}


def _tree():
    return ast.parse(TRACER.read_text(), filename=str(TRACER))


def _assigned(tree, name):
    (node,) = [n.value for n in tree.body if isinstance(n, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == name for t in n.targets)]
    return node


def _strings(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _resolves(path, within):
    try:
        for part in path.split("."):
            within = getattr(within, part)
    except AttributeError:
        return False
    return True


def _hooks(tree):
    return {text for text in _strings(tree) if HOOK.fullmatch(text)}


def _net_methods(tree):
    return _strings(_assigned(tree, "NET_METHODS"))


def _dead(tree):
    dead = set()
    for hook in _hooks(tree):
        module, name = hook.split(":")
        if not _resolves(name, importlib.import_module(module)):
            dead.add(hook)
    for method in _net_methods(tree):
        owner, name = method.split(".", 1)
        if owner != "World" or not _resolves(name, World):
            dead.add(method)
    return dead


def test_the_tracer_names_hooks_and_transport_methods():
    tree = _tree()
    assert len(_hooks(tree)) > 20 and "World.send" in _net_methods(tree)


def test_every_kind_the_tracer_counts_is_a_packet_kind():
    tree = _tree()
    (on_send,) = [n for n in ast.walk(tree)
                  if isinstance(n, ast.FunctionDef) and n.name == "on_send"]
    compared = {c.value for n in ast.walk(on_send)
                if isinstance(n, ast.Compare) and isinstance(n.left, ast.Name)
                and n.left.id == "kind"
                for c in n.comparators if isinstance(c, ast.Constant)}
    counted = _strings(_assigned(tree, "CONSENSUS_KINDS")) | compared
    assert {"block-copy", "tx", "nbr"} <= counted
    assert counted - set(PACKET_SIZE) == set()


def test_only_the_known_dead_names_resolve_to_nothing():
    dead = _dead(_tree())
    assert dead == set(KNOWN_DEAD), (
        f"newly dead: {sorted(dead - set(KNOWN_DEAD))}; "
        f"no longer dead, drop from KNOWN_DEAD: {sorted(set(KNOWN_DEAD) - dead)}")
