"""Tooling guard: runs reach every statement of the agents, the consensus
protocol and the ledgers.

A statement that no run executes can break without any test noticing, and
one that no configuration can reach should not exist.  This runs a fixed set
of small scenarios and the loss-free model check of ``test_consensus.py``
under a line collector (``sys.settrace``; the stdlib only), then fails on
any statement of ``sim/agents.py``, ``consensus.py`` or ``ledger.py`` that
none of them reached.  Every ``raise`` is exempt.  So is each statement in
``ALLOWED``, keyed by file, function and statement text (not by line
number), with the reason no run reaches it.

After each run, outside the collector, the guard checks what the run is
there for: that the path it stands for ran, that every transaction
settled, and that every station holds the same verified chain.
"""

import ast
import dataclasses
import io
import sys
from pathlib import Path

from hypothesis.stateful import run_state_machine_as_test

import proactlab
from proactlab import consensus, ledger
from proactlab.crypto import SecurityClass
from proactlab.sim import agents, default_config
from proactlab.sim.scenario import build_world

from test_consensus import _SEARCH, ProtocolModel
from test_sim import (
    FORGER,
    TINY,
    _check_settled_and_agreed,
    _finite_queues,
    _forged_signatures,
    _muted_miner,
    _rejected_miner,
    _rotating_orderers,
)

MODULES = (agents, consensus, ledger)

_OWNER_ASKS = ("a keyed request comes only from fetch_transaction, for a key from the "
               "requester's own block copies, signed by the requester: an owner")
_ONCE = "a link delivers each packet once, and each block or copy is sent once"
_HANDOFF = ("a request reaches the next authority before the state only if it leaves in "
            "the handoff's microsecond; the handoff model check reaches it (ROADMAP item 3b)")
_LATE_VOTES = ("a rejection quorum forms only on an outstanding id: the votes a void leaves "
               "behind are fewer than a quorum, and a void timer checks awaits() first")
_CODEC = "runs hand messages over as objects; the tests check and fuzz the decoders"
_HOSTILE = ("a hostile block: every simulated miner builds valid blocks (ROADMAP item 5 "
            "adds a faulty one); tests/test_ledger.py checks each issue")

# (file, function, statement text) -> why no run reaches it.  The text is
# the statement's first line as ast.unparse writes it, after its block's header.
ALLOWED = {
    ("sim/agents.py", "answer_fetch",
     "return (FetchResponse(tx.key(), None, 'denied'), 64, decision.incident)"): _OWNER_ASKS,
    ("sim/agents.py", "GcsAgent._detect_false", "if site_id in record.claims: continue"):
        "a fabricated site id is 1,000,000 plus the attack id, above every real site's",
    ("sim/agents.py", "GcsAgent.absorb_committed",
     "if block.block_id < self.ledger.next_block_id: return"): _ONCE,
    ("sim/agents.py", "TgcsAgent.miner_intake",
     "if key in self._intake_keys or self.ledger.has_tx(key): return"):
        _ONCE + "; a voided draft comes back only if it did not commit",
    ("sim/agents.py", "TgcsAgent._tx_valid", "if self.ledger.has_tx(tx.key()): return False"):
        "intake admits no key on the chain, and only this miner commits what it holds",
    ("consensus.py", "_Packed.decode",
     "return cls(*_Reader(data, ConsensusError).last(cls._FORMAT))"): _CODEC,
    ("consensus.py", "AssignMessage.decode",
     "return cls(tuple(_decode_assignments(_Reader(data, ConsensusError))))"): _CODEC,
    ("consensus.py", "OrderingState.apply_void",
     "if block_id <= self.committed_watermark or block_id not in self.assignments: "
     "return False"): _LATE_VOTES,
    ("consensus.py", "OrdererProtocol._void",
     "if not self.ordering.apply_void(block_id): return"): _LATE_VOTES,
    ("consensus.py", "StationProtocol.on_block", "if block.block_id < self.next_id: return"):
        "a block arrives for an id committed here only if it crossed a void of its id; "
        "some processes' model checks reach it, as hypothesis's example order varies",
    ("consensus.py", "StationProtocol.on_void", "if block_id < self.next_id: return"):
        "a station gets a void for an id it committed only through ROADMAP item 3's bugs",
    ("consensus.py", "OrdererProtocol.open",
     "for nbr in self._stash: ordering.receive_nbr(nbr)"): _HANDOFF,
    ("consensus.py", "OrdererProtocol.on_nbr", "if acting: self._stash.append(nbr)"): _HANDOFF,
    ("ledger.py", "FullLedger.find_transaction", "if block_id is None: return None"):
        "a drone asks its station only for keys from the copies the station sent it",
    ("ledger.py", "check_access",
     "if not request_is_genuine(requester, tx.creator, tx.tx_seq, request_signature, "
     "registry, backend): return AccessDecision(Verdict.DENY, IncidentDraft(requester, "
     "'forgery', tx.key()))"): _OWNER_ASKS,
    ("ledger.py", "check_access",
     "return AccessDecision(Verdict.DENY, IncidentDraft(requester, 'unauthorized-access', "
     "tx.key()))"): _OWNER_ASKS,
    ("ledger.py", "DroneLedger.store_block",
     "if index < len(self.blocks) and self.blocks[index].block_id == block.block_id: "
     "return []"): _ONCE,
    **{("ledger.py", "FullLedger.verify_chain", text):
       "runs do not check their chains yet (ROADMAP item 5); this guard checks each run's"
       for text in (
        "digest = wire.ZERO_HASH",
        "for expected_id, block in enumerate(self.blocks):",
        "for expected_id, block in enumerate(self.blocks): "
        "if block.block_id != expected_id:",
        "for expected_id, block in enumerate(self.blocks): "
        "if block.header.prev_hash != digest:",
        "for expected_id, block in enumerate(self.blocks): if block.transactions and "
        "wire.body_root(block.transactions, self._backend) != block.header.merkle_root:",
        "for expected_id, block in enumerate(self.blocks): "
        "digest = wire.block_hash(block.header, self._backend)",
    )},
    **{("ledger.py", "validate_block", text): _HOSTILE for text in (
        "if header.block_id != expected_id: issues.append(ValidationIssue('block_id', "
        "f'got {header.block_id}, expected {expected_id}'))",
        "if header.prev_hash != tip_digest: issues.append(ValidationIssue('prev_hash', "
        "'does not match the tip digest'))",
        "if wire.body_root(block.transactions, backend) != header.merkle_root: "
        "issues.append(ValidationIssue('merkle_root', 'does not recompute'))",
        "except WireError as exc: issues.append(ValidationIssue('merkle_root', "
        "f'body unencodable: {exc}'))",
        "if not registry.has_node(tx.creator): issues.append(ValidationIssue('signature', "
        "f'tx {i}: unknown creator {tx.creator}'))",
        "if not txbuild.verify_transaction(tx, registry, backend): "
        "issues.append(ValidationIssue('signature', f'tx {i}: bad signature'))",
        "if differing is None: issues.append(ValidationIssue('ta_fidelity', "
        "'entry count mismatch'))",
        "except WireError as exc: issues.append(ValidationIssue('access_enc', "
        "f'tx {i}: {exc}'))",
        "for i in wire.type_mismatches(header, block.transactions): "
        "issues.append(ValidationIssue('block_type', "
        "f'tx {i} targets {block.transactions[i].block_target.name}'))",
        "if key in keys_in_block or (seen_tx is not None and seen_tx(key)): "
        "issues.append(ValidationIssue('duplicate_tx', f'tx {i}: {key} already on chain'))",
    )},
}


# --- the runs ---


def _sent(log, kind):
    """(sender, receiver) of every send of ``kind`` in an event log."""
    out = []
    for line in log.getvalue().splitlines():
        _, sender, logged, detail = line.split("\t")
        if logged == kind:
            out.append((int(sender), int(detail.split()[0].removeprefix("to="))))
    return out


def _attacks_and_probes(monkeypatch):
    # in a 250 m disc a probe takes one mesh hop, several or finds no route;
    # a short detection window lets stations skip and prune old reports
    return default_config(**{**TINY, "disc_radius_m": 250.0, "malicious_fraction": 0.5,
                             "attack_interval_s": 0.25, "w_detect_s": 0.5,
                             "sim_duration_s": 3.0, "seed": 2})


def _probes_answered(world, log):
    counters = world.metrics.counters
    assert counters["attacks_detected"] > 0 and world.net.packets_dropped > 0
    drones = world.topo.drone_uavn
    assert any(src in drones and dst in drones for src, dst in _sent(log, "fetch-resp"))


def _sequential(monkeypatch):
    # two transactions a block: a miner's intake overflows into the next batch
    return default_config(**{**TINY, "mode": "sequential", "max_txs_per_block": 2,
                             "sim_duration_s": 2.0})


def _small_blocks(world, log):
    chain = world.agents[world.topo.gcs_ids[0]].ledger.blocks
    assert len(chain) > 1 and all(len(block.transactions) <= 2 for block in chain[1:])


def _voided(world, log):
    assert world.metrics.counters["blocks_voided"] >= 1


def _fast_rotation(monkeypatch):
    # 97 ms turns: some requests reach an authority just after its turn ended
    return dataclasses.replace(_rotating_orderers(monkeypatch), t_bo_s=0.097)


def _handed_over(world, log):
    assert len(_sent(log, "bo-handoff")) > 10
    assert any(sender in world.topo.ca_ids for sender, _ in _sent(log, "nbr"))


def _lossy_queues(monkeypatch):
    # a report takes half a second on the cell and the queue holds one
    return dataclasses.replace(_finite_queues(monkeypatch), wireless_bw_bps=40_000.0,
                               wireless_queue_bytes=21_000)


def _expired(world, log):
    assert world.metrics.counters["txs_dropped_expired"] > 0


def _drones_run_dry(monkeypatch):
    # receiving is dear and drones fly fast: batteries empty mid-leg, and
    # a relay can empty while a probe crosses it
    return default_config(**{**TINY, "disc_radius_m": 250.0, "malicious_fraction": 0.5,
                             "attack_interval_s": 0.05, "initial_energy_j": 500.0,
                             "e_rx_uj_per_byte": 3000.0, "uav_speed_min": 100.0,
                             "uav_speed_max": 150.0, "sim_duration_s": 3.0, "seed": 1})


def _ran_dry(world, log):
    assert not all(world.agents[d].energy.active for d in world.topo.drone_uavn)


def _force_s1(monkeypatch):
    # slow wired links: a miner gets its next assignment before its block commits
    return default_config(**{**TINY, "force_s1": True, "wired_latency_s": 0.02,
                             "sim_duration_s": 2.0})


def _all_s1(world, log):
    chain = world.agents[world.topo.gcs_ids[0]].ledger.blocks
    classes = {tx.security_class for block in chain for tx in block.transactions}
    assert classes == {SecurityClass.S1}


def _evictions_and_fetches(monkeypatch):
    # a drone holds a block or two and refuses a larger one; group commands
    # put its transactions in its neighbours' ledgers too
    return default_config(**{**TINY, "disc_radius_m": 100.0, "uav_per_uavn": 8,
                             "drone_capacity_bytes": 2000, "fetch_interval_s": 0.05,
                             "t2_interval_s": 0.2, "group_min": 2, "group_max": 8,
                             "sim_duration_s": 3.0, "seed": 2})


def _fetched_everywhere(world, log):
    counters = world.metrics.counters
    assert counters["fetch_local"] and counters["fetch_neighbor"] and counters["fetch_gcs"]
    for drone in world.topo.drone_uavn:
        held = world.agents[drone].ledger
        assert held.current_bytes <= held.capacity_bytes


def _rejected(world, log):
    assert world.metrics.counters["blocks_voided"] >= 1
    assert _sent(log, "block-error")


def _forgeries_dropped(world, log):
    assert world.metrics.counters["txs_rejected_invalid"] == world.agents[FORGER].seq > 0


RUNS = {
    "attacks-and-probes": (_attacks_and_probes, _probes_answered),
    "sequential": (_sequential, _small_blocks),
    "muted-miner": (_muted_miner, _voided),
    "rotating-orderers": (_fast_rotation, _handed_over),
    "finite-queues": (_lossy_queues, _expired),
    "drones-run-dry": (_drones_run_dry, _ran_dry),
    "force-s1": (_force_s1, _all_s1),
    "evictions-and-fetches": (_evictions_and_fetches, _fetched_everywhere),
    "rejected-miner": (_rejected_miner, _rejected),
    "forged-signatures": (_forged_signatures, _forgeries_dropped),
}


# --- statements and the line collector ---


def _own_lines(node):
    """The lines of a statement's own code: the header of a compound
    statement, all of a simple one."""
    body = getattr(node, "body", None)
    last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(node.lineno, last + 1)


def _code(function):
    """A function's statements; a docstring compiles to no code."""
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        return body[1:]
    return body


def _head(node):
    """A statement's first line as ``ast.unparse`` writes it, without
    comments: all of a simple statement, the header of a compound one."""
    return ast.unparse(node).splitlines()[0]


def statements(path):
    """(function qualname, lines, text) of every statement that runs inside
    a function, except a ``raise``.  The text is the statement's first line
    after the header of the block it sits in."""
    found = []

    def declared(body, prefix):  # a module or class body runs at import
        for node in body:
            if isinstance(node, ast.ClassDef):
                declared(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                executed(_code(node), f"{prefix}{node.name}", "")

    def executed(body, qualname, within):
        for node in body:
            if not isinstance(node, (ast.Raise, ast.Try)):  # a try runs its body
                found.append((qualname, _own_lines(node), within + _head(node)))
            if isinstance(node, ast.FunctionDef):
                executed(_code(node), f"{qualname}.{node.name}", "")
                continue
            for field in ("body", "orelse", "finalbody"):
                executed(getattr(node, field, []), qualname, f"{_head(node)} ")
            for handler in getattr(node, "handlers", []):
                executed(handler.body, qualname, f"{_head(handler)} ")

    declared(ast.parse(path.read_text()).body, "")
    return found


class LineCollector:
    """The lines executed in the given files while it is active; frames of
    any other file are not traced."""

    def __init__(self, paths):
        self.hits = {str(path): set() for path in paths}
        self._tracers = {path: self._tracer(lines) for path, lines in self.hits.items()}

    @staticmethod
    def _tracer(lines):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace
        return trace

    def _call(self, frame, event, arg):
        return self._tracers.get(frame.f_code.co_filename)

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._previous)


def keyed_statements():
    """(source path, (file, function, text), lines) of every statement of
    ``MODULES``."""
    package = Path(proactlab.__file__).parent
    for module in MODULES:
        path = Path(module.__file__)
        name = path.relative_to(package).as_posix()
        for qualname, own, text in statements(path):
            yield module.__file__, (name, qualname, text), own


def test_runs_reach_every_statement(monkeypatch):
    collector = LineCollector([module.__file__ for module in MODULES])
    for make_config, check in RUNS.values():
        with monkeypatch.context() as patched:
            log = io.StringIO()
            with collector:  # the checks below are not runs
                world = build_world(make_config(patched), log)
                world.run()
            check(world, log)
            _check_settled_and_agreed(world)
    with collector:
        run_state_machine_as_test(ProtocolModel, settings=_SEARCH)
    keyed = list(keyed_statements())
    missed = [f"{key[0]}:{own[0]} {key[1]}: {key[2]}" for path, key, own in keyed
              if collector.hits[path].isdisjoint(own) and key not in ALLOWED]
    assert missed == [], "statements no run reaches:\n" + "\n".join(missed)
    gone = set(ALLOWED) - {key for _, key, _ in keyed}
    assert not gone, f"allowed statements that no longer exist: {sorted(gone)}"
