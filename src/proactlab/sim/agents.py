"""Simulation agents: control authorities (orderer duty), ground stations,
miner stations, and drones.

The consensus rules live in ``consensus``: a miner station runs a
``StationProtocol`` and an authority an ``OrdererProtocol``.  The agents
keep workload generation, assembly, message dispatch and the commit side
effects (ledger append, metrics, ``committed-block`` sends and drone
copies), and serve as their protocol's port: each callback runs
synchronously, in the order the protocol calls it.  A miner's draft is one
block target's batch and the time it was assembled; it becomes a block
once, at finalize, chained to the ledger's tip.

Agents interact by packets (``World.post`` sizes each by its kind's rule in
``PACKET_SIZE``, and ``World.send`` hands it to ``netmodel.Network``) with
three exceptions: the shared key registry stands in for key distribution, a
drone asks its peers' ledgers which of them holds a transaction
(``fetch_transaction`` reads ``ledger.has_tx``), and a station skips drones
whose battery is empty (``_command_drones`` reads ``energy.active``).
"""

from __future__ import annotations

import gc
import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from .. import consensus, crypto, ledger, txbuild, wire
from ..consensus import OrdererProtocol, OrderingState, StationProtocol, rotate_bo
from ..crypto import SUITE_S1
from ..ledger import DroneLedger, FullLedger, IncidentDraft, Verdict, check_access
from ..wire import AccessClass, Block, BlockTarget, Transaction

from .energy import EnergyCoefficients, EnergyState
from .engine import to_us
from .netmodel import Packet, next_leg

TxKey = Tuple[int, int]
Draft = Tuple[int, List[Transaction]]  # (assembled_us, one target's valid transactions)

# Fixed model inputs that no scenario varies.
COMMAND_PAYLOAD_BYTES = 100      # a station's or an authority's command
T4_PAYLOAD_BYTES = 1024          # a security-incident transaction, padded
DRAIN_LIMIT_S = 1800.0           # how long the engine runs past the workload
PACKET_OVERHEAD_BYTES = 16       # added to every packet's payload size
ASSEMBLY_INTERVAL_S = 0.1        # a miner's assembly tick
MAX_BLOCK_BYTES = 512 * 1024     # encoded transactions per block, at most
MAX_PENDING_BLOCKS = 4           # a miner drafts no more while this many wait


@dataclass(slots=True)
class ReportMeta:
    """Parsed form of a data report (the payload carries the same prefix)."""

    x: float
    y: float
    claims: Tuple[int, ...]
    attack_id: Optional[int] = None  # set on a fabricated report only


@dataclass(slots=True)
class FetchRequest:
    """A signed request for what is held under ``key``.  No transaction has
    ``tx_seq`` 0, so ``(target, 0)`` names the target drone's private data:
    a probe.  The reply is the transaction, or None."""

    requester: int
    key: TxKey
    signature: bytes
    attack_id: Optional[int] = None


def report_payload(drone_id: int, x: float, y: float, claims: Sequence[int],
                   size: int) -> Tuple[bytes, int]:
    """A ``size``-byte report as its text prefix and the count of the zero
    bytes that pad it."""
    prefix = f"rpt|{drone_id}|{x:.1f}|{y:.1f}|" \
             f"{','.join(str(c) for c in claims)}|".encode()
    return prefix[:size], max(0, size - len(prefix))


# Each packet kind's one size rule, before PACKET_OVERHEAD_BYTES.  A rule looks
# up ``wire.encoded_tx_size`` at each call, so a rebinding of it is seen.
PACKET_SIZE: Dict[str, Callable[[object], int]] = {
    **dict.fromkeys(("tx", "tx-forward"), lambda tx: wire.encoded_tx_size(tx)),
    **dict.fromkeys(("genesis", "block", "committed-block", "block-copy"),
                    lambda block: block.encoded_size),
    **dict.fromkeys(("nbr", "assign", "ack", "block-error", "void"),
                    lambda message: len(message.encode())),
    "bo-handoff": len,  # the orderer state travels encoded
    "fetch-req": lambda request: 96,
    "fetch-resp": lambda tx: 64 if tx is None else wire.encoded_tx_size(tx),
}


class World:
    """Shared wiring: engine, network, topology, registry, metrics, rng streams."""

    def __init__(self, cfg, sim, net, topo, registry, backend, metrics, rngs):
        self.cfg = cfg
        self.sim = sim
        self.net = net
        self.topo = topo
        self.registry = registry
        self.backend = backend
        self.metrics = metrics
        self.rngs = rngs
        self.agents: Dict[int, object] = net.receivers  # each takes its own packets
        self.malicious: Set[int] = set()
        self.uavn_suite: Dict[int, crypto.CryptoSuite] = {}
        self.gcs_to_tgcs: Dict[int, int] = {}  # each plain station's miner
        self.sim_end_us = to_us(cfg.sim_duration_s)
        self.n_tgcs = len(topo.tgcs_ids)
        self.roster: List[Tuple[int, str, str]] = []  # (node_id, role, real id)
        self.t_bo_us = to_us(cfg.t_bo_s)

    # --- role helpers ---

    def energy_for_drone(self) -> EnergyState:
        cfg = self.cfg
        coeffs = EnergyCoefficients(cfg.e_rx_uj_per_byte, cfg.p_flight_w,
                                    cfg.initial_energy_j)
        return EnergyState(coeffs, self.sim_end_us)

    def run(self) -> None:
        """Start every agent in ascending id order, then run the engine
        through the workload and the drain limit.  The cyclic collector is
        paused for the loop, after one collection that frees earlier worlds,
        so handlers must not create reference cycles: the loop would keep them."""
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for node_id in sorted(self.agents):
                self.agents[node_id].start()
            self.sim.run(horizon_us=self.sim_end_us + to_us(DRAIN_LIMIT_S))
        finally:
            if enabled:
                gc.enable()

    def every(self, first_s: float, interval_s: float, action: Callable[[], None],
              alive: Optional[Callable[[], bool]] = None) -> None:
        """Run ``action`` after ``first_s`` and then every ``interval_s``,
        until the workload closes or ``alive`` turns false.  No handler may
        refer to itself (see ``run``), so each tick schedules a new ``partial``."""
        self.sim.schedule_in(to_us(first_s), partial(self._tick, to_us(interval_s), action, alive))

    def _tick(self, interval_us: int, action, alive) -> None:
        if self.workload_open() and (alive is None or alive()):
            action()
            self.sim.schedule_in(interval_us, partial(self._tick, interval_us, action, alive))

    def workload_open(self) -> bool:
        return self.sim.now_us < self.sim_end_us

    def acting_bo(self) -> int:
        return rotate_bo(self.topo.ca_ids, self.sim.now_us, self.t_bo_us)

    def suite_for_uavn(self, uavn_id: int) -> crypto.CryptoSuite:
        if self.cfg.force_s1:
            return SUITE_S1
        return self.uavn_suite[uavn_id]

    # --- message transport ---

    def post(self, src: int, dsts: Sequence[int], kind: str, payload: object,
             meta: Optional[dict] = None, on_expired=None) -> None:
        """Send ``payload`` to each of ``dsts`` in turn, sized once by its kind's rule."""
        size = PACKET_SIZE[kind](payload)
        for dst in dsts:
            self.send(src, dst, kind, payload, size, meta=meta, on_expired=on_expired)

    def send(self, src: int, dst: int, kind: str, payload: object, size: int,
             meta: Optional[dict] = None, on_expired=None) -> None:
        total = size + PACKET_OVERHEAD_BYTES
        if self.sim.event_log is not None:
            self.sim.log(str(src), kind, f"to={dst} bytes={total}")
        self.net.transmit(Packet(kind, src, dst, payload, meta), total, on_expired)


class Agent:
    """What every agent has: the world, its node id, and the sequence
    number of the last transaction it created."""

    def __init__(self, world: World, node_id: int):
        self.w = world
        self.id = node_id
        self.seq = 0

    def new_tx(self, suite: crypto.CryptoSuite, access_class: AccessClass,
               owners: Sequence[int], target: BlockTarget,
               plaintext: bytes, zeros: int = 0) -> Transaction:
        """This node's next transaction, stamped now and counted as generated;
        its payload is ``plaintext`` followed by ``zeros`` zero bytes."""
        self.seq += 1
        now = self.w.sim.now_us
        tx = txbuild.build_transaction(
            creator=self.id, tx_seq=self.seq, created_at_us=now, suite=suite,
            access_class=access_class, owners=owners, block_target=target,
            plaintext=plaintext, registry=self.w.registry, backend=self.w.backend,
            zeros=zeros)
        self.w.metrics.tx_generated(tx.key(), now)
        return tx


class DroneAgent(Agent):
    def __init__(self, world: World, drone_id: int):
        super().__init__(world, drone_id)
        self.uavn_id = world.topo.drone_uavn[drone_id]
        self.gcs_id = world.topo.gcs_of_drone(drone_id)
        self.malicious = drone_id in world.malicious
        self.ledger = DroneLedger(drone_id, world.cfg.drone_capacity_bytes)
        self.energy = world.net.energy[drone_id] = world.energy_for_drone()
        self.sole_owner = (drone_id,)  # the owners of every command this drone receives
        # The keys of the transactions this drone owns, in the order they arrived.
        self.known_refs: Dict[TxKey, None] = {}

    @property
    def suite(self) -> crypto.CryptoSuite:
        return self.w.suite_for_uavn(self.uavn_id)

    def start(self) -> None:
        cfg, every = self.w.cfg, self.w.every
        rng = self.w.rngs["workload"]

        def alive() -> bool:
            return self.energy.active

        every(rng.uniform(0, cfg.t3_interval_s), cfg.t3_interval_s,
              self._send_report, alive)
        if self.malicious:
            every(self.w.rngs["attack"].uniform(0, cfg.attack_interval_s),
                  cfg.attack_interval_s, self._attack, alive)
        if cfg.fetch_interval_s > 0:
            every(rng.uniform(0, cfg.fetch_interval_s), cfg.fetch_interval_s,
                  self._fetch_known, alive)
        self._movement_tick()

    # --- movement ---

    def _movement_tick(self) -> None:
        if not self.w.workload_open() or not self.energy.active:
            return
        arrival = next_leg(self.w.topo, self.id, self.w.sim.now_us,
                           self.w.cfg.uav_speed_min, self.w.cfg.uav_speed_max,
                           self.w.rngs["move"])
        if arrival < self.w.sim_end_us:
            self.w.sim.schedule_at(arrival, self._movement_tick)

    # --- data reports ---

    def _send_report(self, attack_id: Optional[int] = None) -> None:
        """Report the sites seen from here; attack ``attack_id`` adds a
        fabricated site, 1,000,000 plus its id, above every real site's."""
        cfg = self.w.cfg
        x, y = self.w.topo.position(self.id, self.w.sim.now_us)
        claims = list(self.w.topo.truth.observed_from(x, y))
        if attack_id is not None:
            claims.append(1_000_000 + attack_id)
        prefix, zeros = report_payload(self.id, x, y, claims, cfg.data_tx_size)
        tx = self.new_tx(SUITE_S1, AccessClass.PUBLIC, (), BlockTarget.BLOCK_T2, prefix, zeros)
        self._send_own_tx(tx, SUITE_S1, {"report": ReportMeta(x, y, tuple(claims), attack_id)})

    def _send_own_tx(self, tx: Transaction, suite: crypto.CryptoSuite, meta: dict) -> None:
        """Pay the signing energy and send this drone's transaction to its
        station; it counts as dropped if the send expires."""
        self.energy.account_crypto(suite, wire.encoded_tx_size(tx), self.w.sim.now_us)
        self.w.post(self.id, (self.gcs_id,), "tx", tx, meta=meta,
                    on_expired=partial(self.w.metrics.tx_dropped, tx.key()))

    # --- attacks ---

    def _attack(self) -> None:
        rng = self.w.rngs["attack"]
        peers = self.w.topo.peers_of_drone(self.id)
        if rng.random() < 0.5 and peers:
            attack_id = self.w.metrics.attack_injected()
            target = rng.choice(peers)
            key = (target, 0)  # the target's private data
            request = FetchRequest(self.id, key,
                                   ledger.sign_access_request(self.id, key, self.w.registry,
                                                              self.w.backend),
                                   attack_id)
            self.w.post(self.id, (target,), "fetch-req", request)
        else:
            self._send_report(attack_id=self.w.metrics.attack_injected())

    # --- stored-chain workload ---

    def _fetch_known(self) -> None:
        if self.known_refs:
            self.fetch_transaction(self.w.rngs["fetch"].choice(list(self.known_refs)))

    def fetch_transaction(self, key: TxKey) -> None:
        """Serve locally when stored; otherwise ask an in-range neighbor that
        owns it, falling back to the ground station's full chain."""
        if self.ledger.has_tx(key):
            self.w.metrics.counters["fetch_local"] += 1
            return
        now = self.w.sim.now_us
        request = FetchRequest(self.id, key,
                               ledger.sign_access_request(self.id, key, self.w.registry,
                                                          self.w.backend))
        for peer in self.w.topo.peers_of_drone(self.id):
            agent = self.w.agents[peer]
            if agent.ledger.has_tx(key) and self.w.topo.in_range(self.id, peer, now):
                self.w.post(self.id, (peer,), "fetch-req", request)
                return
        self.w.post(self.id, (self.gcs_id,), "fetch-req", request)

    # --- packet handling ---

    def on_packet(self, packet: Packet) -> None:
        if packet.kind == "block-copy":
            self._store_copy(packet.payload)
        elif packet.kind == "fetch-req":
            self._serve_fetch(packet)
        elif packet.kind == "fetch-resp":
            if packet.payload is not None:
                counter = "fetch_gcs" if packet.src == self.gcs_id else "fetch_neighbor"
                self.w.metrics.counters[counter] += 1

    def _store_copy(self, block: Block) -> None:
        try:
            self.ledger.store_block(block)
        except ledger.LedgerError:
            return
        now = self.w.sim.now_us
        self.w.metrics.bto_sample(block.tx_overheads)
        for i in block.owner_index[self.id]:
            tx = block.transactions[i]
            self.known_refs[tx.key()] = None  # a key stored again keeps its place
            # an owner opens it: a public transaction has no owners
            suite = crypto.suite_for_class(tx.security_class)
            self.energy.account_crypto(suite, tx.payload_len(), now)

    def _serve_fetch(self, packet: Packet) -> None:
        """Reply with the transaction held under the requested key, or None
        when none is or the requester may not read it.  This drone's private
        data, ``(self.id, 0)``, only the drone itself and a CA may read.  An
        honest drone reports each denial to its station before it replies."""
        request: FetchRequest = packet.payload
        if request.key == (self.id, 0):
            tx, owners = None, self.sole_owner
        else:
            tx = self.ledger.find_transaction(request.key)
            owners = None if tx is None else tx.owners
        if owners is not None:
            decision = check_access(request.requester, request.signature, request.key,
                                    owners, self.w.registry, self.w.backend)
            if decision.verdict is Verdict.DENY:
                tx = None
                if not self.malicious:
                    self._emit_incident(decision.incident, request.attack_id)
        self.w.post(self.id, (packet.src,), "fetch-resp", tx)

    def _emit_incident(self, incident: IncidentDraft, attack_id: Optional[int]) -> None:
        """Security-incident transaction sealed to this drone's station."""
        body = incident.payload()
        tx = self.new_tx(self.suite, AccessClass.SINGLE, (self.gcs_id,), BlockTarget.BLOCK_T1,
                         body, max(0, T4_PAYLOAD_BYTES - len(body)))
        self._send_own_tx(tx, self.suite, {"incident_attack_id": attack_id})


@dataclass(slots=True)
class ReportRecord:
    created_us: int
    arrived_us: int
    x: float
    y: float
    claims: Tuple[int, ...]
    legit: bool


class GcsAgent(Agent):
    def __init__(self, world: World, gcs_id: int):
        super().__init__(world, gcs_id)
        self.ca_id = world.topo.gcs_ca[gcs_id]
        self.ledger = FullLedger(world.backend)
        self.recent_reports: Deque[ReportRecord] = deque()  # ascending arrived_us
        self._buffered: Dict[int, Block] = {}

    def start(self) -> None:
        cfg = self.w.cfg
        rng = self.w.rngs["workload"]
        self.w.every(rng.uniform(0, cfg.t1_interval_s), cfg.t1_interval_s,
                     self._command_drones)
        self.w.every(rng.uniform(0, cfg.t2_interval_s), cfg.t2_interval_s,
                     self._command_group)

    # --- workload generation ---

    def _command_drones(self) -> None:
        for drone in self.w.topo.drones_of_gcs(self.id):
            agent = self.w.agents[drone]
            if not agent.energy.active:
                continue
            self.intake_tx(self.new_tx(agent.suite, AccessClass.SINGLE, agent.sole_owner,
                                       BlockTarget.BLOCK_T1,
                                       bytes(COMMAND_PAYLOAD_BYTES)))

    def _command_group(self) -> None:
        cfg = self.w.cfg
        rng = self.w.rngs["groups"]
        # every station has at least one swarm (uavn_per_gcs >= 1)
        uavn = rng.choice([u for u in self.w.topo.uavns if u.gcs_id == self.id])
        size = min(rng.randint(cfg.group_min, cfg.group_max), len(uavn.drone_ids))
        if size >= 2:
            members = tuple(sorted(rng.sample(uavn.drone_ids, size)))
            self.w.registry.group_keygen(self.ca_id, members)
            suite = self.w.suite_for_uavn(uavn.uavn_id)
            self.intake_tx(self.new_tx(suite, AccessClass.GROUP, members,
                                       BlockTarget.BLOCK_T1,
                                       bytes(COMMAND_PAYLOAD_BYTES)))

    # --- transaction intake and detection ---

    def intake_tx(self, tx: Transaction) -> None:
        self.w.post(self.id, (self.w.gcs_to_tgcs[self.id],), "tx-forward", tx)

    def on_packet(self, packet: Packet) -> None:
        if packet.kind == "tx":
            self._on_transaction(packet)
        elif packet.kind in ("committed-block", "genesis"):
            self.absorb_committed(packet.payload)
        elif packet.kind == "fetch-req":
            self._serve_fetch(packet)

    def _on_transaction(self, packet: Packet) -> None:
        tx: Transaction = packet.payload
        meta = packet.meta or {}
        now = self.w.sim.now_us
        report: Optional[ReportMeta] = meta.get("report")
        if report is not None:
            legit = packet.src not in self.w.malicious
            record = ReportRecord(tx.created_at_us, now, report.x, report.y,
                                  report.claims, legit)
            self._prune_reports(now)
            self.recent_reports.append(record)
            if report.attack_id is not None and \
                    self._detect_false(report, tx.created_at_us):
                self.w.sim.log(str(self.id), "detect-false",
                               f"drone={packet.src} attack={report.attack_id}")
                self.w.metrics.attack_detected(report.attack_id)
                self.w.metrics.tx_rejected(tx.key())
                return
        attack_id = meta.get("incident_attack_id")
        if attack_id is not None:
            self.w.metrics.attack_detected(attack_id)
        self.intake_tx(tx)

    def _prune_reports(self, now: int) -> None:
        # keep a generous margin beyond the corroboration window; the scan
        # itself filters precisely on creation times
        horizon = now - 3 * to_us(self.w.cfg.w_detect_s)
        reports = self.recent_reports
        while reports and reports[0].arrived_us < horizon:
            reports.popleft()

    def _detect_false(self, report: ReportMeta, created_us: int) -> bool:
        """A fabricated claim is caught when a legitimate drone near the
        claimed location delivered a report (that necessarily lacks the
        fabricated site) generated within the corroboration window before
        the suspect one; only reports already delivered can witness."""
        reach = self.w.cfg.r_detect_m
        window = to_us(self.w.cfg.w_detect_s)
        for record in self.recent_reports:
            if not record.legit:
                continue
            if not 0 <= created_us - record.created_us <= window:
                continue
            if math.hypot(record.x - report.x, record.y - report.y) <= reach:
                return True
        return False

    def _serve_fetch(self, packet: Packet) -> None:
        """Stations answer from the full chain and raise no incident on a denial."""
        request: FetchRequest = packet.payload
        tx = self.ledger.find_transaction(request.key)
        if tx is not None and check_access(
                request.requester, request.signature, request.key, tx.owners,
                self.w.registry, self.w.backend).verdict is Verdict.DENY:
            tx = None
        self.w.post(self.id, (packet.src,), "fetch-resp", tx)

    # --- chain intake ---

    def absorb_committed(self, block: Block) -> None:
        if block.block_id < self.ledger.next_block_id:
            return
        self._buffered[block.block_id] = block
        while self.ledger.next_block_id in self._buffered:
            ready = self._buffered.pop(self.ledger.next_block_id)
            self.ledger.append_block(ready)
            self.distribute_copies(ready)

    def distribute_copies(self, block: Block) -> None:
        """Send a drone-class block to every owner drone under this station,
        exactly once (each drone belongs to exactly one station)."""
        if block.header.block_type is not BlockTarget.BLOCK_T1:
            return
        owners = block.owner_index
        self.w.post(self.id, [d for d in self.w.topo.drones_of_gcs(self.id) if d in owners],
                    "block-copy", block)


class ProtocolAgent(Agent):
    """An agent with a consensus role: the port methods both roles use and
    the one arm-once timer, keyed by (timer kind, block id)."""

    def __init__(self, world: World, node_id: int):
        super().__init__(world, node_id)
        self._armed: Set[Tuple[str, int]] = set()

    def arm(self, kind: str, delay_s: float, block_id: int = 0) -> None:
        key = (kind, block_id)
        if key in self._armed:
            return
        self._armed.add(key)
        self.w.sim.schedule_in(to_us(delay_s), partial(self._fire, kind, block_id))

    def _fire(self, kind: str, block_id: int) -> None:
        self._armed.discard((kind, block_id))
        self.on_timer(kind, block_id)

    def to_orderer(self, kind: str, message) -> None:
        self.w.post(self.id, (self.w.acting_bo(),), kind, message)

    def broadcast(self, kind: str, message, to_orderer: bool = False) -> None:
        dsts = [tgcs for tgcs in self.w.topo.tgcs_ids if tgcs != self.id]
        if to_orderer:
            dsts.append(self.w.acting_bo())
        self.w.post(self.id, dsts, kind, message)


class TgcsAgent(ProtocolAgent, GcsAgent):
    """A trusted station: everything a station does, plus mining duty."""

    def __init__(self, world: World, gcs_id: int):
        super().__init__(world, gcs_id)
        self.intake: Dict[TxKey, Transaction] = {}  # in arrival order
        self.station = StationProtocol(gcs_id, world.n_tgcs, self)

    def start(self) -> None:
        super().start()
        self.arm("assembly", self.w.rngs["workload"].uniform(0, ASSEMBLY_INTERVAL_S))

    def miner_intake(self, tx: Transaction) -> None:
        key = tx.key()
        if key in self.intake or self.ledger.has_tx(key):
            return
        self.intake[key] = tx
        self.arm("assembly", ASSEMBLY_INTERVAL_S)

    intake_tx = miner_intake  # a miner takes its own transactions directly

    def on_packet(self, packet: Packet) -> None:
        kind, station = packet.kind, self.station
        if kind == "tx-forward":
            self.miner_intake(packet.payload)
        elif kind == "assign":
            station.on_assign(packet.payload)
        elif kind == "block":
            station.on_block(packet.payload)
        elif kind == "ack":
            station.on_vote(packet.payload, is_ack=True)
        elif kind == "block-error":
            station.on_vote(packet.payload, is_ack=False)
        elif kind == "void":
            station.on_void(packet.payload)
        else:
            super().on_packet(packet)

    def absorb_committed(self, block: Block) -> None:
        super().absorb_committed(block)  # the genesis block
        self.station.next_id = self.ledger.next_block_id

    # --- assembly ---

    def on_timer(self, kind: str, block_id: int) -> None:
        """The assembly tick, this agent's only timer."""
        if self.intake and self.station.backlog < MAX_PENDING_BLOCKS:
            now = self.w.sim.now_us
            drafts: List[Draft] = []
            for batch in self._take_batch():
                valid = [tx for tx in batch if self._tx_valid(tx)]
                if valid:
                    drafts.append((now, valid))
            if drafts:
                self.station.submit(drafts, now)
        if self.intake or self.w.workload_open():
            self.arm("assembly", ASSEMBLY_INTERVAL_S)

    def _take_batch(self) -> List[List[Transaction]]:
        """The one partition rule: the oldest intake, one batch per block
        target (T1 first), each within one block's count and byte budget;
        the rest stays in the intake, oldest first."""
        max_txs = self.w.cfg.max_txs_per_block
        batches: Dict[BlockTarget, List[Transaction]] = {BlockTarget.BLOCK_T1: [],
                                                         BlockTarget.BLOCK_T2: []}
        sizes = dict.fromkeys(batches, 0)
        overflow: Dict[TxKey, Transaction] = {}
        for tx in sorted(self.intake.values(),
                         key=lambda t: (t.created_at_us, t.creator, t.tx_seq)):
            size = wire.encoded_tx_size(tx)
            target = tx.block_target
            batch = batches[target]
            if len(batch) < max_txs and sizes[target] + size <= MAX_BLOCK_BYTES:
                sizes[target] += size
                batch.append(tx)
            else:
                overflow[tx.key()] = tx
        self.intake = overflow
        return list(batches.values())

    def _tx_valid(self, tx: Transaction) -> bool:
        if self.ledger.has_tx(tx.key()):
            return False
        if not txbuild.verify_transaction(tx, self.w.registry, self.w.backend):
            self.w.metrics.tx_rejected(tx.key())
            return False
        return True

    # --- what the station protocol asks of this agent ---

    def validate(self, block_id: int, block: Block) -> Optional[int]:
        code = ledger.validate_block(block_id, self.ledger.tip_digest, block,
                                     self.w.registry, self.w.backend,
                                     seen_tx=self.ledger.has_tx)
        return None if code is None else consensus.ERROR_CODES[code]

    def finalize(self, draft: Draft, block_id: int) -> Block:
        # the station finalizes only its next id, so the ledger's tip is the
        # predecessor; the validators' validate_block checks the link
        assembled_us, txs = draft
        return wire.build_block(block_id, txs[0].block_target, self.id, assembled_us,
                                self.ledger.tip_digest, txs, self.w.backend)

    def commit(self, block_id: int, block: Block) -> None:
        now = self.w.sim.now_us
        self.w.sim.log(str(self.id), "commit",
                       f"block={block_id} miner={block.header.miner} "
                       f"txs={len(block.transactions)}")
        self.ledger.append_block(block)
        if block.header.miner == self.id:
            self.w.metrics.block_committed()
            for tx in block.transactions:
                self.w.metrics.tx_committed(tx.key(), wire.commit_record(tx, self.w.backend), now)
            self.w.post(self.id, [g for g in self.w.topo.gcs_ids
                                  if g not in self.w.topo.tgcs_ids], "committed-block", block)
        self.distribute_copies(block)

    def reclaim(self, draft: Draft) -> None:
        self.arm("assembly", 0.0)
        for tx in draft[1]:
            self.miner_intake(tx)


class CaAgent(ProtocolAgent):
    def __init__(self, world: World, ca_id: int):
        super().__init__(world, ca_id)
        cfg = world.cfg
        self.orderer = OrdererProtocol(world.n_tgcs, self, cfg.t_bis_s, cfg.t_blk_s)

    @property
    def my_gcs_ids(self) -> List[int]:
        return [g for g in self.w.topo.gcs_ids if self.w.topo.gcs_ca[g] == self.id]

    def start(self) -> None:
        cfg, sim = self.w.cfg, self.w.sim
        self.w.every(self.w.rngs["workload"].uniform(0, cfg.t5_interval_s),
                     cfg.t5_interval_s, self._command_stations)
        if self.w.acting_bo() == self.id:
            self._emit_genesis()
            self.orderer.open(OrderingState(next_block_id=1,
                                            sequential=cfg.mode == "sequential"))
        if len(self.w.topo.ca_ids) > 1:
            sim.schedule_at(self.w.t_bo_us, self._rotation_tick)

    # --- genesis ---

    def _emit_genesis(self) -> None:
        txs = []
        for node_id, role, real in self.w.roster:
            public = self.w.registry.public_key(node_id)
            payload = txbuild.registration_payload(node_id, role, real, public)
            self.seq += 1  # genesis transactions are not counted as generated
            txs.append(txbuild.build_transaction(
                creator=self.id, tx_seq=self.seq, created_at_us=0,
                suite=SUITE_S1, access_class=AccessClass.PUBLIC, owners=(),
                block_target=BlockTarget.BLOCK_T2, plaintext=payload,
                registry=self.w.registry, backend=self.w.backend))
        genesis = wire.build_block(0, BlockTarget.BLOCK_T2, self.id, 0,
                                   wire.ZERO_HASH, txs, self.w.backend)
        self.w.post(self.id, self.w.topo.gcs_ids, "genesis", genesis)

    # --- authority commands ---

    def _command_stations(self) -> None:
        for gcs in self.my_gcs_ids:
            tx = self.new_tx(SUITE_S1, AccessClass.SINGLE, (gcs,), BlockTarget.BLOCK_T2,
                             bytes(COMMAND_PAYLOAD_BYTES))
            self.w.post(self.id, (gcs,), "tx", tx)

    # --- orderer duty ---

    def on_packet(self, packet: Packet) -> None:
        kind, orderer = packet.kind, self.orderer
        if kind == "nbr":
            orderer.on_nbr(packet.payload, acting=self.w.acting_bo() == self.id)
        elif kind == "ack":
            orderer.on_vote(packet.payload, is_ack=True)
        elif kind == "block-error":
            orderer.on_vote(packet.payload, is_ack=False)
        elif kind == "bo-handoff":
            orderer.open(OrderingState.decode(packet.payload))

    def on_timer(self, kind: str, block_id: int) -> None:
        self.orderer.on_timer(kind, block_id)

    def void(self, message: consensus.VoidMessage) -> None:
        self.w.metrics.block_voided()
        self.broadcast("void", message)

    def workload_open(self) -> bool:
        return self.w.workload_open()

    def _rotation_tick(self) -> None:
        acting = self.w.acting_bo()
        if self.orderer.ordering is not None and acting != self.id:
            self.w.post(self.id, (acting,), "bo-handoff", self.orderer.close().encode())
        if self.w.workload_open():
            t_bo_us = self.w.t_bo_us
            self.w.sim.schedule_at((self.w.sim.now_us // t_bo_us + 1) * t_bo_us,
                                   self._rotation_tick)
