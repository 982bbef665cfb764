"""Simulation agents: control authorities (orderer duty), ground stations,
miner stations, and drones.

The consensus rules live in ``consensus``: a miner station runs a
``StationProtocol`` and an authority an ``OrdererProtocol``.  The agents
keep workload generation, assembly batching, message dispatch and the
commit side effects (ledger append, metrics, ``committed-block`` sends and
drone copies), and serve as their protocol's port: each callback runs
synchronously, in the order the protocol calls it.

Agents interact by message passing over the network model, with three
exceptions: the shared key registry stands in for key distribution, a drone
asks its peers' ledgers which of them holds a transaction
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
from ..consensus import (
    OrdererProtocol,
    OrderingState,
    StationProtocol,
    miner_assemble,
    miner_finalize,
    rotate_bo,
)
from ..crypto import SUITE_S1
from ..ledger import DroneLedger, FullLedger, IncidentDraft, Verdict, check_access
from ..wire import AccessClass, Block, BlockTarget, Transaction

from .energy import EnergyCoefficients, EnergyState
from .engine import to_us
from .netmodel import Link, next_leg

TxKey = Tuple[int, int]


@dataclass(slots=True)
class ReportMeta:
    """Parsed form of a data report (the payload carries the same prefix)."""

    x: float
    y: float
    claims: Tuple[int, ...]
    fabricated: Optional[Tuple[int, float, float]] = None  # site_id, x, y
    attack_id: Optional[int] = None


@dataclass(slots=True)
class FetchRequest:
    requester: int
    key: Optional[TxKey]          # None = a probe for the target's private data
    signature: bytes
    attack_id: Optional[int] = None


@dataclass(slots=True)
class FetchResponse:
    key: Optional[TxKey]
    tx: Optional[Transaction]
    status: str                   # ok | denied | not-found


@dataclass(slots=True)
class Packet:
    kind: str
    src: int
    dst: int
    payload: object
    meta: Optional[dict] = None


def report_payload(drone_id: int, x: float, y: float, claims: Sequence[int],
                   size: int) -> Tuple[bytes, int]:
    """A ``size``-byte report as its text prefix and the count of the zero
    bytes that pad it."""
    prefix = f"rpt|{drone_id}|{x:.1f}|{y:.1f}|" \
             f"{','.join(str(c) for c in claims)}|".encode()
    return prefix[:size], max(0, size - len(prefix))


FetchReply = Tuple[FetchResponse, int, Optional[IncidentDraft]]


def answer_fetch(request: FetchRequest, tx: Optional[Transaction],
                 registry: crypto.KeyRegistry, backend: crypto.HashBackend) -> FetchReply:
    """The reply to a keyed fetch for the transaction held under its key
    (None when none is): the response, its size, and the incident a denial
    raises.  What to do with the incident is the server's choice."""
    if tx is None:
        return FetchResponse(request.key, None, "not-found"), 64, None
    decision = check_access(request.requester, request.signature, tx, registry, backend)
    if decision.verdict is Verdict.ALLOW:
        return FetchResponse(tx.key(), tx, "ok"), wire.encoded_tx_size(tx), None
    return FetchResponse(tx.key(), None, "denied"), 64, decision.incident


class World:
    """Shared wiring: engine, links, topology, registry, metrics, rng streams."""

    def __init__(self, cfg, sim, net, topo, registry, backend, metrics, rngs):
        self.cfg = cfg
        self.sim = sim
        self.net = net
        self.topo = topo
        self.registry = registry
        self.backend = backend
        self.metrics = metrics
        self.rngs = rngs
        self.agents: Dict[int, object] = {}
        self.malicious: Set[int] = set()
        self.uavn_suite: Dict[int, crypto.CryptoSuite] = {}
        self.gcs_to_tgcs: Dict[int, int] = {}
        self.sim_end_us = to_us(cfg.sim_duration_s)
        self.n_tgcs = len(topo.tgcs_ids)
        self.roster: List[Tuple[int, str, str]] = []  # (node_id, role, real id)
        self._plans: Dict[Tuple[int, int], Tuple[Tuple[Link, int], ...]] = {}
        self.t_bo_us = to_us(cfg.t_bo_s)

    # --- role helpers ---

    def energy_for_drone(self) -> EnergyState:
        cfg = self.cfg
        coeffs = EnergyCoefficients(cfg.e_tx_uj_per_byte, cfg.e_rx_uj_per_byte,
                                    cfg.p_flight_w, cfg.initial_energy_j)
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
            self.sim.run(horizon_us=self.sim_end_us + to_us(self.cfg.drain_limit_s))
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

    def is_drone(self, node_id: int) -> bool:
        return node_id in self.topo.drone_uavn

    def workload_open(self) -> bool:
        return self.sim.now_us < self.sim_end_us

    def acting_bo(self) -> int:
        return rotate_bo(self.topo.ca_ids, self.sim.now_us, self.t_bo_us)

    def suite_for_uavn(self, uavn_id: int) -> crypto.CryptoSuite:
        if self.cfg.force_s1:
            return SUITE_S1
        return self.uavn_suite[uavn_id]

    # --- message transport ---

    def send(self, src: int, dst: int, kind: str, payload: object,
             size: int, meta: Optional[dict] = None,
             on_expired=None) -> None:
        packet = Packet(kind, src, dst, payload, meta)
        total = size + self.cfg.packet_overhead_bytes
        if self.sim.event_log is not None:
            self.sim.log(str(src), kind, f"to={dst} bytes={total}")
        hops = self._hops(src, dst)
        if hops is None:
            self.net.packets_dropped += 1
            self._lost(on_expired)
            return
        self._send_hop(packet, total, hops, 0, on_expired)

    @staticmethod
    def _lost(on_expired) -> None:
        """Where every lost packet ends: no route, a sender or a relay out of
        energy, or its retries used up.  Its sender hears of it if it asked."""
        if on_expired is not None:
            on_expired()

    def _hops(self, src: int, dst: int) -> Optional[Sequence[Tuple[Link, int]]]:
        """Hop plan as (link, receiver) pairs; None when no route exists.
        A drone and its station are one cell hop apart (see ``netmodel``), so
        every route but a mesh one is one fixed hop, planned once and shared."""
        plan = self._plans.get((src, dst))
        if plan is None:
            net, swarm_of = self.net, self.topo.drone_uavn
            if src in swarm_of:
                if dst in swarm_of:
                    return self._mesh_route(src, dst)
                link = net.uplink[dst]
            else:
                link = net.downlink[src] if dst in swarm_of else net.wired(src, dst)
            plan = self._plans[src, dst] = ((link, dst),)
        return plan

    def _mesh_route(self, src: int, dst: int) -> Optional[List[Tuple[Link, int]]]:
        """Mesh hops on a shortest path over the swarm's current radio graph."""
        now, cfg, topo = self.sim.now_us, self.cfg, self.topo
        uavn = topo.uavns[topo.drone_uavn[src]]
        mesh = self.net.mesh[uavn.uavn_id]
        frontier = [src]
        parents = {src: src}
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for peer in uavn.drone_ids:
                    if peer in parents:
                        continue
                    if topo.distance(node, peer, now) <= cfg.uav_range_m:
                        parents[peer] = node
                        if peer == dst:
                            hops = []
                            while peer != src:
                                hops.append((mesh, peer))
                                peer = parents[peer]
                            return hops[::-1]
                        nxt.append(peer)
            frontier = nxt
        return None

    def _send_hop(self, packet: Packet, size: int, hops, index: int,
                  on_expired) -> None:
        link = hops[index][0]
        sender = packet.src if index == 0 else hops[index - 1][1]
        arrive = partial(self._arrive, packet, size, hops, index, on_expired)
        self._send_on_link(link, size, arrive, on_expired,
                           energy_payer=sender if self.is_drone(sender) else None)

    def _arrive(self, packet: Packet, size: int, hops, index: int, on_expired) -> None:
        """Hop ``index`` reached its receiver: the handler ``_send_hop`` schedules."""
        receiver = hops[index][1]
        last = index == len(hops) - 1
        if self.is_drone(receiver):
            agent = self.agents[receiver]
            agent.energy.account_rx(size, self.sim.now_us)
            if not agent.energy.active and not last:
                self._lost(on_expired)
                return
        if last:
            self.agents[packet.dst].on_packet(packet)
        else:
            # the relay pays its transmit cost as the next hop's sender
            self._send_hop(packet, size, hops, index + 1, on_expired)

    def _send_on_link(self, link: Link, size: int, deliver, on_expired,
                      energy_payer: Optional[int] = None, attempt: int = 0) -> None:
        if energy_payer is not None:
            payer = self.agents[energy_payer]
            payer.energy.account_tx(size, self.sim.now_us)
            if not payer.energy.active:
                self._lost(on_expired)
                return
        if link.send(self.sim, size, deliver):
            return
        if attempt + 1 <= self.cfg.max_retries:
            delay = to_us(self.cfg.retry_backoff_s * (2 ** attempt))
            self.sim.schedule_in(delay, partial(self._send_on_link, link, size, deliver,
                                                on_expired, energy_payer, attempt + 1))
        else:
            self._lost(on_expired)

    def broadcast_tgcs(self, src: int, kind: str, payload: object, size: int,
                       include_bo: bool = False) -> None:
        for tgcs in self.topo.tgcs_ids:
            if tgcs == src:
                continue
            self.send(src, tgcs, kind, payload, size)
        if include_bo:
            self.send(src, self.acting_bo(), kind, payload, size)


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
        self.energy = world.energy_for_drone()
        self.known_refs: List[TxKey] = []
        self._known_set: Set[TxKey] = set()

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

    def _send_report(self, fabricated=None, attack_id=None) -> None:
        cfg = self.w.cfg
        now = self.w.sim.now_us
        x, y = self.w.topo.position(self.id, now)
        claims = list(self.w.topo.truth.observed_from(x, y))
        if fabricated is not None:
            claims.append(fabricated[0])
        prefix, zeros = report_payload(self.id, x, y, claims, cfg.data_tx_size)
        tx = self.new_tx(SUITE_S1, AccessClass.PUBLIC, (), BlockTarget.BLOCK_T2, prefix, zeros)
        self._send_own_tx(tx, SUITE_S1,
                          {"report": ReportMeta(x, y, tuple(claims), fabricated, attack_id)})

    def _send_own_tx(self, tx: Transaction, suite: crypto.CryptoSuite, meta: dict) -> None:
        """Pay the signing energy and send this drone's transaction to its
        station; it counts as dropped if the send expires."""
        size = wire.encoded_tx_size(tx)
        self.energy.account_crypto(suite, size, self.w.sim.now_us)
        self.w.send(self.id, self.gcs_id, "tx", tx, size, meta=meta,
                    on_expired=partial(self.w.metrics.tx_dropped, tx.key()))

    # --- attacks ---

    def _attack(self) -> None:
        rng = self.w.rngs["attack"]
        peers = self.w.topo.peers_of_drone(self.id)
        if rng.random() < 0.5 and peers:
            attack_id = self.w.metrics.attack_injected()
            target = rng.choice(peers)
            request = FetchRequest(self.id, None,
                                   ledger.sign_access_request(self.id, 0, 0,
                                                              self.w.registry,
                                                              self.w.backend),
                                   attack_id)
            self.w.send(self.id, target, "fetch-req", request, 96)
        else:
            attack_id = self.w.metrics.attack_injected()
            now = self.w.sim.now_us
            x, y = self.w.topo.position(self.id, now)
            fabricated = (1_000_000 + attack_id, x, y)
            self._send_report(fabricated=fabricated, attack_id=attack_id)

    # --- stored-chain workload ---

    def _fetch_known(self) -> None:
        if self.known_refs:
            self.fetch_transaction(self.w.rngs["fetch"].choice(self.known_refs))

    def fetch_transaction(self, key: TxKey) -> None:
        """Serve locally when stored; otherwise ask an in-range neighbor that
        owns it, falling back to the ground station's full chain."""
        if self.ledger.has_tx(key):
            self.w.metrics.counters["fetch_local"] += 1
            return
        now = self.w.sim.now_us
        request = FetchRequest(self.id, key,
                               ledger.sign_access_request(self.id, key[0], key[1],
                                                          self.w.registry, self.w.backend))
        for peer in self.w.topo.peers_of_drone(self.id):
            agent = self.w.agents[peer]
            if agent.ledger.has_tx(key) and \
                    self.w.topo.distance(self.id, peer, now) <= self.w.cfg.uav_range_m:
                self.w.send(self.id, peer, "fetch-req", request, 96)
                return
        self.w.send(self.id, self.gcs_id, "fetch-req", request, 96)

    # --- packet handling ---

    def on_packet(self, packet: Packet) -> None:
        if packet.kind == "block-copy":
            self._store_copy(packet.payload)
        elif packet.kind == "fetch-req":
            self._serve_fetch(packet)
        elif packet.kind == "fetch-resp":
            response: FetchResponse = packet.payload
            if response.status == "ok":
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
            key = tx.key()
            if key not in self._known_set:
                self._known_set.add(key)
                self.known_refs.append(key)
            # an owner opens it: a public transaction has no owners
            suite = crypto.suite_for_class(tx.security_class)
            self.energy.account_crypto(suite, tx.payload_len(), now)

    def _serve_fetch(self, packet: Packet) -> None:
        request: FetchRequest = packet.payload
        if request.key is None:
            response, size, incident = self._answer_probe(request)
        else:
            response, size, incident = answer_fetch(
                request, self.ledger.find_transaction(request.key),
                self.w.registry, self.w.backend)
        if incident is not None and not self.malicious:
            self._emit_incident(incident, request.attack_id)
        self.w.send(self.id, packet.src, "fetch-resp", response, size)

    def _answer_probe(self, request: FetchRequest) -> FetchReply:
        """A keyless request asks for this drone's private data, which only
        the drone itself and a CA may read.  Only another drone sends one
        (``_attack``), so it is denied: as unauthorized when its signature is
        genuine, as a forgery when it is not."""
        genuine = ledger.request_is_genuine(request.requester, 0, 0, request.signature,
                                            self.w.registry, self.w.backend)
        reason = "unauthorized-access" if genuine else "forgery"
        return (FetchResponse(None, None, "denied"), 64,
                IncidentDraft(request.requester, reason, (self.id, 0)))

    def _emit_incident(self, incident: IncidentDraft, attack_id: Optional[int]) -> None:
        """Security-incident transaction sealed to this drone's station."""
        body = incident.payload()
        tx = self.new_tx(self.suite, AccessClass.SINGLE, (self.gcs_id,), BlockTarget.BLOCK_T1,
                         body, max(0, self.w.cfg.t4_payload_bytes - len(body)))
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
            if not self.w.agents[drone].energy.active:
                continue
            suite = self.w.suite_for_uavn(self.w.topo.drone_uavn[drone])
            self.intake_tx(self.new_tx(suite, AccessClass.SINGLE, (drone,),
                                       BlockTarget.BLOCK_T1,
                                       bytes(self.w.cfg.command_payload_bytes)))

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
                                       bytes(cfg.command_payload_bytes)))

    # --- transaction intake and detection ---

    def intake_tx(self, tx: Transaction) -> None:
        target = self.w.gcs_to_tgcs[self.id]
        if target == self.id:
            self.w.agents[self.id].miner_intake(tx)
        else:
            self.w.send(self.id, target, "tx-forward", tx, wire.encoded_tx_size(tx))

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
            if report.fabricated is not None and \
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
        site_id, sx, sy = report.fabricated
        reach = self.w.cfg.r_detect_m
        window = to_us(self.w.cfg.w_detect_s)
        for record in self.recent_reports:
            if not record.legit:
                continue
            if not 0 <= created_us - record.created_us <= window:
                continue
            if site_id in record.claims:
                continue
            if math.hypot(record.x - sx, record.y - sy) <= reach:
                return True
        return False

    def _serve_fetch(self, packet: Packet) -> None:
        """Stations answer from the full chain and raise no incident on a denial."""
        request: FetchRequest = packet.payload
        tx = None if request.key is None else self.ledger.find_transaction(request.key)
        response, size, _ = answer_fetch(request, tx, self.w.registry, self.w.backend)
        self.w.send(self.id, packet.src, "fetch-resp", response, size)

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
        size = block.encoded_size
        for drone in self.w.topo.drones_of_gcs(self.id):
            if drone in owners:
                self.w.send(self.id, drone, "block-copy", block, size)


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
        self.w.send(self.id, self.w.acting_bo(), kind, message, _wire_size(message))

    def broadcast(self, kind: str, message, to_orderer: bool = False) -> None:
        self.w.broadcast_tgcs(self.id, kind, message, _wire_size(message),
                              include_bo=to_orderer)


def _wire_size(message) -> int:
    return message.encoded_size if isinstance(message, Block) else len(message.encode())


class TgcsAgent(ProtocolAgent, GcsAgent):
    """A trusted station: everything a station does, plus mining duty."""

    def __init__(self, world: World, gcs_id: int):
        super().__init__(world, gcs_id)
        self.intake: List[Transaction] = []
        self._intake_keys: Set[TxKey] = set()
        self.station = StationProtocol(gcs_id, world.n_tgcs, self, self._validate,
                                       self._finalize)

    def start(self) -> None:
        super().start()
        self.arm("assembly", self.w.rngs["workload"].uniform(
            0, self.w.cfg.assembly_interval_s))

    def miner_intake(self, tx: Transaction) -> None:
        key = tx.key()
        if key in self._intake_keys or self.ledger.has_tx(key):
            return
        self._intake_keys.add(key)
        self.intake.append(tx)
        self.arm("assembly", self.w.cfg.assembly_interval_s)

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
        cfg = self.w.cfg
        if self.intake and self.station.backlog < cfg.max_pending_blocks:
            batch, overflow = self._take_batch()
            valid = [tx for tx in batch if self._tx_valid(tx)]
            self.intake = overflow
            self._intake_keys = {tx.key() for tx in overflow}
            drafts = miner_assemble(self.id, valid, self.w.sim.now_us, self.w.backend)
            if drafts:
                self.station.submit(drafts, self.w.sim.now_us)
        if self.intake or self.w.workload_open():
            self.arm("assembly", cfg.assembly_interval_s)

    def _take_batch(self) -> Tuple[List[Transaction], List[Transaction]]:
        cfg = self.w.cfg
        ordered = sorted(self.intake, key=lambda t: (t.created_at_us, t.creator, t.tx_seq))
        batch: List[Transaction] = []
        sizes = {BlockTarget.BLOCK_T1: 0, BlockTarget.BLOCK_T2: 0}
        counts = {BlockTarget.BLOCK_T1: 0, BlockTarget.BLOCK_T2: 0}
        overflow: List[Transaction] = []
        for tx in ordered:
            size = wire.encoded_tx_size(tx)
            target = tx.block_target
            if counts[target] + 1 > cfg.max_txs_per_block or \
                    sizes[target] + size > cfg.max_block_bytes:
                overflow.append(tx)
            else:
                counts[target] += 1
                sizes[target] += size
                batch.append(tx)
        return batch, overflow

    def _tx_valid(self, tx: Transaction) -> bool:
        if self.ledger.has_tx(tx.key()):
            return False
        if not txbuild.verify_transaction(tx, self.w.registry, self.w.backend):
            self.w.metrics.tx_rejected(tx.key())
            return False
        return True

    # --- what the station protocol asks of this agent ---

    def _validate(self, block_id: int, block: Block) -> Optional[int]:
        issues = ledger.validate_block(block_id, self.ledger.tip_digest, block,
                                       self.w.registry, self.w.backend,
                                       seen_tx=self.ledger.has_tx)
        return consensus.ERROR_CODES[issues[0].code] if issues else None

    def _finalize(self, draft: Block, block_id: int) -> Block:
        return miner_finalize(draft, block_id, self.ledger.blocks[block_id - 1],
                              self.w.backend)

    def commit(self, block_id: int, block: Block) -> None:
        now = self.w.sim.now_us
        self.w.sim.log(str(self.id), "commit",
                       f"block={block_id} miner={block.header.miner} "
                       f"txs={len(block.transactions)}")
        self.ledger.append_block(block)
        if block.header.miner == self.id:
            self.w.metrics.block_committed()
            for tx in block.transactions:
                self.w.metrics.tx_committed(tx.key(), wire.commit_digest(tx, self.w.backend), now)
            size = block.encoded_size
            for gcs in self.w.topo.gcs_ids:
                if gcs not in self.w.topo.tgcs_ids:
                    self.w.send(self.id, gcs, "committed-block", block, size)
        self.distribute_copies(block)

    def reclaim(self, draft: Block) -> None:
        self.arm("assembly", 0.0)
        for tx in draft.transactions:
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
        size = genesis.encoded_size
        for gcs in self.w.topo.gcs_ids:
            self.w.send(self.id, gcs, "genesis", genesis, size)

    # --- authority commands ---

    def _command_stations(self) -> None:
        for gcs in self.my_gcs_ids:
            tx = self.new_tx(SUITE_S1, AccessClass.SINGLE, (gcs,), BlockTarget.BLOCK_T2,
                             bytes(self.w.cfg.command_payload_bytes))
            self.w.send(self.id, gcs, "tx", tx, wire.encoded_tx_size(tx))

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
            state = self.orderer.close().encode()
            self.w.send(self.id, acting, "bo-handoff", state, len(state))
        if self.w.workload_open():
            t_bo_us = self.w.t_bo_us
            self.w.sim.schedule_at((self.w.sim.now_us // t_bo_us + 1) * t_bo_us,
                                   self._rotation_tick)
