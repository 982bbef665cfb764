"""Scenario configuration and the top-level run loop.

A run is a pure function of (config, seed): topology, keys, workload,
attacks, and consensus all draw from named rng streams derived from the
seed, and the engine is single-threaded, so identical inputs give
byte-identical metrics.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import List, Optional, TextIO

from .. import consensus, crypto
from ..crypto import KeyRegistry, select_suite

from .agents import CaAgent, DroneAgent, GcsAgent, TgcsAgent, World
from .engine import Simulator
from .metrics import MetricsCollector, MetricsRecord
from .netmodel import LinkModel, Network, place_topology


CONSENSUS_MODES = ("parallel", "sequential")

# Fixed model inputs that no scenario varies: the range a swarm's mission
# length is drawn from (its upper end is the longest mission S2 covers), the
# wireless link latency and the wired link bandwidth (bytes per second).
MISSION_RANGE_S = (300.0, crypto.LONG_MISSION_MAX_S)
WIRELESS_LATENCY_S = 0.002
WIRED_BW_BPS = 12_500_000.0


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class ScenarioConfig:
    # topology
    n_ca: int = 1
    gcs_per_ca: int = 5
    tgcs_per_ca: int = 2
    uavn_per_gcs: int = 4
    uav_per_uavn: int = 10
    # geometry
    gcs_range_m: float = 1000.0
    disc_radius_m: float = 600.0
    gcs_spacing_m: float = 2500.0
    uav_speed_min: float = 20.0
    uav_speed_max: float = 30.0
    sites_per_uavn: int = 1
    # detection
    r_detect_m: float = 300.0     # witness radius; also the sensing radius
    w_detect_s: float = 4.0
    # workload
    data_tx_size: int = 10240
    t1_interval_s: float = 1.0
    t2_interval_s: float = 10.0
    t3_interval_s: float = 2.0
    t5_interval_s: float = 0.1
    group_min: int = 5
    group_max: int = 10
    fetch_interval_s: float = 5.0
    # attacks
    malicious_fraction: float = 0.2
    attack_interval_s: float = 10.0
    # run control
    sim_duration_s: float = 30.0
    seed: int = 1
    mode: str = "parallel"
    hash_backend: str = "simulated"
    force_s1: bool = False
    # network
    wireless_bw_bps: float = 1_250_000.0
    wireless_queue_bytes: int = 0
    wired_latency_s: float = 0.005
    max_retries: int = 3
    # energy
    e_rx_uj_per_byte: float = 1.0
    p_flight_w: float = 250.0
    initial_energy_j: float = 3_600_000.0
    # drone ledger
    drone_capacity_bytes: int = 4 * 1024 * 1024
    # consensus
    t_bis_s: float = 0.05
    t_blk_s: float = 5.0
    t_bo_s: float = 600.0
    max_txs_per_block: int = 128

    @property
    def n_uav(self) -> int:
        return self.n_ca * self.gcs_per_ca * self.uavn_per_gcs * self.uav_per_uavn

    def validate(self) -> None:
        problems: List[str] = []
        for name in ("n_ca", "gcs_per_ca", "tgcs_per_ca", "uavn_per_gcs",
                     "uav_per_uavn"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be at least 1")
        if self.tgcs_per_ca > self.gcs_per_ca:
            problems.append("tgcs_per_ca cannot exceed gcs_per_ca")
        if not 0.0 <= self.malicious_fraction <= 1.0:
            problems.append("malicious_fraction must lie in [0, 1]")
        if self.sim_duration_s <= 0:
            problems.append("sim_duration_s must be positive")
        if self.mode not in CONSENSUS_MODES:
            problems.append(f"mode must be {' or '.join(CONSENSUS_MODES)}")
        if self.hash_backend not in crypto.BACKENDS:
            problems.append(f"hash_backend must be {' or '.join(crypto.BACKENDS)}")
        if self.data_tx_size < 64:
            problems.append("data_tx_size must be at least 64 bytes")
        if self.group_min < 2 or self.group_max < self.group_min:
            problems.append("group_min and group_max must satisfy 2 <= group_min <= group_max")
        if self.disc_radius_m >= self.gcs_range_m:
            problems.append("disc_radius_m must be below gcs_range_m")
        if self.t_bis_s >= self.t_blk_s:
            problems.append("t_bis_s must be below t_blk_s")
        # a zero period re-fires in the same microsecond, and a zero rate divides by zero
        for name in ("t1_interval_s", "t2_interval_s", "t3_interval_s", "t5_interval_s",
                     "attack_interval_s", "t_bis_s", "t_bo_s", "wireless_bw_bps"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive")
        if self.fetch_interval_s < 0:
            problems.append("fetch_interval_s must not be negative (0 turns fetching off)")
        if self.max_txs_per_block < 1:
            problems.append("max_txs_per_block must be at least 1")
        if problems:
            raise ConfigError(problems)


def default_config(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


_RNG_STREAMS = ("place", "missions", "malice", "workload", "groups", "attack",
                "move", "fetch", "assign")


def build_world(cfg: ScenarioConfig, event_log: Optional[TextIO] = None) -> World:
    cfg.validate()
    backend = crypto.BACKENDS[cfg.hash_backend]
    rngs = {name: random.Random(f"{cfg.seed}:{name}") for name in _RNG_STREAMS}

    topo = place_topology(
        n_ca=cfg.n_ca, gcs_per_ca=cfg.gcs_per_ca, tgcs_per_ca=cfg.tgcs_per_ca,
        uavn_per_gcs=cfg.uavn_per_gcs, uav_per_uavn=cfg.uav_per_uavn,
        gcs_range_m=cfg.gcs_range_m, disc_radius_m=cfg.disc_radius_m,
        gcs_spacing_m=cfg.gcs_spacing_m, sites_per_uavn=cfg.sites_per_uavn,
        sensing_range_m=cfg.r_detect_m, rng=rngs["place"])

    sim = Simulator(event_log)
    wireless = LinkModel(WIRELESS_LATENCY_S, cfg.wireless_bw_bps, cfg.wireless_queue_bytes)
    wired = LinkModel(cfg.wired_latency_s, WIRED_BW_BPS)
    net = Network(sim, topo, wireless, wired, cfg.max_retries)

    registry = KeyRegistry(backend, f"scenario:{cfg.seed}".encode())
    metrics = MetricsCollector()
    world = World(cfg, sim, net, topo, registry, backend, metrics, rngs)

    for ca in topo.ca_ids:
        registry.register_node(ca, is_ca=True)
        world.roster.append((ca, "ca", f"authority-{ca}"))
    for gcs in topo.gcs_ids:
        registry.register_node(gcs)
        role = "tgcs" if gcs in topo.tgcs_ids else "gcs"
        world.roster.append((gcs, role, f"station-{gcs}"))
    drone_ids = sorted(topo.drone_uavn)
    for drone in drone_ids:
        registry.register_node(drone)
        world.roster.append((drone, "uav", f"owner-{drone}"))

    for uavn in topo.uavns:
        duration = rngs["missions"].uniform(*MISSION_RANGE_S)
        world.uavn_suite[uavn.uavn_id] = select_suite(duration)

    n_malicious = round(cfg.malicious_fraction * len(drone_ids))
    world.malicious = set(rngs["malice"].sample(drone_ids, n_malicious))

    plain_gcs = [g for g in topo.gcs_ids if g not in topo.tgcs_ids]
    if plain_gcs:
        assignment = consensus.assign_gcs_to_tgcs(plain_gcs, topo.tgcs_ids,
                                                  rngs["assign"])
        for tgcs, stations in assignment.items():
            for gcs in stations:
                world.gcs_to_tgcs[gcs] = tgcs

    for ca in topo.ca_ids:
        world.agents[ca] = CaAgent(world, ca)
    for gcs in topo.gcs_ids:
        cls = TgcsAgent if gcs in topo.tgcs_ids else GcsAgent
        world.agents[gcs] = cls(world, gcs)
    for drone in drone_ids:
        world.agents[drone] = DroneAgent(world, drone)
    return world


def run(cfg: ScenarioConfig, event_log: Optional[TextIO] = None) -> MetricsRecord:
    """Execute one scenario: genesis, workload, attacks, consensus, drain,
    metric extraction, and the transaction-conservation check."""
    world = build_world(cfg, event_log)
    world.run()

    drones = [world.agents[d] for d in sorted(world.topo.drone_uavn)]
    for drone in drones:
        drone.energy.update_flight(world.sim_end_us)
    consumed = [drone.energy.consumed_j for drone in drones]
    record = world.metrics.finalize(
        seed=cfg.seed, mode=cfg.mode, n_uav=cfg.n_uav,
        malicious_fraction=cfg.malicious_fraction,
        data_tx_size=cfg.data_tx_size,
        consumed_j_per_drone=consumed,
        packets_dropped=world.net.total_dropped())
    if not world.metrics.conservation_ok():
        raise RuntimeError(f"transaction conservation broken: {record.counters}")
    return record
