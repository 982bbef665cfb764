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
    uav_range_m: float = 300.0
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
    command_payload_bytes: int = 100
    t4_payload_bytes: int = 1024
    t1_interval_s: float = 1.0
    t2_interval_s: float = 10.0
    t3_interval_s: float = 2.0
    t5_interval_s: float = 0.1
    group_min: int = 5
    group_max: int = 10
    fetch_interval_s: float = 5.0
    mission_min_s: float = 300.0
    mission_max_s: float = 3600.0
    # attacks
    malicious_fraction: float = 0.2
    attack_interval_s: float = 10.0
    # run control
    sim_duration_s: float = 30.0
    drain_limit_s: float = 1800.0
    seed: int = 1
    mode: str = "parallel"
    hash_backend: str = "simulated"
    force_s1: bool = False
    # network
    wireless_latency_s: float = 0.002
    wireless_bw_bps: float = 1_250_000.0
    wireless_queue_bytes: int = 0
    wired_latency_s: float = 0.005
    wired_bw_bps: float = 12_500_000.0
    wired_queue_bytes: int = 0
    packet_overhead_bytes: int = 16
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    # energy
    e_tx_uj_per_byte: float = 2.0
    e_rx_uj_per_byte: float = 1.0
    p_flight_w: float = 250.0
    initial_energy_j: float = 3_600_000.0
    # drone ledger
    drone_capacity_bytes: int = 4 * 1024 * 1024
    # consensus
    t_bis_s: float = 0.05
    t_blk_s: float = 5.0
    t_bo_s: float = 600.0
    assembly_interval_s: float = 0.1
    max_txs_per_block: int = 128
    max_block_bytes: int = 512 * 1024
    max_pending_blocks: int = 4

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
        if self.mode not in ("parallel", "sequential"):
            problems.append("mode must be parallel or sequential")
        if self.hash_backend not in ("simulated", "spongent"):
            problems.append("hash_backend must be simulated or spongent")
        if self.data_tx_size < 64:
            problems.append("data_tx_size must be at least 64 bytes")
        if self.group_min < 2 or self.group_max < self.group_min:
            problems.append("group size bounds must satisfy 2 <= min <= max")
        if not 0 < self.mission_min_s <= self.mission_max_s <= 3600.0:
            problems.append("mission bounds must satisfy 0 < min <= max <= 3600")
        if self.disc_radius_m >= self.gcs_range_m:
            problems.append("disc_radius_m must be below gcs_range_m")
        if self.t_bis_s >= self.t_blk_s:
            problems.append("t_bis_s must be below t_blk_s")
        if problems:
            raise ConfigError(problems)


def default_config(**overrides) -> ScenarioConfig:
    return dataclasses.replace(ScenarioConfig(), **overrides)


_RNG_STREAMS = ("place", "missions", "malice", "workload", "groups", "attack",
                "move", "fetch", "assign")


def build_world(cfg: ScenarioConfig, event_log: Optional[TextIO] = None) -> World:
    cfg.validate()
    backend = crypto.get_backend(cfg.hash_backend)
    rngs = {name: random.Random(f"{cfg.seed}:{name}") for name in _RNG_STREAMS}

    topo = place_topology(
        n_ca=cfg.n_ca, gcs_per_ca=cfg.gcs_per_ca, tgcs_per_ca=cfg.tgcs_per_ca,
        uavn_per_gcs=cfg.uavn_per_gcs, uav_per_uavn=cfg.uav_per_uavn,
        gcs_range_m=cfg.gcs_range_m, disc_radius_m=cfg.disc_radius_m,
        gcs_spacing_m=cfg.gcs_spacing_m, sites_per_uavn=cfg.sites_per_uavn,
        sensing_range_m=cfg.r_detect_m, rng=rngs["place"])

    sim = Simulator(event_log)
    wireless = LinkModel(cfg.wireless_latency_s, cfg.wireless_bw_bps,
                         cfg.wireless_queue_bytes)
    wired = LinkModel(cfg.wired_latency_s, cfg.wired_bw_bps, cfg.wired_queue_bytes)
    net = Network(topo, wireless, wired)

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
        duration = rngs["missions"].uniform(cfg.mission_min_s, cfg.mission_max_s)
        world.uavn_suite[uavn.uavn_id] = select_suite(duration)

    n_malicious = round(cfg.malicious_fraction * len(drone_ids))
    world.malicious = set(rngs["malice"].sample(drone_ids, n_malicious))

    plain_gcs = [g for g in topo.gcs_ids if g not in topo.tgcs_ids]
    world.gcs_to_tgcs = {t: t for t in topo.tgcs_ids}
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
