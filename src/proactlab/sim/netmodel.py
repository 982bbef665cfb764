"""Network links, synthetic placement, drone motion, and ground truth.

Wireless capacity is modeled per radio cell: all drones under one ground
station share one uplink and one downlink queue, and each swarm shares one
mesh channel.  Ground links are point-to-point and directional.  Delivery
time is base latency plus serialization plus queueing; a packet is dropped
when a finite queue would overflow.

Cell invariant: a drone never leaves its station's radio range, since its
swarm disc lies inside that range and ``next_leg`` flies only chords of the
disc.  A drone and its station are always one cell hop apart.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

from .engine import US, Simulator, to_us


class PlacementError(Exception):
    pass


@dataclass(frozen=True)
class LinkModel:
    base_latency_s: float
    bandwidth_bps: float          # bytes per second
    queue_limit_bytes: int = 0    # 0 = unbounded


class Link:
    """Fluid FIFO queue: serialization occupies the link back-to-back."""

    def __init__(self, model: LinkModel):
        self.model = model
        self.latency_us = to_us(model.base_latency_s)
        self.free_at_us = 0
        self.dropped = 0

    def queued_bytes(self, now_us: int) -> int:
        backlog_us = max(0, self.free_at_us - now_us)
        return int(backlog_us * self.model.bandwidth_bps / US)

    def send(self, sim: Simulator, size_bytes: int,
             deliver: Callable[[], None]) -> bool:
        now = sim.now_us
        limit = self.model.queue_limit_bytes
        if limit and self.queued_bytes(now) + size_bytes > limit:
            self.dropped += 1
            return False
        start = max(now, self.free_at_us)
        tx_us = int(math.ceil(size_bytes * US / self.model.bandwidth_bps))
        self.free_at_us = start + tx_us
        sim.schedule_at(self.free_at_us + self.latency_us, deliver)
        return True


class Network:
    """Each station's uplink and downlink cell and each swarm's mesh, keyed
    by station or swarm id and built once, and one wired link per ordered
    station pair.  By the cell invariant a drone is one hop from its station."""

    def __init__(self, topo: Topology, wireless: LinkModel, wired: LinkModel):
        self._wired_model = wired
        self.uplink = {gcs: Link(wireless) for gcs in topo.gcs_ids}
        self.downlink = {gcs: Link(wireless) for gcs in topo.gcs_ids}
        self.mesh = {uavn.uavn_id: Link(wireless) for uavn in topo.uavns}
        self._wires: Dict[Tuple[int, int], Link] = {}
        self.packets_dropped = 0   # no-route losses

    def wired(self, src: int, dst: int) -> Link:
        link = self._wires.get((src, dst))
        if link is None:
            link = self._wires[src, dst] = Link(self._wired_model)
        return link

    def total_dropped(self) -> int:
        links = chain(self.uplink.values(), self.downlink.values(),
                      self.mesh.values(), self._wires.values())
        return self.packets_dropped + sum(link.dropped for link in links)


@dataclass
class Motion:
    x0: float
    y0: float
    t0_us: int
    x1: float
    y1: float
    t1_us: int

    def position(self, now_us: int) -> Tuple[float, float]:
        if now_us >= self.t1_us or self.t1_us == self.t0_us:
            return (self.x1, self.y1)
        f = (now_us - self.t0_us) / (self.t1_us - self.t0_us)
        return (self.x0 + f * (self.x1 - self.x0), self.y0 + f * (self.y1 - self.y0))


@dataclass
class Uavn:
    uavn_id: int
    gcs_id: int
    cx: float
    cy: float
    radius: float
    drone_ids: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class EventSite:
    site_id: int
    x: float
    y: float


class GroundTruth:
    """Real event sites; a legitimate drone reports every site within its
    sensing radius in its next data report."""

    def __init__(self, sites: List[EventSite], sensing_range_m: float):
        self.sites = sites
        self.sensing_range_m = sensing_range_m

    def observed_from(self, x: float, y: float) -> Tuple[int, ...]:
        reach = self.sensing_range_m
        return tuple(s.site_id for s in self.sites
                     if math.hypot(s.x - x, s.y - y) <= reach)


class Topology:
    def __init__(self) -> None:
        self.ca_ids: List[int] = []
        self.gcs_ids: List[int] = []
        self.tgcs_ids: List[int] = []
        self.gcs_ca: Dict[int, int] = {}
        self.uavns: List[Uavn] = []
        self.drone_uavn: Dict[int, int] = {}
        self.static_pos: Dict[int, Tuple[float, float]] = {}
        self.motions: Dict[int, Motion] = {}
        self.truth: Optional[GroundTruth] = None

    def gcs_of_drone(self, drone_id: int) -> int:
        return self.uavns[self.drone_uavn[drone_id]].gcs_id

    def drones_of_gcs(self, gcs_id: int) -> List[int]:
        out: List[int] = []
        for uavn in self.uavns:
            if uavn.gcs_id == gcs_id:
                out.extend(uavn.drone_ids)
        return out

    def peers_of_drone(self, drone_id: int) -> List[int]:
        uavn = self.uavns[self.drone_uavn[drone_id]]
        return [d for d in uavn.drone_ids if d != drone_id]

    def position(self, node_id: int, now_us: int) -> Tuple[float, float]:
        motion = self.motions.get(node_id)
        if motion is not None:
            return motion.position(now_us)
        return self.static_pos[node_id]

    def distance(self, a: int, b: int, now_us: int) -> float:
        ax, ay = self.position(a, now_us)
        bx, by = self.position(b, now_us)
        return math.hypot(ax - bx, ay - by)


def _point_in_disc(cx: float, cy: float, radius: float,
                   rng: random.Random) -> Tuple[float, float]:
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return (cx + r * math.cos(theta), cy + r * math.sin(theta))


def place_topology(*, n_ca: int, gcs_per_ca: int, tgcs_per_ca: int,
                   uavn_per_gcs: int, uav_per_uavn: int,
                   gcs_range_m: float, disc_radius_m: float,
                   gcs_spacing_m: float, sites_per_uavn: int,
                   sensing_range_m: float, rng: random.Random) -> Topology:
    """Synthetic geometry: stations on a jittered grid, one placement disc
    per swarm inside its station's radio range, drones and event sites
    scattered inside the disc.

    Raises PlacementError when a drone could end up beyond every station's
    reach (the disc must fit inside the station range).
    """
    if disc_radius_m >= gcs_range_m:
        raise PlacementError(
            f"swarm disc radius {disc_radius_m}m cannot fit inside the "
            f"station range {gcs_range_m}m")

    topo = Topology()
    n_gcs = n_ca * gcs_per_ca
    cols = max(1, math.ceil(math.sqrt(n_gcs)))
    jitter = gcs_spacing_m / 8.0

    ca_ids = [1 + i for i in range(n_ca)]
    gcs_ids = [101 + i for i in range(n_gcs)]
    topo.ca_ids = ca_ids
    topo.gcs_ids = gcs_ids

    for i, gcs in enumerate(gcs_ids):
        gx = (i % cols) * gcs_spacing_m + rng.uniform(-jitter, jitter)
        gy = (i // cols) * gcs_spacing_m + rng.uniform(-jitter, jitter)
        topo.static_pos[gcs] = (gx, gy)
        ca = ca_ids[i // gcs_per_ca]
        topo.gcs_ca[gcs] = ca

    for ca in ca_ids:
        members = [g for g, c in topo.gcs_ca.items() if c == ca]
        xs = [topo.static_pos[g][0] for g in members]
        ys = [topo.static_pos[g][1] for g in members]
        topo.static_pos[ca] = (sum(xs) / len(xs), sum(ys) / len(ys))

    for ca in ca_ids:
        members = [g for g in gcs_ids if topo.gcs_ca[g] == ca]
        topo.tgcs_ids.extend(members[:tgcs_per_ca])

    sites: List[EventSite] = []
    next_drone = 10_001
    next_site = 1
    max_center_dist = gcs_range_m - disc_radius_m
    for gcs in gcs_ids:
        gx, gy = topo.static_pos[gcs]
        for _ in range(uavn_per_gcs):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(0.0, max_center_dist)
            cx, cy = gx + dist * math.cos(theta), gy + dist * math.sin(theta)
            uavn = Uavn(len(topo.uavns), gcs, cx, cy, disc_radius_m)
            for _ in range(uav_per_uavn):
                drone = next_drone
                next_drone += 1
                x, y = _point_in_disc(cx, cy, disc_radius_m, rng)
                topo.motions[drone] = Motion(x, y, 0, x, y, 0)
                uavn.drone_ids.append(drone)
                topo.drone_uavn[drone] = uavn.uavn_id
            for _ in range(sites_per_uavn):
                sx, sy = _point_in_disc(cx, cy, disc_radius_m, rng)
                sites.append(EventSite(next_site, sx, sy))
                next_site += 1
            topo.uavns.append(uavn)

    for drone, motion in topo.motions.items():
        gcs = topo.gcs_of_drone(drone)
        if math.dist(motion.position(0), topo.static_pos[gcs]) > gcs_range_m:
            raise PlacementError(f"drone {drone} placed beyond its station's range")

    topo.truth = GroundTruth(sites, sensing_range_m)
    return topo


def next_leg(topo: Topology, drone_id: int, now_us: int, speed_min: float,
             speed_max: float, rng: random.Random) -> int:
    """Start a new waypoint leg inside the drone's disc; returns the
    arrival time for scheduling the following leg."""
    uavn = topo.uavns[topo.drone_uavn[drone_id]]
    x, y = topo.position(drone_id, now_us)
    tx, ty = _point_in_disc(uavn.cx, uavn.cy, uavn.radius, rng)
    speed = rng.uniform(speed_min, speed_max)
    travel_s = math.hypot(tx - x, ty - y) / speed if speed > 0 else 0.0
    arrival = now_us + max(1, to_us(travel_s))
    topo.motions[drone_id] = Motion(x, y, now_us, tx, ty, arrival)
    return arrival
