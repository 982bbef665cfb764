"""Engine, network/energy models, agent behaviors, and scenario properties."""

import collections
import copy
import dataclasses
import gc
import hashlib
import io
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from proactlab import consensus, crypto, ledger, txbuild, wire
from proactlab.crypto import SUITE_S1, SUITE_S2_C1
from proactlab.sim import default_config, run
from proactlab.consensus import StationProtocol
from proactlab.sim.agents import FetchRequest, FetchResponse, Packet, ReportMeta, TgcsAgent, World
from proactlab.sim.engine import US, Simulator, to_us
from proactlab.sim.metrics import MetricsCollector
from proactlab.sim.netmodel import (
    Link,
    LinkModel,
    Motion,
    PlacementError,
    next_leg,
    place_topology,
)
from proactlab.sim.scenario import ConfigError, build_world
from proactlab.wire import AccessClass, BlockTarget

import random

import helpers


# --- engine ---


def test_engine_fires_in_time_then_fifo_order():
    sim = Simulator()
    seen = []
    sim.schedule_at(100, lambda: seen.append("b"))
    sim.schedule_at(50, lambda: seen.append("a"))
    sim.schedule_at(100, lambda: seen.append("c"))
    assert sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now_us == 100


def test_engine_rejects_past_scheduling():
    sim = Simulator()
    sim.schedule_at(10, lambda: sim.schedule_at(5, lambda: None))
    with pytest.raises(ValueError):
        sim.run()


def test_engine_horizon_stops_early():
    sim = Simulator()
    sim.schedule_at(10, lambda: None)
    sim.schedule_at(1000, lambda: None)
    assert not sim.run(horizon_us=100)


def test_event_log_lines():
    log = io.StringIO()
    sim = Simulator(event_log=log)
    sim.schedule_at(5, lambda: sim.log("agent-1", "tick", "detail=x"))
    sim.run()
    assert log.getvalue() == "5\tagent-1\ttick\tdetail=x\n"


# --- link model ---


def _link(bw=1000.0, latency=0.01, limit=0):
    return Link(LinkModel(latency, bw, limit))


def test_link_serialization_plus_latency():
    sim = Simulator()
    link = _link(bw=1000.0, latency=0.01)
    done = []
    link.send(sim, 500, lambda: done.append(sim.now_us))
    sim.run()
    # 500 B at 1000 B/s = 0.5 s, plus 10 ms propagation
    assert done == [to_us(0.51)]


def test_link_queues_back_to_back():
    sim = Simulator()
    link = _link(bw=1000.0, latency=0.0)
    times = []
    link.send(sim, 1000, lambda: times.append(sim.now_us))
    link.send(sim, 1000, lambda: times.append(sim.now_us))
    sim.run()
    assert times == [US, 2 * US]


def test_link_drops_on_queue_overflow():
    sim = Simulator()
    link = _link(bw=1000.0, latency=0.0, limit=2500)
    assert link.send(sim, 1000, lambda: None)      # in service
    assert link.send(sim, 1000, lambda: None)      # 2000 B backlog, fits
    assert not link.send(sim, 1000, lambda: None)  # 3000 B would exceed 2500
    assert link.dropped == 1


# --- placement and ground truth ---


def test_placement_counts_and_tgcs_selection():
    rng = random.Random(0)
    topo = place_topology(n_ca=5, gcs_per_ca=10, tgcs_per_ca=4, uavn_per_gcs=1,
                          uav_per_uavn=2, gcs_range_m=1000, disc_radius_m=150,
                          gcs_spacing_m=2500, sites_per_uavn=1,
                          sensing_range_m=300, rng=rng)
    assert len(topo.gcs_ids) == 50
    assert len(topo.tgcs_ids) == 20
    assert len(topo.drone_uavn) == 100
    # every drone starts within its station's radio range
    for drone in topo.drone_uavn:
        gcs = topo.gcs_of_drone(drone)
        assert topo.distance(drone, gcs, 0) <= 1000


def test_placement_rejects_oversized_disc():
    with pytest.raises(PlacementError):
        place_topology(n_ca=1, gcs_per_ca=1, tgcs_per_ca=1, uavn_per_gcs=1,
                       uav_per_uavn=1, gcs_range_m=300, disc_radius_m=400,
                       gcs_spacing_m=1000, sites_per_uavn=0,
                       sensing_range_m=300, rng=random.Random(0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), range_m=st.floats(50.0, 5000.0),
       fraction=st.floats(0.01, 0.99), n_gcs=st.integers(1, 3),
       swarms=st.integers(1, 2), drones=st.integers(1, 4),
       speed=st.floats(0.5, 50.0))
def test_drones_never_leave_their_station_cell(seed, range_m, fraction, n_gcs,
                                               swarms, drones, speed):
    """A drone flies chords of its swarm disc, and the disc lies inside its
    station's range, so a drone-station send never needs a relay."""
    rng = random.Random(seed)
    topo = place_topology(n_ca=1, gcs_per_ca=n_gcs, tgcs_per_ca=1,
                          uavn_per_gcs=swarms, uav_per_uavn=drones,
                          gcs_range_m=range_m, disc_radius_m=fraction * range_m,
                          gcs_spacing_m=2 * range_m, sites_per_uavn=0,
                          sensing_range_m=1.0, rng=rng)
    for drone in topo.drone_uavn:
        gcs = topo.gcs_of_drone(drone)
        now = 0
        for _ in range(3):
            arrival = next_leg(topo, drone, now, speed, 2 * speed, rng)
            for t in (now, (now + arrival) // 2, arrival):
                assert topo.distance(drone, gcs, t) <= range_m + 1e-9
            now = rng.randint(now + 1, arrival)  # the next leg may start mid-leg


def test_ground_truth_observation():
    rng = random.Random(1)
    topo = place_topology(n_ca=1, gcs_per_ca=1, tgcs_per_ca=1, uavn_per_gcs=1,
                          uav_per_uavn=3, gcs_range_m=1000, disc_radius_m=100,
                          gcs_spacing_m=1000, sites_per_uavn=2,
                          sensing_range_m=250, rng=rng)
    truth = topo.truth
    site = truth.sites[0]
    assert site.site_id in truth.observed_from(site.x, site.y)
    assert truth.observed_from(site.x + 10_000, site.y) == ()


# --- energy ---


def _energy(flight_cap_s, **overrides):
    """A drone's energy state under the default energy options, with
    ``overrides``, flying until ``flight_cap_s``."""
    return _world(sim_duration_s=flight_cap_s, **overrides).energy_for_drone()


def test_flight_drain_rate():
    state = _energy(3600, p_flight_w=250.0)
    state.update_flight(to_us(3600))
    assert state.consumed_j == pytest.approx(900_000.0)
    # past the cap nothing more drains
    state.update_flight(to_us(7200))
    assert state.consumed_j == pytest.approx(900_000.0)


def test_zero_event_costs_nothing():
    state = _energy(10)
    state.account_tx(0, 0)
    state.account_rx(0, 0)
    assert state.consumed_j == 0.0


def test_crypto_cost_scales_with_tier():
    low = _energy(10, p_flight_w=0.0)
    high = _energy(10, p_flight_w=0.0)
    low.account_crypto(SUITE_S2_C1, 100, 0)
    high.account_crypto(SUITE_S1, 100, 0)
    assert 0 < low.consumed_j < high.consumed_j


def test_drone_halts_at_zero():
    state = _energy(10, p_flight_w=100.0, initial_energy_j=50.0)
    state.update_flight(to_us(1))
    assert not state.active and state.remaining_j == 0.0


# --- metrics ---


def test_adr_and_tbd_arithmetic():
    collector = MetricsCollector()
    for i in range(10):
        aid = collector.attack_injected()
        if i < 8:
            collector.attack_detected(aid)
    collector.tx_generated((1, 1), to_us(1.0))
    collector.tx_committed((1, 1), bytes(16), to_us(1.110))
    record = collector.finalize(seed=1, mode="parallel", n_uav=1,
                                malicious_fraction=0.2, data_tx_size=1,
                                consumed_j_per_drone=[2000.0],
                                packets_dropped=0)
    assert record.adr == pytest.approx(0.8)
    assert record.tbd_samples_s == [pytest.approx(0.110)]
    assert record.dec_mean_kj == pytest.approx(2.0)


def test_adr_not_applicable_without_attacks():
    collector = MetricsCollector()
    record = collector.finalize(seed=1, mode="parallel", n_uav=1,
                                malicious_fraction=0.0, data_tx_size=1,
                                consumed_j_per_drone=[], packets_dropped=0)
    assert record.adr is None
    assert record.csv_row()["adr"] == "na"


def test_detection_double_counting_guarded():
    collector = MetricsCollector()
    aid = collector.attack_injected()
    collector.attack_detected(aid)
    collector.attack_detected(aid)
    assert collector.counters["attacks_detected"] == 1


def _finalize(collector):
    return collector.finalize(seed=1, mode="parallel", n_uav=1, malicious_fraction=0.0,
                              data_tx_size=1, consumed_j_per_drone=[], packets_dropped=0)


def test_each_transaction_settles_once():
    collector = MetricsCollector()
    for seq in range(6):
        collector.tx_generated((1, seq), to_us(seq))
    collector.tx_committed((1, 4), b"\1" * 16, to_us(5))
    collector.tx_committed((1, 0), bytes(16), to_us(5))
    collector.tx_rejected((1, 1))
    collector.tx_dropped((1, 2))
    # a second settle of any kind, and any settle of an unknown key, count nothing
    collector.tx_committed((1, 4), b"\2" * 16, to_us(9))
    collector.tx_rejected((1, 0))
    collector.tx_dropped((1, 1))
    collector.tx_committed((1, 2), b"\3" * 16, to_us(9))
    for settle in (collector.tx_rejected, collector.tx_dropped):
        settle((7, 7))
    collector.tx_committed((7, 7), b"\4" * 16, to_us(9))
    record = _finalize(collector)
    counters = record.counters
    assert [counters[name] for name in ("txs_generated", "txs_committed", "txs_rejected_invalid",
                                        "txs_dropped_expired", "txs_pending_at_end")] \
        == [6, 2, 1, 1, 2]  # (1, 3) and (1, 5) are left pending
    assert collector.conservation_ok()
    assert record.committed_keys == tuple(sorted([(1, 4), (1, 0)]))
    assert record.tbd_samples_s == [1.0, 5.0]
    assert record.committed_fingerprint == hashlib.blake2b(
        bytes(16) + b"\1" * 16, digest_size=16).hexdigest()


def test_finalize_holds_a_few_pointers_per_committed_transaction():
    # a run's peak RSS comes at its end, so finalize may add only a few
    # pointers per committed transaction; a join of the digests adds ~100 B
    n = 20_000
    rng = random.Random(1)
    keys = [(rng.randrange(1000), seq) for seq in range(n)]
    rng.shuffle(keys)
    digests = [rng.randbytes(16) for _ in range(n)]
    collector = MetricsCollector()
    for key, digest in zip(keys, digests):
        collector.tx_generated(key, 0)
        collector.tx_committed(key, digest, 1)
    tracemalloc.start()
    try:
        record = _finalize(collector)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 32
    assert record.committed_keys == tuple(sorted(keys))
    assert record.committed_fingerprint == hashlib.blake2b(
        b"".join(sorted(digests)), digest_size=16).hexdigest()


# --- scenario-level behavior ---


TINY = dict(n_ca=1, gcs_per_ca=2, tgcs_per_ca=2, uavn_per_gcs=1,
            uav_per_uavn=4, sim_duration_s=4.0, fetch_interval_s=0.0,
            malicious_fraction=0.0)


def _world(**overrides):
    cfg = default_config(**{**TINY, **overrides})
    world = build_world(cfg)
    return world


def test_invalid_config_names_offending_field():
    with pytest.raises(ConfigError) as err:
        default_config(malicious_fraction=1.5).validate()
    assert "malicious_fraction" in str(err.value)
    with pytest.raises(ConfigError):
        default_config(sim_duration_s=0).validate()


def test_workload_classification_t1():
    world = _world()
    gcs = world.agents[world.topo.gcs_ids[0]]
    captured = []
    gcs.intake_tx = captured.append
    gcs._command_drones()
    drones = world.topo.drones_of_gcs(gcs.id)
    assert len(captured) == len(drones) == 4
    for tx in captured:
        assert tx.access_class is AccessClass.SINGLE
        assert tx.block_target is BlockTarget.BLOCK_T1
        assert tx.security_class in (crypto.SecurityClass.S2_C1,
                                     crypto.SecurityClass.S2_C2)
        assert tx.plaintext_len() == 100
        assert tx.owners[0] in drones


def test_workload_classification_t2_group():
    world = _world(uav_per_uavn=10)
    gcs = world.agents[world.topo.gcs_ids[0]]
    captured = []
    gcs.intake_tx = captured.append
    gcs._command_group()
    (tx,) = captured
    assert tx.access_class is AccessClass.GROUP
    assert 5 <= len(tx.owners) <= 10
    assert tx.block_target is BlockTarget.BLOCK_T1
    assert tx.security_class in (crypto.SecurityClass.S2_C1,
                                 crypto.SecurityClass.S2_C2)
    # the payload is sealed to the group key, which every member may open
    assert world.registry.sealing_key(tx.owners) is not None
    assert all(world.registry.may_open(member, tx.owners) for member in tx.owners)


def test_workload_classification_t3():
    world = _world()
    drone_id = sorted(world.topo.drone_uavn)[0]
    drone = world.agents[drone_id]
    sent = []
    world.send = lambda src, dst, kind, payload, size, meta=None, on_expired=None: \
        sent.append((kind, payload, meta))
    drone._send_report(fabricated=None, attack_id=None)
    ((kind, tx, meta),) = sent
    assert kind == "tx"
    assert tx.access_class is AccessClass.PUBLIC
    assert tx.security_class is crypto.SecurityClass.S1
    assert tx.block_target is BlockTarget.BLOCK_T2
    assert tx.plaintext_len() == world.cfg.data_tx_size
    assert meta["report"].fabricated is None


def test_workload_classification_t5():
    world = _world()
    ca = world.agents[world.topo.ca_ids[0]]
    sent = []
    world.send = lambda src, dst, kind, payload, size, meta=None, on_expired=None: \
        sent.append((dst, payload))
    ca._command_stations()
    assert len(sent) == len(world.topo.gcs_ids)
    for dst, tx in sent:
        assert tx.access_class is AccessClass.SINGLE
        assert tx.owners == (dst,)
        assert tx.security_class is crypto.SecurityClass.S1
        assert tx.block_target is BlockTarget.BLOCK_T2


def _report_packet(world, sender, x, y, claims, fabricated=None, attack_id=None,
                   created_us=None, seq=1):
    now = world.sim.now_us if created_us is None else created_us
    payload = bytes(world.cfg.data_tx_size)
    tx = txbuild.build_transaction(
        creator=sender, tx_seq=seq, created_at_us=now, suite=SUITE_S1,
        access_class=AccessClass.PUBLIC, owners=(),
        block_target=BlockTarget.BLOCK_T2, plaintext=payload,
        registry=world.registry, backend=world.backend)
    world.metrics.tx_generated(tx.key(), now)
    meta = {"report": ReportMeta(x, y, tuple(claims), fabricated, attack_id)}
    return Packet("tx", sender, None, tx, meta)


def test_false_report_detected_with_witness():
    world = _world(malicious_fraction=0.25)
    gcs = world.agents[world.topo.gcs_ids[0]]
    gcs.intake_tx = lambda tx: None
    drones = world.topo.drones_of_gcs(gcs.id)
    legit = [d for d in drones if d not in world.malicious]
    attacker = [d for d in drones if d in world.malicious][0]
    # witness reports first, from the same spot
    gcs.on_packet(_report_packet(world, legit[0], 0.0, 0.0, [], created_us=1_000_000))
    aid = world.metrics.attack_injected()
    packet = _report_packet(world, attacker, 0.0, 0.0, [500], (500, 0.0, 0.0),
                            aid, created_us=2_000_000)
    gcs.on_packet(packet)
    assert world.metrics.counters["attacks_detected"] == 1
    assert world.metrics.counters["txs_rejected_invalid"] == 1


def test_false_report_accepted_without_witness_in_range():
    world = _world(malicious_fraction=0.25)
    gcs = world.agents[world.topo.gcs_ids[0]]
    forwarded = []
    gcs.intake_tx = forwarded.append
    drones = world.topo.drones_of_gcs(gcs.id)
    legit = [d for d in drones if d not in world.malicious]
    attacker = [d for d in drones if d in world.malicious][0]
    far = world.cfg.r_detect_m + 1
    gcs.on_packet(_report_packet(world, legit[0], far, 0.0, [], created_us=1_000_000))
    aid = world.metrics.attack_injected()
    gcs.on_packet(_report_packet(world, attacker, 0.0, 0.0, [501], (501, 0.0, 0.0),
                                 aid, created_us=2_000_000))
    assert world.metrics.counters["attacks_detected"] == 0
    assert len(forwarded) == 2  # both reports forwarded for mining


def test_false_report_accepted_when_witness_missing():
    # a dropped witness packet simply never arrives; the stale one outside
    # the corroboration window does not count either
    world = _world(malicious_fraction=0.25)
    gcs = world.agents[world.topo.gcs_ids[0]]
    gcs.intake_tx = lambda tx: None
    drones = world.topo.drones_of_gcs(gcs.id)
    legit = [d for d in drones if d not in world.malicious]
    attacker = [d for d in drones if d in world.malicious][0]
    stale = to_us(20.0)
    gcs.on_packet(_report_packet(world, legit[0], 0.0, 0.0, [], created_us=1_000))
    aid = world.metrics.attack_injected()
    gcs.on_packet(_report_packet(world, attacker, 0.0, 0.0, [502], (502, 0.0, 0.0),
                                 aid, created_us=stale))
    assert world.metrics.counters["attacks_detected"] == 0


def test_malicious_witness_does_not_corroborate():
    world = _world(malicious_fraction=0.5)
    gcs = world.agents[world.topo.gcs_ids[0]]
    gcs.intake_tx = lambda tx: None
    drones = world.topo.drones_of_gcs(gcs.id)
    bad = [d for d in drones if d in world.malicious]
    gcs.on_packet(_report_packet(world, bad[0], 0.0, 0.0, [], created_us=1_000_000))
    aid = world.metrics.attack_injected()
    gcs.on_packet(_report_packet(world, bad[1], 0.0, 0.0, [503], (503, 0.0, 0.0),
                                 aid, created_us=2_000_000))
    assert world.metrics.counters["attacks_detected"] == 0


def test_unauthorized_probe_denied_with_incident():
    world = _world(malicious_fraction=0.25)
    drones = sorted(world.topo.drone_uavn)
    victim = next(d for d in drones if d not in world.malicious)
    attacker = next(d for d in drones if d in world.malicious)
    agent = world.agents[victim]
    sent = []
    world.send = lambda src, dst, kind, payload, size, meta=None, on_expired=None: \
        sent.append((kind, dst, payload, meta))
    aid = world.metrics.attack_injected()
    request = FetchRequest(attacker, None,
                           ledger.sign_access_request(attacker, 0, 0,
                                                      world.registry, world.backend),
                           aid)
    agent.on_packet(Packet("fetch-req", attacker, victim, request))
    kinds = [k for k, *_ in sent]
    assert "tx" in kinds  # the incident transaction to the station
    incident_meta = next(m for k, _, _, m in sent if k == "tx")
    assert incident_meta["incident_attack_id"] == aid
    response = next(p for k, _, p, _ in sent if k == "fetch-resp")
    assert response.status == "denied"


def test_malicious_target_stays_silent():
    world = _world(malicious_fraction=0.5)
    drones = sorted(world.topo.drone_uavn)
    colluders = [d for d in drones if d in world.malicious]
    agent = world.agents[colluders[0]]
    sent = []
    world.send = lambda src, dst, kind, payload, size, meta=None, on_expired=None: \
        sent.append(kind)
    request = FetchRequest(colluders[1], None,
                           ledger.sign_access_request(colluders[1], 0, 0,
                                                      world.registry, world.backend),
                           world.metrics.attack_injected())
    agent.on_packet(Packet("fetch-req", colluders[1], colluders[0], request))
    assert sent == ["fetch-resp"]  # denial, but no incident transaction


# --- fetch sources ---


def _committed_drone_block(world, gcs_id, owner, block_id, prev, seq,
                           payload=bytes(800)):
    tx = txbuild.build_transaction(
        creator=gcs_id, tx_seq=seq, created_at_us=seq, suite=SUITE_S2_C1,
        access_class=AccessClass.SINGLE, owners=(owner,),
        block_target=BlockTarget.BLOCK_T1, plaintext=payload,
        registry=world.registry, backend=world.backend)
    return wire.build_block(block_id, BlockTarget.BLOCK_T1, gcs_id, seq,
                            prev, [tx], world.backend)


def test_keyed_fetch_denial_raises_an_incident_only_at_a_drone():
    world = _world()
    gcs_id = world.topo.gcs_ids[0]
    owner, peer = world.topo.drones_of_gcs(gcs_id)[:2]
    block = _committed_drone_block(world, gcs_id, owner, 0, wire.ZERO_HASH, 1)
    key = block.transactions[0].key()
    world.agents[owner].ledger.store_block(block)
    world.agents[gcs_id].ledger.append_block(block)
    sent = []
    world.send = lambda src, dst, kind, payload, size, meta=None, on_expired=None: \
        sent.append((src, dst, kind, payload))
    request = FetchRequest(peer, key,
                           ledger.sign_access_request(peer, key[0], key[1],
                                                      world.registry, world.backend))

    # the drone reports the peer to its station before it answers
    world.agents[owner].on_packet(Packet("fetch-req", peer, owner, request))
    assert [(src, dst, kind) for src, dst, kind, _ in sent] == \
        [(owner, gcs_id, "tx"), (owner, peer, "fetch-resp")]
    incident, response = sent[0][3], sent[1][3]
    assert incident.access_class is AccessClass.SINGLE and incident.owners == (gcs_id,)
    assert (response.key, response.tx, response.status) == (key, None, "denied")

    # the station only denies
    sent.clear()
    world.agents[gcs_id].on_packet(Packet("fetch-req", peer, gcs_id, request))
    assert [(src, dst, kind) for src, dst, kind, _ in sent] == [(gcs_id, peer, "fetch-resp")]
    response = sent[0][3]
    assert (response.key, response.tx, response.status) == (key, None, "denied")


def test_fetch_sources_local_then_gcs_after_eviction():
    world = _world()
    gcs_id = world.topo.gcs_ids[0]
    gcs = world.agents[gcs_id]
    drone_id = world.topo.drones_of_gcs(gcs_id)[0]
    drone = world.agents[drone_id]
    drone.ledger.capacity_bytes = 2200  # fits ~two one-command blocks

    prev = wire.ZERO_HASH
    keys = []
    for i in range(3):
        block = _committed_drone_block(world, gcs_id, drone_id, i, prev, i + 1)
        prev = wire.block_hash(block.header, world.backend)
        gcs.ledger.append_block(block)
        drone._store_copy(block)
        keys.append(block.transactions[0].key())
    assert [b.block_id for b in drone.ledger.blocks] == [1, 2]  # block 0 evicted, oldest first

    drone.fetch_transaction(keys[2])
    assert world.metrics.counters["fetch_local"] == 1
    drone.fetch_transaction(keys[0])  # evicted earlier: must go to the station
    world.sim.run()
    assert world.metrics.counters["fetch_gcs"] == 1


def test_fetch_from_neighbor_that_owns_it():
    world = _world(disc_radius_m=40.0)  # everyone within radio reach
    gcs_id = world.topo.gcs_ids[0]
    a, b = world.topo.drones_of_gcs(gcs_id)[:2]
    world.registry.group_keygen(world.topo.ca_ids[0], (a, b))
    shared = txbuild.build_transaction(
        creator=gcs_id, tx_seq=5, created_at_us=5, suite=SUITE_S2_C1,
        access_class=AccessClass.GROUP, owners=(a, b),
        block_target=BlockTarget.BLOCK_T1, plaintext=bytes(200),
        registry=world.registry, backend=world.backend)
    block = wire.build_block(0, BlockTarget.BLOCK_T1, gcs_id, 5, wire.ZERO_HASH,
                             [shared], world.backend)
    world.agents[b].ledger.store_block(block)  # only the neighbor kept it
    world.agents[a].fetch_transaction(shared.key())
    world.sim.run()
    assert world.metrics.counters["fetch_neighbor"] == 1


def test_fetch_unknown_network_wide_not_found():
    world = _world()
    gcs_id = world.topo.gcs_ids[0]
    drone = world.agents[world.topo.drones_of_gcs(gcs_id)[0]]
    responses = []
    original = drone.on_packet

    def spy(packet):
        if packet.kind == "fetch-resp":
            responses.append(packet.payload.status)
        original(packet)

    drone.on_packet = spy
    drone.fetch_transaction((424242, 7))
    world.sim.run()
    assert responses == ["not-found"]


# --- transport ---
# A 1,234 B payload is 1,250 B on the wire: 1 ms on a 1.25 MB/s cell or mesh
# link, then 2 ms of latency.


def _arrivals(world, *nodes):
    """(node, time) for every packet the nodes receive, in arrival order."""
    got = []
    for node in nodes:
        world.agents[node].on_packet = \
            lambda packet, node=node: got.append((node, world.sim.now_us))
    return got


def _line_up(world, drones, spacing_m):
    """Park the drones on one line, ``spacing_m`` apart."""
    for i, drone in enumerate(drones):
        world.topo.motions[drone] = Motion(i * spacing_m, 0.0, 0, i * spacing_m, 0.0, 0)


def test_station_to_station_send_takes_wired_latency_plus_serialization():
    world = _world()
    a, b = world.topo.gcs_ids
    got = _arrivals(world, b)
    world.send(a, b, "tx-forward", None, 12_484)
    world.sim.run()
    # 12,500 B at 12.5 MB/s is 1 ms, then 5 ms of latency
    assert got == [(b, 6000)]


def test_drones_of_one_station_share_its_uplink():
    world = _world()
    g1, g2 = world.topo.gcs_ids
    a, b = world.topo.drones_of_gcs(g1)[:2]
    c = world.topo.drones_of_gcs(g2)[0]
    got = _arrivals(world, g1, g2, a)
    for drone in (a, b, c):
        world.send(drone, world.topo.gcs_of_drone(drone), "tx", None, 1234)
    world.send(g1, a, "block-copy", None, 1234)
    world.sim.run()
    # b waits behind a; c's station and g1's downlink have their own queues
    assert sorted(got) == [(g1, 3000), (g1, 4000), (g2, 3000), (a, 3000)]


def test_send_beyond_radio_range_follows_the_mesh_route():
    world = _world()
    swarm = world.topo.uavns[0].drone_ids
    _line_up(world, swarm, 250.0)  # each drone reaches only its neighbours
    got = _arrivals(world, swarm[3])
    world.send(swarm[0], swarm[3], "fetch-req", None, 1234)
    world.sim.run()
    assert got == [(swarm[3], 3 * 3000)]  # three mesh hops, one after another


def test_partitioned_swarm_drops_the_packet_once():
    world = _world()
    swarm = world.topo.uavns[0].drone_ids
    _line_up(world, swarm, 400.0)  # nobody within 300 m of anyone
    got = _arrivals(world, swarm[3])
    expired = []
    before = world.net.packets_dropped
    world.send(swarm[0], swarm[3], "fetch-req", None, 96,
               on_expired=lambda: expired.append(world.sim.now_us))
    world.sim.run()
    assert got == [] and expired == [0]
    assert world.net.packets_dropped == before + 1
    assert world.net.total_dropped() == 1


def test_full_cell_queue_refuses_every_retry_then_expires():
    world = _world(wireless_bw_bps=1000.0, wireless_queue_bytes=2000)
    g = world.topo.gcs_ids[0]
    a, b = world.topo.drones_of_gcs(g)[:2]
    got = _arrivals(world, g)
    expired = []
    world.send(a, g, "tx", None, 1984)  # 2,000 B: fills the uplink for 2 s
    world.send(b, g, "tx", None, 484, on_expired=lambda: expired.append(world.sim.now_us))
    world.sim.run()
    # 500 B more never fits before 2 s: refused at 0, 50, 150 and 350 ms
    assert world.cfg.max_retries == 3
    assert world.net.total_dropped() == 4
    assert world.net.packets_dropped == 0
    assert expired == [350_000]
    assert got == [(g, 2 * US + 2000)]


def test_a_packet_in_flight_holds_little_memory():
    # at swarm600's peak about 11,400 packets wait in saturated cell queues:
    # each holds its Packet, one scheduled partial and the event, while its
    # one-hop plan is shared by every send between the same two nodes
    world = _world()
    g = world.topo.gcs_ids[0]
    drone = world.topo.drones_of_gcs(g)[0]
    got = _arrivals(world, g)
    world.send(drone, g, "tx", None, 1234)  # the plan and the queue exist
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            world.send(drone, g, "tx", None, 1234)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / 2000 <= 600
    world.sim.run()
    assert len(got) == 2001


def test_a_sender_without_energy_drops_its_transaction():
    world = _world()
    g = world.topo.gcs_ids[0]
    drone = world.agents[world.topo.drones_of_gcs(g)[0]]
    got = _arrivals(world, g)
    drone.energy.remaining_j = 1e-9  # signing the report empties the battery
    drone._send_report()
    world.sim.run()
    counters = world.metrics.counters
    assert not drone.energy.active
    assert counters["txs_generated"] == counters["txs_dropped_expired"] == 1
    assert got == [] and world.net.uplink[g].free_at_us == 0  # nothing was queued


def test_a_relay_that_dies_mid_path_forwards_nothing():
    world = _world()
    swarm = world.topo.uavns[0].drone_ids
    _line_up(world, swarm, 250.0)  # each drone reaches only its neighbours
    got = _arrivals(world, swarm[3])
    expired = []
    relay, next_relay = (world.agents[d] for d in swarm[1:3])
    relay.energy.remaining_j = 1e-9  # receiving the first hop empties the battery
    world.send(swarm[0], swarm[3], "fetch-req", None, 1234,
               on_expired=lambda: expired.append(world.sim.now_us))
    world.sim.run()
    assert not relay.energy.active
    assert next_relay.energy.consumed_j == 0  # nothing reached the second relay
    assert got == []
    # the sender hears of the loss once, when the first hop arrives; like a
    # sender without energy, it adds to no drop counter
    assert expired == [3000] and world.net.total_dropped() == 0


# --- end-to-end properties ---


def _check_settled_and_agreed(world):
    """Every transaction of a finished run is settled, and every station
    holds the same verified chain."""
    counters = world.metrics.counters
    settled = (counters["txs_committed"] + counters["txs_rejected_invalid"]
               + counters["txs_dropped_expired"])
    assert settled == counters["txs_generated"]
    tips = set()
    for gcs_id in world.topo.gcs_ids:
        agent = world.agents[gcs_id]
        agent.ledger.verify_chain()
        tips.add(agent.ledger.tip_digest)
    assert len(tips) == 1


def test_small_run_conserves_and_chains(registry):
    cfg = default_config(**{**TINY, "malicious_fraction": 0.25, "seed": 11})
    world = build_world(cfg)
    world.run()
    _check_settled_and_agreed(world)
    # drone ledgers never exceeded capacity
    for drone_id in world.topo.drone_uavn:
        dl = world.agents[drone_id].ledger
        assert dl.current_bytes <= dl.capacity_bytes
    # distribution rule: every owner drone saw every committed drone-class
    # transaction it owns, exactly once (duplicate copies are rejected)
    chain = world.agents[world.topo.gcs_ids[0]].ledger.blocks
    for drone_id in world.topo.drone_uavn:
        agent = world.agents[drone_id]
        expected = {tx.key() for block in chain
                    if block.header.block_type is wire.BlockTarget.BLOCK_T1
                    for tx in block.transactions if drone_id in tx.owners}
        assert agent._known_set == expected
        assert len(agent.known_refs) == len(agent._known_set)


def test_run_raises_when_conservation_breaks(monkeypatch):
    original = MetricsCollector.tx_generated

    def miscounted(self, key, created_at_us):
        original(self, key, created_at_us)
        self.counters["txs_generated"] += 1  # one more than ever gets a state

    monkeypatch.setattr(MetricsCollector, "tx_generated", miscounted)
    with pytest.raises(RuntimeError, match="conservation"):
        run(default_config(**{**TINY, "sim_duration_s": 1.0}))


def test_drone_block_overhead_independent_of_data_size():
    # data reports live in ground-only blocks, so their size cannot move the
    # drone-block overhead by more than noise (< 1 percentage point)
    small = run(default_config(**{**TINY, "data_tx_size": 1024, "seed": 3,
                                  "malicious_fraction": 0.2}))
    large = run(default_config(**{**TINY, "data_tx_size": 102400, "seed": 3,
                                  "malicious_fraction": 0.2}))
    assert abs(small.bto_mean - large.bto_mean) < 0.01


def test_run_determinism_and_seed_sensitivity():
    cfg = default_config(**{**TINY, "malicious_fraction": 0.25, "seed": 5})
    first = run(cfg)
    second = run(cfg)
    assert first == second
    other = run(dataclasses.replace(cfg, seed=6))
    assert other.tbd_mean_s != first.tbd_mean_s


# metrics.csv rows and full-precision BTO means recorded before the per-block
# delivery facts were introduced; any change to the order of the BTO float
# additions, or to what a drone stores, shows up here first.
PINNED_TINY_ROWS = [
    ({"seed": 1},
     {"seed": "1", "mode": "parallel", "n_uav": "8", "malicious_fraction": "0",
      "data_tx_size": "10240", "adr": "na", "tbd_mean_s": "0.107512",
      "dec_mean_kj": "1.00005", "bto_mean": "1.16364", "blocks_committed": "89",
      "blocks_voided": "0", "packets_dropped": "0"},
     1.1636363636363611),
    # groups of two to eight drones, fetches and attacks on a 16-drone swarm
    ({"seed": 1, "uav_per_uavn": 8, "t2_interval_s": 0.5, "group_min": 2, "group_max": 8,
      "fetch_interval_s": 0.5, "malicious_fraction": 0.25},
     {"seed": "1", "mode": "parallel", "n_uav": "16", "malicious_fraction": "0.25",
      "data_tx_size": "10240", "adr": "0.666667", "tbd_mean_s": "0.11159",
      "dec_mean_kj": "1.00006", "bto_mean": "1.18684", "blocks_committed": "101",
      "blocks_voided": "0", "packets_dropped": "0"},
     1.1868438538205979),
]


@pytest.mark.parametrize("overrides,row,bto_mean", PINNED_TINY_ROWS, ids=["tiny", "groups"])
def test_tiny_metrics_row_is_pinned(overrides, row, bto_mean):
    record = run(default_config(**{**TINY, **overrides}))
    assert record.csv_row() == row
    assert record.bto_mean == bto_mean


SPONGENT_RUN = dict(n_ca=1, gcs_per_ca=2, tgcs_per_ca=2, uavn_per_gcs=1,
                    uav_per_uavn=2, sim_duration_s=1.0, data_tx_size=256,
                    t5_interval_s=0.5, fetch_interval_s=0.0, malicious_fraction=0.0)


def _run_on_both_backends(monkeypatch, **overrides):
    """Run on SPONGENT and on the simulated backend; both must give the same
    metrics.  Every distinct (variant, message) is computed once: the content
    memo under crypto.spongent absorbs the miners' repeated checks."""
    crypto._spongent_memo.cache_clear()
    computed = collections.Counter()
    original = crypto.Spongent.digest

    def counting(self, message, prefix_len=0):
        computed[(self.digest_bytes, message)] += 1
        return original(self, message, prefix_len)

    monkeypatch.setattr(crypto.Spongent, "digest", counting)
    cfg = default_config(**{**SPONGENT_RUN, **overrides}, hash_backend="spongent")
    record = run(cfg)
    assert record.counters["txs_committed"] > 0
    assert record.counters["txs_committed"] == record.counters["txs_generated"]
    assert computed and max(computed.values()) == 1
    simulated = run(dataclasses.replace(cfg, hash_backend="simulated"))
    assert simulated.csv_row() == record.csv_row()
    assert simulated.counters == record.counters
    assert simulated.committed_keys == record.committed_keys
    return record


def test_run_with_real_spongent_backend(monkeypatch):
    _run_on_both_backends(monkeypatch)


def test_backends_agree_with_groups_fetches_and_attacks(monkeypatch):
    record = _run_on_both_backends(
        monkeypatch, t2_interval_s=0.5, group_min=2, group_max=2,
        fetch_interval_s=0.5, malicious_fraction=0.5, attack_interval_s=0.5)
    assert record.counters["attacks_injected"] > 0
    assert record.counters["fetch_local"] > 0


def test_event_log_export():
    log = io.StringIO()
    cfg = default_config(**{**TINY, "sim_duration_s": 1.0, "seed": 2})
    run(cfg, event_log=log)
    lines = log.getvalue().splitlines()
    assert lines, "event log must not be empty"
    time_us, agent, kind, detail = lines[0].split("\t")
    assert time_us.isdigit() and kind


def _mute_second_miner(monkeypatch, until_s=3.0):
    """The second miner finalizes nothing before ``until_s``, so the orderer
    voids its blocks."""
    original = StationProtocol._try_finalize

    def muted(self):
        world = self.port.w
        if self.id == world.topo.tgcs_ids[1] and world.sim.now_us < to_us(until_s):
            return
        original(self)

    monkeypatch.setattr(StationProtocol, "_try_finalize", muted)


def test_backends_agree_through_a_void(monkeypatch):
    _mute_second_miner(monkeypatch, until_s=1.2)
    record = _run_on_both_backends(monkeypatch, t_blk_s=1.0, sim_duration_s=1.5)
    assert record.counters["blocks_voided"] >= 1


def _void_config(seed, miners=2):
    return default_config(n_ca=1, gcs_per_ca=miners, tgcs_per_ca=miners, uavn_per_gcs=1,
                          uav_per_uavn=3, sim_duration_s=6.0, t_blk_s=1.0,
                          fetch_interval_s=0.0, malicious_fraction=0.0, seed=seed)


@pytest.mark.parametrize("seed", [1, 2, 3, 4], ids=lambda seed: f"seed={seed}")
def test_void_recovery_after_transient_miner_failure(seed, monkeypatch):
    # with seed 1 the block that moves into the voided id does not commit
    # either; the orderer must watch it in turn or the chain stalls for good
    _mute_second_miner(monkeypatch)
    world = build_world(_void_config(seed))
    world.run()

    counters = world.metrics.counters
    assert counters["blocks_voided"] >= 1
    assert counters["txs_committed"] == counters["txs_generated"]
    for gcs_id in world.topo.gcs_ids:
        world.agents[gcs_id].ledger.verify_chain()


# metrics.csv rows and committed fingerprints of two void runs, recorded
# before the void renumbering had one copy; the pinned workloads never void,
# so these are what check the void path byte for byte.
PINNED_VOID_ROWS = [
    (2, {"seed": "4", "mode": "parallel", "n_uav": "6", "malicious_fraction": "0",
         "data_tx_size": "10240", "adr": "na", "tbd_mean_s": "0.911853",
         "dec_mean_kj": "1.50008", "bto_mean": "1.16421", "blocks_committed": "77",
         "blocks_voided": "3", "packets_dropped": "0"},
     "26d47ebd05febaa6488807953230a6e9"),
    (3, {"seed": "4", "mode": "parallel", "n_uav": "9", "malicious_fraction": "0",
         "data_tx_size": "10240", "adr": "na", "tbd_mean_s": "0.906426",
         "dec_mean_kj": "1.50008", "bto_mean": "1.16286", "blocks_committed": "116",
         "blocks_voided": "3", "packets_dropped": "0"},
     "6cf082630fbdd43df5a9bd190a5817ac"),
]


@pytest.mark.parametrize("miners,row,fingerprint", PINNED_VOID_ROWS,
                         ids=["two-miners", "three-miners"])
def test_void_run_row_is_pinned(miners, row, fingerprint, monkeypatch):
    _mute_second_miner(monkeypatch)
    record = run(_void_config(4, miners))
    assert record.csv_row() == row
    assert record.committed_fingerprint == fingerprint


def test_station_votes_on_the_block_that_replaces_a_voided_one():
    world = _world(gcs_per_ca=5, tgcs_per_ca=5)
    (ca,) = world.topo.ca_ids
    miner_a, station, miner_c = world.topo.tgcs_ids[:3]
    agent = world.agents[station]

    def block_from(node, block_id, prev_hash):
        tx = world.agents[node].new_tx(SUITE_S1, AccessClass.PUBLIC, (),
                                       BlockTarget.BLOCK_T2, bytes(16))
        return wire.build_block(block_id, BlockTarget.BLOCK_T2, node, 0, prev_hash,
                                [tx], world.backend)

    genesis = block_from(ca, 0, wire.ZERO_HASH)
    agent.absorb_committed(genesis)
    votes = []
    send = world.send

    def spy(src, dst, kind, payload, size, **kw):
        if src == station:
            votes.append((kind, payload))
        send(src, dst, kind, payload, size, **kw)

    world.send = spy

    def block_one_from(miner):
        return block_from(miner, 1, wire.block_hash(genesis.header, world.backend))

    # five miners: the block's miner and this station make two acks, short
    # of the quorum of three, so nothing commits here
    agent.on_packet(Packet("block", miner_a, station, block_one_from(miner_a)))
    assert ("ack", consensus.BlockAckMessage(1, station)) in votes
    votes.clear()
    agent.on_packet(Packet("void", ca, station, consensus.VoidMessage(1)))
    replacement = block_one_from(miner_c)
    agent.on_packet(Packet("block", miner_c, station, replacement))
    assert ("ack", consensus.BlockAckMessage(1, station)) in votes
    assert agent.station.tallies[1].block is replacement
    assert agent.station.tallies[1].acks == {miner_c, station}


def _rejected_miner(monkeypatch, until_s=1.0):
    """Before ``until_s`` the other two stations' validation fails every
    block of the first of three miners, so each meets a quorum of error
    votes.  The finalize timeout is far beyond that, so every void before
    it is a rejection."""
    validate = TgcsAgent._validate

    def failing(self, block_id, block):
        world = self.w
        if block.header.miner == world.topo.tgcs_ids[0] and world.sim.now_us < to_us(until_s):
            return consensus.ERROR_CODES["signature"]
        return validate(self, block_id, block)

    monkeypatch.setattr(TgcsAgent, "_validate", failing)
    return default_config(n_ca=1, gcs_per_ca=3, tgcs_per_ca=3, uavn_per_gcs=1,
                          uav_per_uavn=3, sim_duration_s=3.0, t_blk_s=30.0,
                          fetch_interval_s=0.0, malicious_fraction=0.0, seed=1)


def test_a_quorum_of_error_votes_voids_a_block_whose_transactions_commit_later(monkeypatch):
    cfg = _rejected_miner(monkeypatch)
    log = io.StringIO()
    world = build_world(cfg, log)
    world.run()
    sends = [line.split("\t") for line in log.getvalue().splitlines()]
    (ca,) = world.topo.ca_ids
    error_votes = [detail.split()[0] for _, _, kind, detail in sends if kind == "block-error"]
    assert f"to={ca}" in error_votes  # the orderer tallies the error votes
    assert any(to != f"to={ca}" for to in error_votes)  # and so do the other stations
    voids = [int(time_us) for time_us, _, kind, _ in sends if kind == "void"]
    assert world.metrics.counters["blocks_voided"] >= 1
    assert voids and max(voids) < to_us(cfg.t_blk_s)
    _check_settled_and_agreed(world)
    assert world.metrics.counters["txs_rejected_invalid"] == 0


FORGER = 10_001  # the first drone of every topology


def _forged_signatures(monkeypatch):
    """Every transaction the first drone builds carries a signature with
    one bit flipped."""
    build = txbuild.build_transaction

    def forged(**fields):
        tx = build(**fields)
        if fields["creator"] != FORGER:
            return tx
        return dataclasses.replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])

    monkeypatch.setattr(txbuild, "build_transaction", forged)
    return default_config(**{**TINY, "sim_duration_s": 2.0, "seed": 1})


def test_a_miner_drops_a_transaction_whose_signature_fails(monkeypatch):
    world = build_world(_forged_signatures(monkeypatch))
    world.run()
    chain = world.agents[world.topo.tgcs_ids[0]].ledger
    assert not any(chain.has_tx((FORGER, seq)) for seq in range(1, world.agents[FORGER].seq + 1))
    assert world.metrics.counters["txs_rejected_invalid"] == world.agents[FORGER].seq > 0
    _check_settled_and_agreed(world)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a station that commits a block "
                   "ignores the orderer's later void of its id, so the stations fork")
def test_stations_agree_after_a_void_of_a_block_one_of_them_committed():
    # the second miner's acks before 3 s are lost: it alone sees a quorum and
    # commits block 1, while the first miner and the orderer see none, so the
    # orderer voids id 1
    world = build_world(_void_config(1))
    first, second = world.topo.tgcs_ids
    send = world.send

    def lose_early_acks(src, dst, kind, payload, size, **kw):
        if src == second and kind == "ack" and world.sim.now_us < to_us(3.0):
            return
        send(src, dst, kind, payload, size, **kw)

    world.send = lose_early_acks
    world.run()

    counters = world.metrics.counters
    assert counters["txs_committed"] == counters["txs_generated"]
    ledgers = [world.agents[gcs].ledger for gcs in (first, second)]
    assert ledgers[0].next_block_id == ledgers[1].next_block_id
    assert ledgers[0].tip_digest == ledgers[1].tip_digest
    for chain in ledgers:
        chain.verify_chain()


# --- the event loop and the cyclic collector ---


def _desk_like(monkeypatch):
    return default_config(**{**TINY, "uav_per_uavn": 8, "t2_interval_s": 0.5, "group_min": 2,
                             "group_max": 8, "fetch_interval_s": 0.5, "attack_interval_s": 0.5,
                             "malicious_fraction": 0.25, "seed": 1})


def _muted_miner(monkeypatch):
    _mute_second_miner(monkeypatch)
    return _void_config(1)


def _rotating_orderers(monkeypatch):
    return default_config(n_ca=2, gcs_per_ca=2, tgcs_per_ca=1, uavn_per_gcs=1,
                          uav_per_uavn=3, sim_duration_s=5.0, t_bo_s=2.0,
                          fetch_interval_s=0.0, malicious_fraction=0.0, seed=9)


def _finite_queues(monkeypatch):
    return default_config(**{**TINY, "sim_duration_s": 2.0, "data_tx_size": 20_000,
                             "wireless_bw_bps": 100_000.0, "wireless_queue_bytes": 25_000,
                             "seed": 1})


@pytest.mark.parametrize("make_config", [_desk_like, _muted_miner, _rotating_orderers,
                                         _finite_queues],
                         ids=["attacks-and-fetches", "muted-miner", "rotating-orderers",
                              "finite-queues"])
def test_a_run_creates_no_cyclic_garbage(make_config, monkeypatch):
    # World.run pauses the collector, so a cycle made in the loop would stay
    # in memory; the collector is off here too, so none is collected early
    world = build_world(make_config(monkeypatch))
    gc.collect()
    gc.disable()
    flags = gc.get_debug()
    try:
        world.run()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what is found, to name it
        found = gc.collect()
        leftovers = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()
    counters = world.metrics.counters
    assert counters["txs_generated"] > 0
    if make_config is _desk_like:
        assert counters["attacks_injected"] > 0 and counters["fetch_local"] > 0
    elif make_config is _muted_miner:
        assert counters["blocks_voided"] >= 1
    elif make_config is _finite_queues:
        assert world.net.total_dropped() > 0  # refusals, each retried
    assert found == 0, leftovers.most_common()


def test_a_station_holds_the_zero_padding_of_committed_reports_as_a_count():
    # 10 KB reports are a short text prefix and zero padding; stations keep
    # every committed report for the whole run, so the padding must not be
    # held as bytes, or it is most of a large run's memory
    world = _world(t3_interval_s=0.5)
    assert world.cfg.data_tx_size == 10240
    world.run()
    station = world.agents[world.topo.gcs_ids[0]]
    committed = [tx for block in station.ledger.blocks for tx in block.transactions]
    assert sum(tx.access_class is AccessClass.PUBLIC for tx in committed) > 50
    held = sum(len(tx.payload) for tx in committed)
    assert held < 0.05 * sum(tx.payload_len() for tx in committed)


def _fresh(payload):
    """A copy of a payload that shares no object with it: wire and consensus
    types go through their own codecs, fetch messages through deepcopy."""
    if isinstance(payload, wire.Transaction):
        return wire.decode_transaction(wire.encode_transaction(payload))
    if isinstance(payload, wire.Block):
        return wire.decode_block(wire.encode_block(payload))
    if isinstance(payload, (FetchRequest, FetchResponse)):
        return copy.deepcopy(payload)
    if isinstance(payload, bytes):
        return payload  # the orderer handoff, already encoded
    return type(payload).decode(payload.encode())


def _observed_run(cfg):
    log = io.StringIO()
    record = run(cfg, log)
    return record.csv_row(), record.counters, record.committed_fingerprint, log.getvalue()


@pytest.mark.parametrize("make_config", [_desk_like, _muted_miner, _rotating_orderers],
                         ids=["attacks-and-fetches", "muted-miner", "rotating-orderers"])
def test_a_receiver_that_gets_its_own_copy_changes_nothing(make_config, monkeypatch):
    # agents share every sent object; a receiver that changed one would
    # change what its sender reads later, and a run would depend on it
    cfg = make_config(monkeypatch)
    shared = _observed_run(cfg)
    send = World.send

    def copy_on_send(self, src, dst, kind, payload, size, meta=None, on_expired=None):
        send(self, src, dst, kind, _fresh(payload), size, copy.deepcopy(meta), on_expired)

    monkeypatch.setattr(World, "send", copy_on_send)
    copied = _observed_run(cfg)
    for name, plain, fresh in zip(("csv_row", "counters", "committed_fingerprint"),
                                  shared, copied):
        assert fresh == plain, f"{name} differs"
    assert copied[3] == shared[3], "event log differs"


def test_run_pauses_the_collector_and_restores_its_state():
    world = _world(sim_duration_s=0.5)
    during = []
    world.sim.schedule_at(0, lambda: during.append(gc.isenabled()))
    assert gc.isenabled()
    world.run()
    assert during == [False]
    assert gc.isenabled()
    gc.disable()
    try:
        _world(sim_duration_s=0.5).run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_a_handler_that_raises_still_restores_the_collector():
    world = _world(sim_duration_s=0.5)

    def fail():
        raise RuntimeError("handler failed")

    world.sim.schedule_at(to_us(0.1), fail)
    with pytest.raises(RuntimeError, match="handler failed"):
        world.run()
    assert gc.isenabled()


def test_a_finished_world_is_freed_once_the_next_run_starts():
    # a finished World is cyclic garbage (its agents point back at it); a
    # sweep in one process must not keep one per run while the collector
    # is paused
    first = _world(sim_duration_s=0.5)
    first.run()
    gone = weakref.ref(first)
    del first
    second = _world(sim_duration_s=0.5)
    seen = []
    second.sim.schedule_at(0, lambda: seen.append(gone() is None))
    second.run()
    assert seen == [True]


def test_single_miner_modes_converge():
    # with one miner parallelism is degenerate: both modes serialize, the
    # delay ratio sits near 1 and the committed sets match
    cfg = default_config(n_ca=1, gcs_per_ca=2, tgcs_per_ca=1, uavn_per_gcs=1,
                         uav_per_uavn=4, sim_duration_s=6.0,
                         fetch_interval_s=0.0, seed=1)
    parallel = run(cfg)
    sequential = run(dataclasses.replace(cfg, mode="sequential"))
    assert parallel.committed_keys == sequential.committed_keys
    assert parallel.counters["txs_pending_at_end"] == 0
    assert sequential.counters["txs_pending_at_end"] == 0
    ratio = sequential.tbd_mean_s / parallel.tbd_mean_s
    assert 0.5 < ratio < 2.0


def test_an_orderer_turn_starts_exactly_on_its_boundary():
    # 0.1 s is no binary fraction: in float seconds 0.3 // 0.1 is 2.0, so the
    # third turn began late and its tick rescheduled itself at 0.3 s for ever
    cfg = default_config(n_ca=2, gcs_per_ca=2, tgcs_per_ca=1, uavn_per_gcs=1,
                         uav_per_uavn=3, sim_duration_s=5.0, t_bo_s=0.1)
    world = build_world(cfg)
    cas = world.topo.ca_ids
    for turn in range(50):
        world.sim.now_us = turn * 100_000
        assert world.acting_bo() == cas[turn % 2]
    world.sim.now_us = 300_000
    authority = world.agents[cas[0]]
    authority._rotation_tick()
    ticks = [time_us for time_us, _, handler in world.sim._queue
             if handler == authority._rotation_tick]
    assert ticks == [400_000]


def test_orderer_rotation_hands_state_over():
    cfg = default_config(n_ca=2, gcs_per_ca=2, tgcs_per_ca=1, uavn_per_gcs=1,
                         uav_per_uavn=3, sim_duration_s=5.0, t_bo_s=2.0,
                         fetch_interval_s=0.0, malicious_fraction=0.0, seed=9)
    record = run(cfg)
    assert record.counters["txs_committed"] == record.counters["txs_generated"]
    assert record.counters["blocks_voided"] == 0


def test_registration_payload_roundtrip(registry, sim_backend):
    public = registry.public_key(helpers.DRONE_A)
    payload = txbuild.registration_payload(helpers.DRONE_A, "uav", "owner-x", public)
    assert payload == f"reg|uav|{helpers.DRONE_A}|owner-x|{public.hex()}".encode()
