"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line per
criterion.  Protocol-level checks are exact; scenario-level checks are
directional over 5 seeds at desk scale (each run well under two minutes).
"""

import dataclasses
import random

import pytest

from proactlab import cli, consensus, crypto, ledger, txbuild, wire
from proactlab.consensus import Assignment, CommitVerdict, NbrMessage, OrderingState
from proactlab.crypto import HashVariant, spongent
from proactlab.sim import default_config, run
from proactlab.sim.scenario import build_world
from proactlab.wire import BlockTarget

import helpers
from test_spongent import PINNED_VECTORS

SEEDS = (1, 2, 3, 4, 5)
BACKEND = crypto.SIMULATED_BACKEND


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {number:2d} {status}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _mean(values):
    return sum(values) / len(values)


# 1. Ordering fidelity (exact)

def test_criterion_01_ordering_fidelity():
    state = OrderingState(next_block_id=44)
    state.receive_nbr(NbrMessage(tgcs_id=2, timestamp_us=2_000, request_count=1))
    state.receive_nbr(NbrMessage(tgcs_id=1, timestamp_us=1_000, request_count=1))
    state.receive_nbr(NbrMessage(tgcs_id=3, timestamp_us=3_000, request_count=1))
    got = state.window_close()
    expected = [Assignment(44, 1), Assignment(45, 2), Assignment(46, 3)]
    _verdict(1, "worked ordering example assigns 44/45/46 by timestamp",
             got == expected, f"got {[(a.block_id, a.tgcs_id) for a in got]}")


# 2. Quorum fidelity (exact)

def test_criterion_02_quorum_boundary():
    at_26 = consensus.commit_check(26, 0, 50)
    at_25 = consensus.commit_check(25, 0, 50)
    _verdict(2, "50 miners commit at exactly 26 acknowledgments, not 25",
             at_26 is CommitVerdict.COMMITTED and at_25 is CommitVerdict.PENDING,
             f"26->{at_26.value}, 25->{at_25.value}")


# 3. Hash correctness against pinned vectors (exact)

def test_criterion_03_spongent_vectors():
    per_variant = {HashVariant.SPONGENT_88: 0, HashVariant.SPONGENT_224: 0}
    ok = True
    for variant, message, expected in PINNED_VECTORS:
        ok = ok and spongent(variant, message).hex() == expected
        per_variant[variant] += 1
    enough = all(count >= 3 for count in per_variant.values())
    _verdict(3, "SPONGENT-88/224 digests match pinned reference vectors",
             ok and enough,
             f"{per_variant[HashVariant.SPONGENT_88]}+"
             f"{per_variant[HashVariant.SPONGENT_224]} vectors")


# 4. Overhead arithmetic (exact, against an independent byte-count sum)

def _field_sum(n_owners, enc_par, hash_par, payload_wire, sig):
    return (4 + 8 + 8 + 4 + 1 + 2 + 1 + 1 + 1 + 1 + 4 * n_owners
            + 2 + enc_par + 2 + hash_par + 4 + payload_wire + 1 + sig)


def test_criterion_04_bto_arithmetic():
    registry = helpers.make_registry(BACKEND)
    command = helpers.make_t1_command(registry, BACKEND)
    data = helpers.make_t3_data(registry, BACKEND)
    size_cmd = len(wire.encode_transaction(command))
    size_data = len(wire.encode_transaction(data))
    oracle_cmd = _field_sum(1, len("key_bits=64"), len("rounds=45"), 119, 16)
    oracle_data = _field_sum(0, 0, len("rounds=120"), 10240, 64)
    bto_cmd = wire.tx_overhead(command)
    bto_data = wire.tx_overhead(data)
    ok = (size_cmd == oracle_cmd == 199 and size_data == oracle_data == 10354
          and abs(bto_cmd - 0.99) < 1e-12
          and abs(bto_data - 114 / 10240) < 1e-12)
    _verdict(4, "fixture sizes 199/10354 bytes; overheads 0.99 and ~0.01113",
             ok, f"sizes {size_cmd}/{size_data}, bto {bto_cmd:.4f}/{bto_data:.5f}")


# 5. Tiering benefit (>= 25 points over 5 seeds)

def test_criterion_05_tiering_benefit():
    tiered, forced = [], []
    for seed in SEEDS:
        tiered.append(run(default_config(sim_duration_s=10.0, seed=seed)).bto_mean)
        forced.append(run(default_config(sim_duration_s=10.0, seed=seed,
                                         force_s1=True)).bto_mean)
    gap = _mean(forced) - _mean(tiered)
    _verdict(5, "tiered crypto lowers drone-block overhead by >= 25 points",
             gap >= 0.25, f"gap {gap:.3f} ({_mean(tiered):.3f} vs {_mean(forced):.3f})")


# 6. Parallelism benefit (ratio >= 2.0 with >= 4 miners; identical sets)

COMPARE_CFG = default_config(n_ca=1, gcs_per_ca=8, tgcs_per_ca=4,
                             uavn_per_gcs=2, uav_per_uavn=8,
                             sim_duration_s=10.0)


def test_criterion_06_parallel_vs_sequential():
    ratios, identical = [], True
    for seed in SEEDS:
        parallel = run(dataclasses.replace(COMPARE_CFG, seed=seed))
        sequential = run(dataclasses.replace(COMPARE_CFG, seed=seed,
                                             mode="sequential"))
        ratios.append(sequential.tbd_mean_s / parallel.tbd_mean_s)
        identical = identical and \
            parallel.committed_keys == sequential.committed_keys
    ratio = _mean(ratios)
    _verdict(6, "sequential/parallel mean-TBD ratio >= 2.0; identical commits",
             ratio >= 2.0 and identical,
             f"ratio {ratio:.2f}, sets identical: {identical}")


# 7. Attack-detection trends

def _mean_adr(cfg):
    return _mean([run(dataclasses.replace(cfg, seed=s)).adr for s in SEEDS])


def test_criterion_07i_adr_scale_trend():
    base = default_config(sim_duration_s=15.0)
    means = [_mean_adr(dataclasses.replace(base, uav_per_uavn=n))
             for n in (5, 15, 30)]
    ok = means[0] <= means[1] <= means[2]
    _verdict(7, "ADR non-decreasing across 100/300/600 drones at M=0.2 (i)",
             ok, "/".join(f"{m:.3f}" for m in means))


def test_criterion_07ii_adr_malice_trend():
    base = default_config(sim_duration_s=15.0)
    low = _mean_adr(dataclasses.replace(base, malicious_fraction=0.1))
    high = _mean_adr(dataclasses.replace(base, malicious_fraction=0.7))
    _verdict(7, "ADR strictly decreasing from M=0.1 to M=0.7 (ii)",
             low > high, f"{low:.3f} -> {high:.3f}")


@pytest.fixture(scope="module")
def data_size_sweep():
    records = {}
    for s_dt in (1024, 10240, 102400):
        cfg = default_config(sim_duration_s=10.0, data_tx_size=s_dt,
                             wireless_queue_bytes=262144)
        records[s_dt] = [run(dataclasses.replace(cfg, seed=s)) for s in SEEDS]
    return records


def test_criterion_07iii_adr_data_size_trend(data_size_sweep):
    means = [_mean([r.adr for r in data_size_sweep[s]])
             for s in (1024, 10240, 102400)]
    ok = means[0] >= means[1] >= means[2]
    _verdict(7, "ADR non-increasing from 1 KB to 100 KB data size (iii)",
             ok, "/".join(f"{m:.3f}" for m in means))


# 8. Energy trend (strictly increasing with data size)

def test_criterion_08_dec_data_size_trend(data_size_sweep):
    means = [_mean([r.dec_mean_kj for r in data_size_sweep[s]])
             for s in (1024, 10240, 102400)]
    ok = means[0] < means[1] < means[2]
    _verdict(8, "per-drone energy strictly increases across 1/10/100 KB",
             ok, "/".join(f"{m:.6f}" for m in means))


# 9. Safety and liveness over 20 randomized loss-free runs

def test_criterion_09_safety_liveness():
    rng = random.Random(77)
    quorum_ok = True
    chain_ok = True
    capacity_ok = True
    liveness_ok = True
    for i in range(20):
        cfg = default_config(
            n_ca=1,
            gcs_per_ca=rng.choice((2, 3, 4)),
            tgcs_per_ca=2,
            uavn_per_gcs=rng.choice((1, 2)),
            uav_per_uavn=rng.choice((4, 6, 8)),
            malicious_fraction=rng.choice((0.0, 0.2, 0.4)),
            sim_duration_s=rng.choice((5.0, 6.0, 8.0)),
            fetch_interval_s=rng.choice((0.0, 5.0)),
            seed=100 + i)
        world = build_world(cfg)
        commits = []
        for tgcs_id in world.topo.tgcs_ids:
            station = world.agents[tgcs_id].station
            original = station._commit

            def spy(block_id, tally, _orig=original):
                commits.append((len(tally.acks), consensus.quorum(world.n_tgcs)))
                _orig(block_id, tally)

            station._commit = spy
        world.run()

        quorum_ok = quorum_ok and bool(commits) and \
            all(acks >= q for acks, q in commits)
        # finalize() is what counts the transactions still pending.
        drones = [world.agents[d] for d in sorted(world.topo.drone_uavn)]
        for drone in drones:
            drone.energy.update_flight(world.sim_end_us)
        counters = world.metrics.finalize(
            seed=cfg.seed, mode=cfg.mode, n_uav=cfg.n_uav,
            malicious_fraction=cfg.malicious_fraction,
            data_tx_size=cfg.data_tx_size,
            consumed_j_per_drone=[drone.energy.consumed_j for drone in drones],
            packets_dropped=world.net.total_dropped()).counters
        liveness_ok = liveness_ok and counters["blocks_voided"] == 0 and \
            counters["txs_dropped_expired"] == 0 and \
            counters["txs_pending_at_end"] == 0 and \
            counters["txs_committed"] + counters["txs_rejected_invalid"] == \
            counters["txs_generated"]
        for gcs_id in world.topo.gcs_ids:
            try:
                world.agents[gcs_id].ledger.verify_chain()
            except ledger.LedgerError:
                chain_ok = False
        for drone_id in world.topo.drone_uavn:
            dl = world.agents[drone_id].ledger
            capacity_ok = capacity_ok and dl.current_bytes <= dl.capacity_bytes
    _verdict(9, "20 randomized runs: quorum, chains, capacity, full commit",
             quorum_ok and chain_ok and capacity_ok and liveness_ok,
             f"quorum={quorum_ok} chain={chain_ok} capacity={capacity_ok} "
             f"liveness={liveness_ok}")


# 10. Security scenarios

def test_criterion_10_security_scenarios():
    registry = helpers.make_registry(BACKEND)

    # forged-creator transaction rejected by the signature check
    genuine = helpers.make_t1_command(registry, BACKEND)
    forged = dataclasses.replace(genuine, signature=bytes(len(genuine.signature)))
    forged_rejected = not txbuild.verify_transaction(forged, registry, BACKEND)

    # unauthorized access denied with an incident draft
    sig = ledger.sign_access_request(helpers.DRONE_B, genuine.creator,
                                     genuine.tx_seq, registry, BACKEND)
    decision = ledger.check_access(helpers.DRONE_B, sig, genuine, registry, BACKEND)
    denied = decision.verdict is ledger.Verdict.DENY and \
        decision.incident is not None and \
        decision.incident.reason == "unauthorized-access"

    # unknown-identity drone isolated: not in the registration set
    rogue_registry = helpers.make_registry(BACKEND)
    rogue_registry.register_node(4242)
    rogue_tx = helpers.make_t1_command(rogue_registry, BACKEND, creator=4242)
    block = wire.build_block(0, BlockTarget.BLOCK_T1, 4242, 0, wire.ZERO_HASH,
                             [rogue_tx], BACKEND)
    issues = ledger.validate_block(0, wire.ZERO_HASH, block, registry, BACKEND)
    isolated = any(issue.code == "signature" and "unknown creator" in issue.detail
                   for issue in issues)

    # 51% boundary with false acknowledgments, 10 miners
    n_tgcs = 10
    tampered = dataclasses.replace(
        genuine, payload=bytes(len(genuine.payload)))  # breaks the signature
    bad_block = wire.build_block(0, BlockTarget.BLOCK_T1, 900, 0, wire.ZERO_HASH,
                                 [tampered], BACKEND)
    honest_votes = ledger.validate_block(0, wire.ZERO_HASH, bad_block,
                                         registry, BACKEND)
    honest_reject = bool(honest_votes)
    # 40%: miner + 3 colluders acknowledge, 6 honest miners report errors
    at_40 = consensus.commit_check(acks=4, errors=6, n_tgcs=n_tgcs)
    # 60%: miner + 5 colluders acknowledge, 4 honest miners report errors
    at_60 = consensus.commit_check(acks=6, errors=4, n_tgcs=n_tgcs)
    boundary = (honest_reject and at_40 is not CommitVerdict.COMMITTED
                and at_60 is CommitVerdict.COMMITTED)

    _verdict(10, "forgery rejected; denial emits incident; unknown id isolated; "
                 "51% ack boundary",
             forged_rejected and denied and isolated and boundary,
             f"forged={forged_rejected} denied={denied} isolated={isolated} "
             f"40%->{at_40.value} 60%->{at_60.value}")


# 11. Determinism: byte-identical CSV for identical (config, seed)

def test_criterion_11_byte_identical_csv(tmp_path):
    config = tmp_path / "det.ini"
    config.write_text("[topology]\nn_ca = 1\ngcs_per_ca = 2\ntgcs_per_ca = 2\n"
                      "uavn_per_gcs = 1\nuav_per_uavn = 4\n"
                      "[run]\nsim_duration_s = 4.0\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = cli.main(["run", "--config", str(config), "--seeds", "7",
                    "--out", str(out1)])
    rc2 = cli.main(["run", "--config", str(config), "--seeds", "7",
                    "--out", str(out2)])
    identical = (out1 / "metrics.csv").read_bytes() == \
        (out2 / "metrics.csv").read_bytes()
    _verdict(11, "identical (config, seed) gives byte-identical metrics CSV",
             rc1 == 0 and rc2 == 0 and identical)
