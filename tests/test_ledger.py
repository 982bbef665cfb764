"""Full-ledger validation/append, drone-ledger replacement, access control."""

import dataclasses

import pytest

from proactlab import crypto, wire
from proactlab.ledger import (
    CHECK_ORDER,
    AccessDecision,
    DroneLedger,
    FullLedger,
    LedgerError,
    Verdict,
    check_access,
    sign_access_request,
    validate_block,
)
from proactlab.sim import default_config
from proactlab.sim.scenario import build_world
from proactlab.wire import AccessClass, BlockTarget

import helpers
from test_sim import TINY

BACKEND = crypto.SIMULATED_BACKEND
CAPACITY = default_config().drone_capacity_bytes


def _block(registry, block_id, prev_hash, txs, block_type=BlockTarget.BLOCK_T1,
           miner=helpers.GCS_ID):
    return wire.build_block(block_id, block_type, miner, 1000 * block_id,
                            prev_hash, txs, BACKEND)


def _chain(registry, n_blocks=3):
    """Ledger holding n committed single-transaction blocks."""
    full = FullLedger(BACKEND)
    for i in range(n_blocks):
        tx = helpers.make_t1_command(registry, BACKEND, seq=i)
        full.append_block(_block(registry, i, full.tip_digest, [tx]))
    return full


def test_validate_accepts_wellformed_successor(registry):
    full = _chain(registry)
    tx = helpers.make_t1_command(registry, BACKEND, seq=50)
    block = _block(registry, full.next_block_id, full.tip_digest, [tx])
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) is None


def _hostile_block(registry, full, code):
    """A successor of ``full`` that fails the ``code`` check and no other."""
    tx = helpers.make_t1_command(registry, BACKEND, seq=90)
    height, tip = full.next_block_id, full.tip_digest
    if code == "block_id":
        return _block(registry, height + 1, tip, [tx])
    if code == "prev_hash":
        return _block(registry, height, wire.block_hash(full.blocks[-2].header, BACKEND), [tx])
    block = _block(registry, height, tip, [tx])
    if code == "merkle_root":
        return dataclasses.replace(
            block, header=dataclasses.replace(block.header, merkle_root=bytes(28)))
    if code == "signature":
        return _block(registry, height, tip,
                      [dataclasses.replace(tx, signature=bytes(len(tx.signature)))])
    assert code == "duplicate_tx"  # one transaction twice in one block
    return _block(registry, height, tip, [tx, tx])


@pytest.mark.parametrize("code", CHECK_ORDER)
def test_validate_returns_the_failing_check(registry, code):
    full = _chain(registry)
    block = _hostile_block(registry, full, code)
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) == code


def test_validate_flags_stale_prev_hash(registry):
    full = _chain(registry, n_blocks=3)
    stale_tip = wire.block_hash(full.blocks[1].header, BACKEND)
    tx = helpers.make_t1_command(registry, BACKEND, seq=60)
    block = _block(registry, full.next_block_id, stale_tip, [tx])
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) == "prev_hash"


def test_validate_flags_unknown_creator(registry):
    full = _chain(registry)
    rogue_registry = helpers.make_registry(BACKEND)
    rogue_registry.register_node(999)
    tx = helpers.make_t1_command(rogue_registry, BACKEND, creator=999, seq=1)
    block = _block(registry, full.next_block_id, full.tip_digest, [tx], miner=999)
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) == "signature"


def test_validate_flags_bad_signature(registry):
    full = _chain(registry)
    tx = helpers.make_t1_command(registry, BACKEND, seq=70)
    forged = dataclasses.replace(tx, signature=bytes(len(tx.signature)))
    block = _block(registry, full.next_block_id, full.tip_digest, [forged])
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) == "signature"


def test_validate_flags_merkle_and_ta_tampering(registry):
    full = _chain(registry)
    tx = helpers.make_t1_command(registry, BACKEND, seq=71)
    block = _block(registry, full.next_block_id, full.tip_digest, [tx])
    tampered = dataclasses.replace(
        block, header=dataclasses.replace(block.header, merkle_root=bytes(28)))
    assert validate_block(full.next_block_id, full.tip_digest, tampered,
                          registry, BACKEND, seen_tx=full.has_tx) == "merkle_root"
    # an access list that does not mirror the body cannot be built
    with pytest.raises(wire.WireError, match="mirror"):
        dataclasses.replace(block, header=dataclasses.replace(
            block.header, ta_list=(wire.TAEntry(0, AccessClass.PUBLIC, ()),)))


def test_validate_flags_duplicate_tx(registry):
    full = _chain(registry)
    duplicate = full.blocks[0].transactions[0]
    block = _block(registry, full.next_block_id, full.tip_digest, [duplicate])
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) == "duplicate_tx"


def test_append_advances_tip(registry):
    full = _chain(registry, n_blocks=44)
    assert full.blocks[-1].block_id == 43
    tx = helpers.make_t1_command(registry, BACKEND, seq=100)
    full.append_block(_block(registry, 44, full.tip_digest, [tx]))
    assert full.blocks[-1].block_id == 44
    assert full.find_transaction(tx.key()) == tx


def test_append_rejects_gap_and_duplicate(registry):
    full = _chain(registry, n_blocks=45)
    tx = helpers.make_t1_command(registry, BACKEND, seq=101)
    with pytest.raises(LedgerError) as err:
        full.append_block(_block(registry, 46, full.tip_digest, [tx]))
    assert err.value.code == "gap"
    with pytest.raises(LedgerError) as err:
        full.append_block(_block(registry, 44, full.tip_digest, [tx]))
    assert err.value.code == "duplicate"


def test_full_ledger_finds_each_stored_transaction(registry):
    # find_transaction walks the chain; the first has_tx builds the key set
    # from the blocks held, and each later append extends it
    full = FullLedger(BACKEND)

    def append(block_id):
        txs = [helpers.make_t1_command(registry, BACKEND, seq=10 * block_id + i)
               for i in range(3)]
        full.append_block(_block(registry, block_id, full.tip_digest, txs))

    def check_lookups():
        for block in full.blocks:
            for tx in block.transactions:
                assert full.find_transaction(tx.key()) is tx
        assert full.find_transaction(absent) is None

    absent = (helpers.GCS_ID, 3)  # the creator's sequence number between blocks 0 and 1
    for block_id in range(4):
        append(block_id)
    check_lookups()
    assert full._keys is None  # no membership asked yet
    before = [tx.key() for block in full.blocks for tx in block.transactions]
    assert all(map(full.has_tx, before)) and not full.has_tx(absent)
    check_lookups()
    append(4)
    append(5)
    check_lookups()
    after = [tx.key() for block in full.blocks[4:] for tx in block.transactions]
    for key in before + after + [absent, (helpers.GCS_ID, 99)]:
        assert full.has_tx(key) == (full.find_transaction(key) is not None)
    assert full._keys == set(before + after)


def test_only_the_miners_index_their_chains():
    # three stations, two of them miners: only a miner asks has_tx
    world = build_world(default_config(**{**TINY, "gcs_per_ca": 3, "seed": 3}))
    world.run()
    plain = set(world.topo.gcs_ids) - set(world.topo.tgcs_ids)
    assert plain and world.topo.tgcs_ids
    for gcs in world.topo.gcs_ids:
        chain = world.agents[gcs].ledger
        assert len(chain.blocks) > 1
        if gcs in plain:
            assert chain._keys is None
        else:
            assert chain._keys == {key for block in chain.blocks
                                   for key in block.tx_locations}


# --- access control ---


def _check(requester, tx, registry, signature=None):
    """The decision on ``requester``'s request for ``tx``, signed by the
    requester unless ``signature`` is given."""
    if signature is None:
        signature = sign_access_request(requester, tx.key(), registry, BACKEND)
    return check_access(requester, signature, tx.key(), tx.owners, registry, BACKEND)


def test_owner_allowed(registry):
    tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A)
    decision = _check(helpers.DRONE_A, tx, registry)
    assert decision.verdict is Verdict.ALLOW and decision.incident is None


def test_public_always_allowed(registry):
    tx = helpers.make_t3_data(registry, BACKEND)
    decision = _check(helpers.DRONE_B, tx, registry)
    assert decision.verdict is Verdict.ALLOW


def test_ca_allowed(registry):
    tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A)
    decision = _check(helpers.CA_ID, tx, registry)
    assert decision.verdict is Verdict.ALLOW


def test_unauthorized_request_denied_with_incident(registry):
    tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A)
    decision = _check(helpers.DRONE_B, tx, registry)
    assert decision.verdict is Verdict.DENY
    assert decision.incident is not None
    assert decision.incident.subject == helpers.DRONE_B
    assert decision.incident.reason == "unauthorized-access"
    assert decision.incident.tx_key == tx.key()
    assert b"incident" in decision.incident.payload()


def test_forged_request_signature_denied_as_forgery(registry):
    tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A)
    decision = _check(helpers.DRONE_A, tx, registry, signature=bytes(64))
    assert decision.verdict is Verdict.DENY
    assert decision.incident.reason == "forgery"


def test_a_request_signed_for_another_key_is_a_forgery(registry):
    # a signature names its key: one made for a request of the drone's own
    # private data, (drone, 0), is no request for any transaction
    tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A)
    probe = sign_access_request(helpers.DRONE_A, (helpers.DRONE_A, 0), registry, BACKEND)
    decision = _check(helpers.DRONE_A, tx, registry, signature=probe)
    assert decision.verdict is Verdict.DENY
    assert decision.incident.reason == "forgery"


def test_deny_requires_incident():
    with pytest.raises(LedgerError):
        AccessDecision(Verdict.DENY, None)


# --- drone ledger / block replacement ---


def _drone_block(registry, block_id, *, seqs, payload=bytes(100),
                 owner=helpers.DRONE_A):
    txs = [helpers.make_t1_command(registry, BACKEND, owner=owner, seq=s,
                                   plaintext=payload, created_at_us=s)
           for s in seqs]
    return _block(registry, block_id, wire.ZERO_HASH, txs)


def test_store_without_eviction(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=10_000)
    block = _drone_block(registry, 1, seqs=[1])
    assert dl.store_block(block) == []
    assert dl.current_bytes == wire.encoded_block_size(block)
    assert [b.block_id for b in dl.blocks] == [1]


def test_oldest_first_eviction_frees_enough_space(registry):
    # ~2.2 KB blocks into a 10 KB ledger: the 5th store must evict the oldest
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=10_000)
    blocks = [_drone_block(registry, i, seqs=[10 * i, 10 * i + 1],
                           payload=bytes(1000)) for i in range(5)]
    for b in blocks[:4]:
        assert dl.store_block(b) == []
    evicted = dl.store_block(blocks[4])
    assert evicted == [0]
    assert [b.block_id for b in dl.blocks] == [1, 2, 3, 4]
    assert dl.current_bytes <= dl.capacity_bytes
    assert dl.current_bytes == sum(wire.encoded_block_size(b) for b in blocks[1:])


def test_block_larger_than_capacity_rejected(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=10_000)
    big = _drone_block(registry, 1, seqs=[1], payload=bytes(12_000))
    with pytest.raises(LedgerError) as err:
        dl.store_block(big)
    assert err.value.code == "block_too_large"
    assert [b.block_id for b in dl.blocks] == []


def test_drone_ledger_rejects_foreign_blocks(registry):
    dl = DroneLedger(helpers.DRONE_B, CAPACITY)
    block = _drone_block(registry, 1, seqs=[1], owner=helpers.DRONE_A)
    with pytest.raises(LedgerError) as err:
        dl.store_block(block)
    assert err.value.code == "not_owner"


def test_drone_ledger_rejects_ground_only_blocks(registry):
    dl = DroneLedger(helpers.DRONE_A, CAPACITY)
    tx = helpers.make_t3_data(registry, BACKEND)
    block = _block(registry, 1, wire.ZERO_HASH, [tx], block_type=BlockTarget.BLOCK_T2)
    with pytest.raises(LedgerError) as err:
        dl.store_block(block)
    assert err.value.code == "block_type"


def test_find_transaction_and_capacity_accounting(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=50_000)
    blocks = [_drone_block(registry, i, seqs=[i]) for i in range(1, 6)]
    for b in blocks:
        dl.store_block(b)
    assert dl.current_bytes == sum(wire.encoded_block_size(b) for b in blocks)
    key = blocks[2].transactions[0].key()
    assert dl.find_transaction(key) == blocks[2].transactions[0]
    assert dl.find_transaction((9999, 0)) is None


def test_owner_index_names_every_group_member(registry):
    group_tx = helpers.make_group_command(registry, BACKEND)
    single_tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_B, seq=2)
    block = _block(registry, 3, wire.ZERO_HASH, [group_tx, single_tx])
    assert set(block.owner_index) == set(helpers.GROUP_MEMBERS)
    assert block.owner_index[helpers.DRONE_A] == (0,)
    assert block.owner_index[helpers.DRONE_B] == (0, 1)


def test_out_of_order_arrivals_are_stored_ascending(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=50_000)
    blocks = {i: _drone_block(registry, i, seqs=[i]) for i in (3, 1, 2)}
    for block_id in (3, 1, 2):
        assert dl.store_block(blocks[block_id]) == []
    assert [b.block_id for b in dl.blocks] == [1, 2, 3]
    for block in blocks.values():
        key = block.transactions[0].key()
        assert dl.find_transaction(key) == block.transactions[0]


def test_resent_block_is_a_no_op(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=50_000)
    block = _drone_block(registry, 4, seqs=[1, 2])
    dl.store_block(block)
    held = dl.current_bytes
    assert dl.store_block(block) == []
    assert dl.store_block(dataclasses.replace(block)) == []  # equal copy, same id
    assert [b.block_id for b in dl.blocks] == [4]
    assert dl.current_bytes == held == wire.encoded_block_size(block)


def test_mixed_owner_block_stored_for_owners_only(registry):
    mine = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_A, seq=1)
    theirs = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_B, seq=2)
    block = _block(registry, 5, wire.ZERO_HASH, [theirs, mine])
    stranger = DroneLedger(helpers.GROUP_MEMBERS[-1], CAPACITY)
    with pytest.raises(LedgerError) as err:
        stranger.store_block(block)
    assert err.value.code == "not_owner"
    assert stranger.blocks == [] and not stranger.has_tx(mine.key())
    for owner in (helpers.DRONE_A, helpers.DRONE_B):
        dl = DroneLedger(owner, CAPACITY)
        dl.store_block(block)
        # the whole block is held, so every transaction in it is indexed
        assert dl.has_tx(mine.key()) and dl.has_tx(theirs.key())
        assert dl.find_transaction(theirs.key()) == theirs


def test_find_transaction_after_eviction(registry):
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=10_000)
    blocks = [_drone_block(registry, i, seqs=[10 * i, 10 * i + 1],
                           payload=bytes(1000)) for i in range(5)]
    for b in blocks:
        dl.store_block(b)
    assert [b.block_id for b in dl.blocks] == [1, 2, 3, 4]
    for tx in blocks[0].transactions:
        assert not dl.has_tx(tx.key())
        assert dl.find_transaction(tx.key()) is None
    assert dl.find_transaction(blocks[1].transactions[1].key()) == \
        blocks[1].transactions[1]


def test_block_facts_equal_a_fresh_recomputation(registry):
    txs = [helpers.make_t1_command(registry, BACKEND, seq=1),
           helpers.make_group_command(registry, BACKEND, seq=2),
           helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_B, seq=3,
                                   plaintext=bytes(700))]
    block = _block(registry, 6, wire.ZERO_HASH, txs)
    assert block.encoded_size == wire.encoded_block_size(block) \
        == len(wire.encode_block(block))
    assert block.tx_overheads == tuple(wire.tx_overhead(tx) for tx in txs)
    ta_owners = {o for entry in block.header.ta_list for o in entry.owners}
    assert set(block.owner_index) == ta_owners
    for owner, indices in block.owner_index.items():
        assert indices == tuple(i for i, e in enumerate(block.header.ta_list)
                                if owner in e.owners)
    assert block.tx_locations == {tx.key(): i for i, tx in enumerate(txs)}


def test_tampered_copy_derives_its_own_facts(registry):
    block = _block(registry, 7, wire.ZERO_HASH,
                   [helpers.make_t1_command(registry, BACKEND, seq=1)])
    assert block.encoded_size and block.owner_index and block.tx_locations
    forged_tx = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_B,
                                        seq=9, plaintext=bytes(500))
    tampered = dataclasses.replace(
        block, transactions=(forged_tx,),
        header=dataclasses.replace(block.header, ta_list=wire.ta_list_for((forged_tx,))))
    assert tampered.encoded_size == wire.encoded_block_size(tampered) \
        != block.encoded_size
    assert tampered.tx_overheads == (wire.tx_overhead(forged_tx),)
    assert set(tampered.owner_index) == {helpers.DRONE_B}
    assert tampered.tx_locations == {forged_tx.key(): 0}
    # the cache does not take part in equality or hashing
    fresh = dataclasses.replace(block)
    assert fresh == block and hash(fresh) == hash(block)


def test_drone_lookups_walk_the_held_blocks(registry):
    # 2.2 KB blocks of one owned and one foreign transaction into a 10 KB
    # ledger: the fifth store evicts block 0
    dl = DroneLedger(helpers.DRONE_A, capacity_bytes=10_000)
    blocks = []
    for i in range(5):
        mine = helpers.make_t1_command(registry, BACKEND, seq=10 * i,
                                       plaintext=bytes(1000))
        theirs = helpers.make_t1_command(registry, BACKEND, owner=helpers.DRONE_B,
                                         seq=10 * i + 1, plaintext=bytes(1000))
        blocks.append(_block(registry, i, wire.ZERO_HASH, [theirs, mine]))
        dl.store_block(blocks[-1])
    assert [b.block_id for b in dl.blocks] == [1, 2, 3, 4]
    for block in blocks[1:]:
        for tx in block.transactions:  # owned and foreign alike
            assert dl.has_tx(tx.key()) and dl.find_transaction(tx.key()) is tx
    for key in [tx.key() for tx in blocks[0].transactions] + [(9999, 0)]:
        assert not dl.has_tx(key) and dl.find_transaction(key) is None
    # no per-transaction state: nothing the ledger holds outgrows its blocks
    for name, value in vars(dl).items():
        if isinstance(value, (list, dict, set, tuple)):
            assert len(value) <= len(dl.blocks), name


def test_tampered_copies_are_hashed_afresh(registry):
    # validating stores each transaction's digests, and appending stores
    # the header hash; a dataclasses.replace copy has none
    full = _chain(registry)
    tx = helpers.make_t1_command(registry, BACKEND, seq=80)
    block = _block(registry, full.next_block_id, full.tip_digest, [tx])
    assert validate_block(full.next_block_id, full.tip_digest, block,
                          registry, BACKEND, seen_tx=full.has_tx) is None
    restamped_tx = dataclasses.replace(tx, created_at_us=tx.created_at_us + 1)
    tampered = dataclasses.replace(block, transactions=(restamped_tx,))
    assert validate_block(full.next_block_id, full.tip_digest, tampered,
                          registry, BACKEND) == "merkle_root"
    rebuilt = _block(registry, full.next_block_id, full.tip_digest, [restamped_tx])
    assert validate_block(full.next_block_id, full.tip_digest, rebuilt,
                          registry, BACKEND) == "signature"

    full.append_block(block)
    full.verify_chain(registry)
    blanked = dataclasses.replace(tx, payload=bytes(len(tx.payload)))
    full.blocks[-1] = dataclasses.replace(block, transactions=(blanked,))
    with pytest.raises(LedgerError) as err:
        full.verify_chain(registry)
    assert err.value.code == "merkle_root"
    full.blocks[-1] = block
    restamped = dataclasses.replace(full.blocks[1].header, timestamp_us=1)
    full.blocks[1] = dataclasses.replace(full.blocks[1], header=restamped)
    with pytest.raises(LedgerError) as err:
        full.verify_chain(registry)
    assert err.value.code == "prev_hash"


def _drop_block_1(registry, full):
    del full.blocks[1]  # block 2 now sits at height 1


def _recommit_a_transaction(registry, full):
    earlier = full.blocks[0].transactions[0]
    full.append_block(_block(registry, full.next_block_id, full.tip_digest, [earlier]))


def _forge_under_a_fresh_root(registry, full):
    last = full.blocks[-1]
    tx = last.transactions[0]
    forged = dataclasses.replace(tx, signature=bytes(len(tx.signature)))
    full.blocks[-1] = _block(registry, last.block_id, last.header.prev_hash, [forged])


@pytest.mark.parametrize("tamper, code", [
    (_drop_block_1, "block_id"),
    (_recommit_a_transaction, "duplicate_tx"),
    (_forge_under_a_fresh_root, "signature"),
])
def test_verify_chain_validates_every_block(registry, tamper, code):
    full = _chain(registry)
    full.verify_chain(registry)
    tamper(registry, full)
    with pytest.raises(LedgerError) as err:
        full.verify_chain(registry)
    assert err.value.code == code
