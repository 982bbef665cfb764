"""Wire-format round-trips, the size fixtures, and Merkle/block hashing."""

import dataclasses
import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from proactlab import crypto, txbuild, wire
from proactlab.crypto import SPONGENT_BACKEND
from proactlab.wire import (
    AccessClass,
    Block,
    BlockHeader,
    BlockTarget,
    TAEntry,
    WireError,
)

import helpers


def field_sum_size(n_owners, enc_par_len, hash_par_len, payload_wire_len, sig_len):
    """Independent byte-count oracle: a plain sum of the layout's widths."""
    fixed = 4 + 8 + 8 + 4 + 1 + 2 + 1 + 1 + 1 + 1  # = 31
    return (fixed + 4 * n_owners + 2 + enc_par_len + 2 + hash_par_len
            + 4 + payload_wire_len + 1 + sig_len)


def test_fixed_fields_total():
    assert field_sum_size(0, 0, 0, 0, 0) - (2 + 2 + 4 + 1) == 31


def test_sealed_command_encodes_to_199_bytes(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    expected = field_sum_size(1, len("key_bits=64"), len("rounds=45"),
                              8 + 100 + 11, 16)
    assert expected == 199
    assert len(wire.encode_transaction(tx)) == 199
    assert wire.encoded_tx_size(tx) == 199


def test_public_data_encodes_to_10354_bytes(registry, sim_backend):
    tx = helpers.make_t3_data(registry, sim_backend)
    expected = field_sum_size(0, 0, len("rounds=120"), 10240, 64)
    assert expected == 10354
    assert len(wire.encode_transaction(tx)) == 10354
    assert wire.encoded_tx_size(tx) == 10354


def test_transaction_round_trip(registry, sim_backend):
    for tx in (helpers.make_t1_command(registry, sim_backend),
               helpers.make_t3_data(registry, sim_backend),
               helpers.make_group_command(registry, sim_backend)):
        assert wire.decode_transaction(wire.encode_transaction(tx)) == tx
        # re-encode stability
        again = wire.decode_transaction(wire.encode_transaction(tx))
        assert wire.encode_transaction(again) == wire.encode_transaction(tx)


def test_decode_rejects_empty():
    with pytest.raises(WireError, match="truncated"):
        wire.decode_transaction(b"")


def test_decode_rejects_trailing_bytes(registry, sim_backend):
    data = wire.encode_transaction(helpers.make_t1_command(registry, sim_backend))
    with pytest.raises(WireError, match="trailing"):
        wire.decode_transaction(data + b"\x00")


def test_decode_rejects_owner_count_mismatch(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    data = bytearray(wire.encode_transaction(tx))
    # owner_count lives at offset 25; claim three owners for a SINGLE tx
    assert data[25:27] == (1).to_bytes(2, "little")
    data[25:27] = (3).to_bytes(2, "little")
    with pytest.raises(WireError):
        wire.decode_transaction(bytes(data))


def test_decode_rejects_overrunning_length(registry, sim_backend):
    data = bytearray(wire.encode_transaction(helpers.make_t1_command(registry, sim_backend)))
    data = data[:-4]  # cut into the signature
    with pytest.raises(WireError, match="truncated"):
        wire.decode_transaction(bytes(data))


# The encoder is never handed a malformed transaction: building one raises.
def test_encode_rejects_inconsistent_owners(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    with pytest.raises(WireError, match="owners"):
        dataclasses.replace(tx, owners=(1, 2, 3))


def test_encode_rejects_empty_payload(registry, sim_backend):
    tx = helpers.make_t3_data(registry, sim_backend)
    with pytest.raises(WireError, match="payload"):
        dataclasses.replace(tx, payload=b"", payload_zeros=0)  # its payload is all zeros


def _header(block_id=0, ta=(), block_type=BlockTarget.BLOCK_T1):
    return BlockHeader(block_id, block_type, 10, 0, wire.ZERO_HASH, wire.ZERO_HASH, tuple(ta))


def test_empty_block_header_is_80_bytes():
    encoded = wire.encode_header(_header())
    assert len(encoded) == 80
    assert len(encoded) == 1 + 8 + 1 + 4 + 8 + 28 + 28 + 2  # the oracle's header widths


@pytest.mark.parametrize("digest", ["prev_hash", "merkle_root"])
def test_a_header_with_a_short_digest_cannot_be_built(digest):
    with pytest.raises(WireError, match="28 bytes"):
        dataclasses.replace(_header(), **{digest: bytes(wire.HASH_LEN - 1)})


def test_single_owner_ta_entry_adds_9_bytes(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    block = wire.build_block(5, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                             wire.ZERO_HASH, [tx], sim_backend)
    header_len = len(wire.encode_header(block.header))
    assert header_len == 80 + (2 + 1 + 2 + 4)
    assert len(wire.encode_block(block)) == header_len + 199
    assert wire.encoded_block_size(block) == header_len + 199


def test_block_round_trip(registry, sim_backend):
    txs = [helpers.make_t1_command(registry, sim_backend, seq=i) for i in range(3)]
    txs.append(helpers.make_group_command(registry, sim_backend, seq=9))
    txs.append(txbuild.build_transaction(
        creator=helpers.GCS_ID, tx_seq=10, created_at_us=0, suite=crypto.SUITE_S1,
        access_class=AccessClass.PUBLIC, owners=(), block_target=BlockTarget.BLOCK_T1,
        plaintext=b"public", registry=registry, backend=sim_backend))
    block = wire.build_block(7, BlockTarget.BLOCK_T1, helpers.GCS_ID, 123456,
                             wire.ZERO_HASH, txs, sim_backend)
    encoded = wire.encode_block(block)
    decoded = wire.decode_block(encoded)
    assert decoded == block
    # a block's size is its encoding's length, from stored transaction sizes or not
    assert all(tx._size is None for tx in decoded.transactions)
    assert wire.encoded_block_size(block) == wire.encoded_block_size(decoded) == len(encoded)


def test_encode_block_rejects_ta_mismatch(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    header = _header(ta=[TAEntry(0, AccessClass.PUBLIC, ())])
    with pytest.raises(WireError, match="mirror"):
        wire.encode_block(Block(header, (tx,)))


def test_encode_block_rejects_target_mismatch(registry, sim_backend):
    tx = helpers.make_t3_data(registry, sim_backend)  # targets BLOCK_T2
    header = _header(ta=[TAEntry(0, AccessClass.PUBLIC, ())],
                     block_type=BlockTarget.BLOCK_T1)
    with pytest.raises(WireError, match="target"):
        wire.encode_block(Block(header, (tx,)))


# One case per format rule that construction enforces: the object made from
# a well-formed sealed command (t1), public report (t3) or block of the
# command (b), and the message that building it raises.
_replace = dataclasses.replace
_MALFORMED = {
    "owner-count": (
        lambda t1, t3, b: _replace(t1, owners=(1, 2)),
        "SINGLE cannot have 2 owners"),
    "empty-payload": (
        lambda t1, t3, b: _replace(t3, payload=b"", payload_zeros=0),
        "payload must be non-empty"),
    "sealed-length": (
        lambda t1, t3, b: _replace(t1, payload=b"\1", payload_zeros=0),
        "sealed payload shorter than nonce plus tag"),
    "signature-length": (
        lambda t1, t3, b: _replace(t1, signature=t1.signature[1:]),
        "signature length"),
    "access-list-length": (
        lambda t1, t3, b: Block(b.header, b.transactions * 2),
        "access list length does not match transaction count"),
    "access-list-entry": (
        lambda t1, t3, b: Block(_replace(b.header, ta_list=(TAEntry(0, AccessClass.PUBLIC, ()),)),
                                b.transactions),
        "access list entry 0 does not mirror its transaction"),
    "block-target": (
        lambda t1, t3, b: Block(_replace(b.header, block_type=BlockTarget.BLOCK_T2),
                                b.transactions),
        "transaction block target differs from the block type"),
    "zero-transactions": (
        lambda t1, t3, b: wire.decode_block(wire.encode_header(_replace(b.header, ta_list=()))),
        "a block must hold at least one transaction"),
}


@pytest.mark.parametrize("malform, message", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_a_malformed_transaction_or_block_cannot_be_built(registry, sim_backend,
                                                          malform, message):
    t1 = helpers.make_t1_command(registry, sim_backend)
    t3 = helpers.make_t3_data(registry, sim_backend)
    block = wire.build_block(1, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                             wire.ZERO_HASH, [t1], sim_backend)
    with pytest.raises(WireError, match=message):
        malform(t1, t3, block)


# Where a sealed command's suite metadata starts: the 27 bytes up to
# owner_count, its one owner, then security_class and block_target.
_ENC_ID_AT = 27 + 4 + 2

# One case per encoded field that no object holds, so that the decoder alone
# checks it: the encoding (the sealed command t1, the public report t3 or a
# block b of t1), the offset of the byte to change and the byte written there.
_NOT_WRITTEN = {
    "topic": ("t1", 20, 0),
    "enc-id": ("t1", _ENC_ID_AT, crypto.SUITE_S2_C1.suite_id),
    "hash-id": ("t1", _ENC_ID_AT + 1, crypto.HashVariant.SPONGENT_88),
    "enc-par": ("t1", _ENC_ID_AT + 4, ord("k")),
    "hash-par": ("t1", _ENC_ID_AT + 4 + len(crypto.SUITE_S2_C1.enc_par) + 2, ord("r")),
    "public-enc-id": ("t3", _ENC_ID_AT - 4, 0),
    "public-enc-par": ("t3", _ENC_ID_AT - 4 + 2, 0),  # its length
    "header-version": ("b", 0, wire.WIRE_VERSION),
}


@pytest.mark.parametrize("encoding, offset, written", _NOT_WRITTEN.values(),
                         ids=_NOT_WRITTEN.keys())
def test_decode_rejects_what_the_encoder_does_not_write(registry, sim_backend, encoding,
                                                        offset, written):
    t1 = helpers.make_t1_command(registry, sim_backend)
    block = wire.build_block(1, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                             wire.ZERO_HASH, [t1], sim_backend)
    valid, decode = {
        "t1": (wire.encode_transaction(t1), wire.decode_transaction),
        "t3": (wire.encode_transaction(helpers.make_t3_data(registry, sim_backend)),
               wire.decode_transaction),
        "b": (wire.encode_block(block), wire.decode_block),
    }[encoding]
    decode(valid)
    assert valid[offset] == written
    data = bytearray(valid)
    data[offset] ^= 1
    with pytest.raises(WireError, match="metadata|version"):
        decode(bytes(data))


H = SPONGENT_BACKEND.digest224


def test_merkle_single_leaf_is_identity():
    leaf = H(b"leaf")
    assert wire.merkle_root([leaf], SPONGENT_BACKEND) == leaf


def test_merkle_two_leaves():
    d1, d2 = H(b"1"), H(b"2")
    assert wire.merkle_root([d1, d2], SPONGENT_BACKEND) == H(d1 + d2)


def test_merkle_three_leaves_duplicates_last():
    d1, d2, d3 = (H(bytes([i])) for i in range(3))
    left = H(d1 + d2)
    right = H(d3 + d3)
    assert wire.merkle_root([d1, d2, d3], SPONGENT_BACKEND) == H(left + right)


def test_merkle_rejects_empty():
    with pytest.raises(WireError):
        wire.merkle_root([], SPONGENT_BACKEND)


def test_merkle_root_changes_when_any_transaction_changes(registry, sim_backend):
    txs = [helpers.make_t1_command(registry, sim_backend, seq=i) for i in range(3)]
    original = wire.build_block(1, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                                wire.ZERO_HASH, txs, sim_backend)
    txs[1] = helpers.make_t1_command(registry, sim_backend, seq=1,
                                     plaintext=bytes(range(100)))
    altered = wire.build_block(1, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                               wire.ZERO_HASH, txs, sim_backend)
    assert original.header.merkle_root != altered.header.merkle_root


def test_block_hash_deterministic_and_sensitive(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    block = wire.build_block(5, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                             wire.ZERO_HASH, [tx], sim_backend)
    digest = wire.block_hash(block.header, SPONGENT_BACKEND)
    assert digest == wire.block_hash(block.header, SPONGENT_BACKEND)
    assert len(digest) == 28
    (entry,) = block.header.ta_list
    flipped = dataclasses.replace(entry, owners=(entry.owners[0] ^ 0x01,))
    altered = dataclasses.replace(block.header, ta_list=(flipped,))
    assert wire.block_hash(altered, SPONGENT_BACKEND) != digest



def test_stored_digests_equal_a_fresh_computation_on_each_backend(registry, sim_backend):
    # one set of objects hashed on both backends in turn: each call returns
    # the asking backend's own digest, equal to one computed from the bytes
    txs = [helpers.make_t1_command(registry, sim_backend),
           helpers.make_t3_data(registry, sim_backend, plaintext=bytes(300)),
           helpers.make_group_command(registry, sim_backend)]
    header = wire.build_block(1, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                              wire.ZERO_HASH, txs[::2], sim_backend).header  # the T1 two
    for backend in (sim_backend, SPONGENT_BACKEND, sim_backend, SPONGENT_BACKEND):
        leaves = []
        for tx in txs:
            encoded = wire.encode_transaction(tx)
            signed = encoded[:len(encoded) - 1 - len(tx.signature)]
            variant = crypto.suite_for_class(tx.security_class).hash_variant
            assert wire.content_digest(tx, backend) == backend.digest(variant, signed)
            leaves.append(backend.digest224(encoded))
            assert wire.leaf_digest(tx, backend) == leaves[-1]
        assert wire.body_root(txs, backend) == wire.merkle_root(leaves, backend)
        assert wire.block_hash(header, backend) == \
            backend.digest224(wire.encode_header(header))
    assert wire.block_hash(header, sim_backend) != wire.block_hash(header, SPONGENT_BACKEND)


def _commit_digest(tx, backend):
    """The commit digest: the fixed-length head of the stored facts record."""
    return wire.commit_record(tx, backend)[:wire.COMMIT_LEN]


@pytest.mark.parametrize("backend", [crypto.SIMULATED_BACKEND, SPONGENT_BACKEND],
                         ids=lambda backend: backend.name)
def test_facts_stored_at_build_equal_those_a_decoded_copy_derives(backend):
    registry = helpers.make_registry(backend)
    built = [helpers.make_t3_data(registry, backend),  # S1 public, 10 KB
             helpers.make_t1_command(registry, backend),  # S2_C1 single owner
             helpers.make_group_command(registry, backend, suite=crypto.SUITE_S2_C2)]
    assert [tx.security_class for tx in built] == list(crypto.SecurityClass)
    for tx in built:
        encoded = wire.encode_transaction(tx)
        fresh = wire.decode_transaction(encoded)
        assert fresh._facts is None and fresh._facts_by is None
        stored = tx._facts
        assert tx._facts_by is backend
        derived = (_commit_digest(fresh, backend), wire.content_digest(fresh, backend),
                   wire.leaf_digest(fresh, backend))
        assert (_commit_digest(tx, backend), wire.content_digest(tx, backend),
                wire.leaf_digest(tx, backend)) == derived
        assert tx._facts is stored  # read from the record, not derived again
        assert wire.commit_record(tx, backend) is stored
        assert stored == b"".join(derived)
        assert derived[0] == hashlib.blake2b(encoded, digest_size=16).digest()
        assert wire.encoded_tx_size(tx) == wire.encoded_tx_size(fresh) == len(encoded)


# The sequence number at which helpers.make_t1_command's sealed payload ends
# in a zero byte, found by searching each backend once.
_SEALED_ENDS_IN_ZERO_SEQ = {"simulated": 474, "spongent": 153}


def _report(registry, backend, plaintext, zeros=0):
    return txbuild.build_transaction(
        creator=helpers.DRONE_A, tx_seq=1, created_at_us=0, suite=crypto.SUITE_S1,
        access_class=AccessClass.PUBLIC, owners=(), block_target=BlockTarget.BLOCK_T2,
        plaintext=plaintext, zeros=zeros, registry=registry, backend=backend)


@pytest.mark.parametrize("backend", [crypto.SIMULATED_BACKEND, SPONGENT_BACKEND],
                         ids=lambda backend: backend.name)
@pytest.mark.parametrize("head, zeros", [(b"rpt|7|1.0", 0), (b"rpt|7|1.0", 40), (b"", 48),
                                         (None, 0)],
                         ids=["no-zero-tail", "partial-zero-tail", "all-zeros",
                              "sealed-ends-in-zero"])
def test_a_zero_tail_held_as_a_count_changes_no_wire_byte_or_digest(backend, head, zeros):
    registry = helpers.make_registry(backend)
    if head is None:
        tx = helpers.make_t1_command(registry, backend,
                                     seq=_SEALED_ENDS_IN_ZERO_SEQ[backend.name])
        head = tx.payload
        zeros = tx.payload_zeros
        assert zeros > 0  # the sealed bytes ended in zero and were counted
        whole = dataclasses.replace(tx, payload=head + bytes(zeros), payload_zeros=0)
    else:
        tx = _report(registry, backend, head, zeros)
        whole = _report(registry, backend, head + bytes(zeros))
    assert (tx.payload, tx.payload_zeros) == (whole.payload, whole.payload_zeros) == (head, zeros)
    assert tx == whole and tx.payload_len() == len(head) + zeros

    encoded = wire.encode_transaction(tx)
    assert encoded == wire.encode_transaction(whole)
    assert encoded.endswith(struct.pack("<I", len(head) + zeros) + head + bytes(zeros)
                            + bytes([len(tx.signature)]) + tx.signature)
    assert wire.decode_transaction(encoded) == tx
    assert wire.encoded_tx_size(tx) == len(encoded) == wire.encoded_tx_size(whole)

    signed = encoded[:len(encoded) - 1 - len(tx.signature)]
    variant = crypto.suite_for_class(tx.security_class).hash_variant
    facts = (backend.digest(variant, signed), backend.digest224(encoded),
             hashlib.blake2b(encoded, digest_size=16).digest())
    for copy in (tx, whole):
        assert (wire.content_digest(copy, backend), wire.leaf_digest(copy, backend),
                _commit_digest(copy, backend)) == facts


_payloads = st.binary(min_size=1, max_size=300)


@st.composite
def transactions(draw):
    backend = crypto.SIMULATED_BACKEND
    registry = helpers.make_registry(backend)
    access = draw(st.sampled_from(list(AccessClass)))
    suite = draw(st.sampled_from([crypto.SUITE_S1, crypto.SUITE_S2_C1, crypto.SUITE_S2_C2]))
    if access is AccessClass.PUBLIC:
        owners = ()
    elif access is AccessClass.SINGLE:
        owners = (draw(st.sampled_from(helpers.GROUP_MEMBERS)),)
    else:
        count = draw(st.integers(min_value=2, max_value=len(helpers.GROUP_MEMBERS)))
        owners = helpers.GROUP_MEMBERS[:count]
        registry.group_keygen(helpers.CA_ID, owners)
    return txbuild.build_transaction(
        creator=helpers.GCS_ID, tx_seq=draw(st.integers(0, 2**32)),
        created_at_us=draw(st.integers(0, 2**40)),
        suite=suite, access_class=access, owners=owners,
        block_target=draw(st.sampled_from(list(BlockTarget))),
        plaintext=draw(_payloads), registry=registry, backend=backend)


@settings(max_examples=60, deadline=None)
@given(transactions())
def test_round_trip_and_size_arithmetic_property(tx):
    encoded = wire.encode_transaction(tx)
    assert wire.decode_transaction(encoded) == tx
    assert len(encoded) == wire.encoded_tx_size(tx)
    suite = crypto.suite_for_class(tx.security_class)
    public = tx.access_class is AccessClass.PUBLIC
    payload_wire = tx.plaintext_len() if public else tx.plaintext_len() + 8 + suite.tag_len
    assert len(encoded) == field_sum_size(len(tx.owners), 0 if public else len(suite.enc_par),
                                          len(suite.hash_par), payload_wire,
                                          len(tx.signature))


def test_a_replace_copy_derives_its_own_size(registry, sim_backend):
    tx = helpers.make_t1_command(registry, sim_backend)
    assert tx._size == len(wire.encode_transaction(tx))  # stored when built
    for copy in (wire.decode_transaction(wire.encode_transaction(tx)),
                 dataclasses.replace(tx)):
        assert copy._size is None
        assert wire.encoded_tx_size(copy) == tx._size
    assert wire.encoded_tx_size(tx) == 199  # stored on tx
    longer = dataclasses.replace(tx, payload=tx.payload + bytes(5))
    assert wire.encoded_tx_size(longer) == 204 == len(wire.encode_transaction(longer))
    assert wire.encoded_tx_size(tx) == 199


@pytest.mark.parametrize("backend", [crypto.SIMULATED_BACKEND, SPONGENT_BACKEND],
                         ids=lambda backend: backend.name)
def test_a_transaction_stores_one_key_that_its_copies_equal(backend):
    # metrics, ledger indexes and drone sets all hold the tuple key() returns
    tx = helpers.make_t1_command(helpers.make_registry(backend), backend, seq=7)
    assert tx.key() is tx.key() and tx.key() == (helpers.GCS_ID, 7)
    decoded = wire.decode_transaction(wire.encode_transaction(tx))
    replaced = dataclasses.replace(tx, created_at_us=9)
    assert decoded.key() == replaced.key() == tx.key()
    assert decoded.key() is decoded.key() and replaced.key() is replaced.key()
    assert dataclasses.replace(tx, tx_seq=8).key() == (helpers.GCS_ID, 8)


@pytest.fixture
def verify_calls(monkeypatch):
    """The arguments of every crypto.verify call the test makes."""
    calls = []
    verify = crypto.verify

    def spy(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(crypto, "verify", spy)
    return calls


def test_a_second_verification_reads_the_stored_verdict(registry, sim_backend,
                                                          verify_calls):
    tx = helpers.make_t1_command(registry, sim_backend)
    assert tx._verified_under is None  # building signs, it does not verify
    assert txbuild.verify_transaction(tx, registry, sim_backend)
    assert len(verify_calls) == 1
    assert tx._verified_under == registry.public_key(tx.creator)
    assert txbuild.verify_transaction(tx, registry, sim_backend)
    assert len(verify_calls) == 1


def test_a_verdict_holds_only_for_its_backend_and_key(registry, sim_backend, verify_calls):
    tx = helpers.make_t1_command(registry, sim_backend)
    assert txbuild.verify_transaction(tx, registry, sim_backend)
    # the SPONGENT content digest differs, so the simulated signature fails
    assert not txbuild.verify_transaction(tx, registry, SPONGENT_BACKEND)
    assert len(verify_calls) == 2 and tx._verified_under is None
    assert txbuild.verify_transaction(tx, registry, sim_backend)
    assert len(verify_calls) == 3
    # a registry that holds another key for the creator
    other = crypto.KeyRegistry(sim_backend, key_seed=b"other")
    other.register_node(tx.creator)
    assert other.public_key(tx.creator) != registry.public_key(tx.creator)
    assert not txbuild.verify_transaction(tx, other, sim_backend)
    assert len(verify_calls) == 4
    assert txbuild.verify_transaction(tx, registry, sim_backend)  # still stored
    assert len(verify_calls) == 4


def test_a_failed_verification_is_not_stored(registry, sim_backend, verify_calls):
    tx = helpers.make_t1_command(registry, sim_backend)
    assert txbuild.verify_transaction(tx, registry, sim_backend)
    forged = dataclasses.replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
    for attempt in (1, 2):
        assert not txbuild.verify_transaction(forged, registry, sim_backend)
        assert forged._verified_under is None
        assert len(verify_calls) == 1 + attempt


def test_decode_rejects_non_utf8_metadata(registry, sim_backend):
    # metadata is compared as bytes: text that is not UTF-8 is foreign metadata
    tx = helpers.make_t1_command(registry, sim_backend)
    suite = crypto.suite_for_class(tx.security_class)
    data = bytearray(wire.encode_transaction(tx))
    enc_par_at = 31 + 4 * len(tx.owners) + 2  # the fixed fields, owners, enc_par's length
    assert data[enc_par_at:enc_par_at + len(suite.enc_par)] == suite.enc_par
    data[enc_par_at] = 0xFF
    with pytest.raises(WireError, match="metadata"):
        wire.decode_transaction(bytes(data))
    hash_par_at = enc_par_at + len(suite.enc_par) + 2
    data = bytearray(wire.encode_transaction(tx))
    assert data[hash_par_at:hash_par_at + len(suite.hash_par)] == suite.hash_par
    data[hash_par_at] = 0xC3  # a lead byte with no continuation
    with pytest.raises(WireError, match="metadata"):
        wire.decode_transaction(bytes(data))


def _valid_encodings():
    backend = crypto.SIMULATED_BACKEND
    registry = helpers.make_registry(backend)
    txs = [helpers.make_t1_command(registry, backend, seq=1),
           helpers.make_group_command(registry, backend, seq=2)]
    block = wire.build_block(3, BlockTarget.BLOCK_T1, helpers.GCS_ID, 0,
                             wire.ZERO_HASH, txs, backend)
    return [wire.encode_transaction(txs[0]), wire.encode_transaction(txs[1]),
            wire.encode_block(block)]


_VALID_ENCODINGS = _valid_encodings()


@st.composite
def hostile_bytes(draw):
    """Arbitrary bytes, or a valid encoding with bytes overwritten and cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=400))
    data = bytearray(draw(st.sampled_from(_VALID_ENCODINGS)))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))])


@settings(max_examples=300, deadline=None)
@given(hostile_bytes())
def test_decoders_raise_only_wire_error(data):
    for decode in (wire.decode_transaction, wire.decode_block):
        try:
            decode(data)
        except WireError:
            pass
