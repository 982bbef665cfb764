"""Suite selection, signing, sealing, and key-possession enforcement."""

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from proactlab import crypto, wire
from proactlab.crypto import (
    HashVariant,
    SecurityClass,
    TamperedError,
    UnsupportedTierError,
    select_suite,
)

import helpers

BACKEND = crypto.SIMULATED_BACKEND


def test_blake2b_is_the_one_hashlib_serves():
    # crypto takes blake2b from _blake2, so no import maps OpenSSL's libcrypto
    # (tests/test_cli.py checks a whole run); it must be the object hashlib serves
    import hashlib

    assert crypto.blake2b is hashlib.blake2b


def test_suite_table_mapping():
    assert crypto.SUITE_S1.key_bits == 256
    assert crypto.SUITE_S1.hash_variant is HashVariant.SPONGENT_224
    assert crypto.SUITE_S2_C1.key_bits == 64
    assert crypto.SUITE_S2_C1.hash_variant is HashVariant.SPONGENT_88
    assert crypto.SUITE_S2_C2.key_bits == 128
    assert crypto.SUITE_S2_C2.hash_variant is HashVariant.SPONGENT_88


def test_signature_and_tag_lengths_follow_key_bits():
    assert [s.signature_len for s in (crypto.SUITE_S2_C1, crypto.SUITE_S2_C2, crypto.SUITE_S1)] == [16, 32, 64]
    assert crypto.SUITE_S2_C1.tag_len == 11
    assert crypto.SUITE_S1.tag_len == 28


def test_select_suite_short_mission():
    suite = select_suite(540)
    assert suite.key_bits == 64
    assert suite.hash_variant is HashVariant.SPONGENT_88


def test_select_suite_boundary_at_600s_goes_to_128():
    assert select_suite(600).key_bits == 128
    assert select_suite(599.999).key_bits == 64
    assert select_suite(3600).key_bits == 128


def test_select_suite_rejects_unsupported_tier():
    with pytest.raises(UnsupportedTierError):
        select_suite(3601)
    with pytest.raises(UnsupportedTierError):
        select_suite(0)


def test_only_three_class_suites_exist():
    assert set(crypto.SUITES_BY_CLASS) == set(SecurityClass)
    assert len({s.suite_id for s in crypto.SUITES_BY_CLASS.values()}) == 3


@pytest.mark.parametrize("suite", [crypto.SUITE_S2_C1, crypto.SUITE_S2_C2, crypto.SUITE_S1])
def test_sign_verify_roundtrip(suite, registry):
    digest = BACKEND.digest(suite.hash_variant, b"body bytes")
    public = registry.public_key(helpers.GCS_ID)
    signature = crypto.sign(suite, public, digest, BACKEND)
    assert len(signature) == suite.signature_len
    assert crypto.verify(suite, public, digest, signature, BACKEND)


def test_verify_rejects_other_key(registry):
    suite = crypto.SUITE_S2_C1
    digest = BACKEND.digest(suite.hash_variant, b"forged content")
    attacker_public = registry.public_key(helpers.DRONE_B)
    claimed_public = registry.public_key(helpers.GCS_ID)
    signature = crypto.sign(suite, attacker_public, digest, BACKEND)
    assert not crypto.verify(suite, claimed_public, digest, signature, BACKEND)


def test_verify_rejects_flipped_content(registry):
    suite = crypto.SUITE_S1
    public = registry.public_key(helpers.GCS_ID)
    digest = BACKEND.digest(suite.hash_variant, b"payload")
    signature = crypto.sign(suite, public, digest, BACKEND)
    tampered = BACKEND.digest(suite.hash_variant, b"paYload")
    assert not crypto.verify(suite, public, tampered, signature, BACKEND)


def test_verify_rejects_wrong_length_signature(registry):
    suite = crypto.SUITE_S2_C1
    digest = BACKEND.digest(suite.hash_variant, b"x")
    public = registry.public_key(helpers.GCS_ID)
    assert not crypto.verify(suite, public, digest, b"short", BACKEND)


@pytest.mark.parametrize("suite", [crypto.SUITE_S2_C1, crypto.SUITE_S2_C2, crypto.SUITE_S1])
@pytest.mark.parametrize("length", [1, 27, 28, 29, 100, 4096])
def test_seal_open_roundtrip(suite, length, registry):
    public = registry.public_key(helpers.DRONE_A)
    plaintext = bytes((i * 13) % 256 for i in range(length))
    sealed = crypto.seal(suite, public, bytes(8), plaintext, BACKEND)
    assert len(sealed) == crypto.NONCE_LEN + length + suite.tag_len
    assert crypto.open_sealed(suite, public, sealed, BACKEND) == plaintext


def test_seal_rejects_empty_plaintext(registry):
    with pytest.raises(crypto.CryptoError):
        crypto.seal(crypto.SUITE_S1, registry.public_key(helpers.DRONE_A),
                    bytes(8), b"", BACKEND)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=1, max_size=512), corrupt_at=st.integers(min_value=0))
def test_any_single_byte_corruption_is_detected(data, corrupt_at):
    registry = helpers.make_registry(BACKEND)
    suite = crypto.SUITE_S2_C2
    public = registry.public_key(helpers.DRONE_A)
    sealed = bytearray(crypto.seal(suite, public, bytes(8), data, BACKEND))
    pos = 8 + corrupt_at % (len(sealed) - 8 - suite.tag_len)  # inside ciphertext
    sealed[pos] ^= 0x5A
    with pytest.raises(TamperedError):
        crypto.open_sealed(suite, public, bytes(sealed), BACKEND)


def _open(registry, suite, owners, sealed):
    """Open a payload with the key it was sealed to."""
    return crypto.open_sealed(suite, registry.sealing_key(owners), sealed,
                              BACKEND)


def test_group_key_openable_by_all_members(registry):
    members = helpers.GROUP_MEMBERS
    group = registry.group_keygen(helpers.CA_ID, members)
    suite = crypto.SUITE_S2_C1
    sealed = crypto.seal(suite, group, bytes(8), b"task", BACKEND)
    assert registry.sealing_key(members) == group
    for member in members:
        assert registry.may_open(member, members)
    assert _open(registry, suite, members, sealed) == b"task"


def test_non_member_is_denied(registry):
    members = helpers.GROUP_MEMBERS[:5]
    registry.group_keygen(helpers.CA_ID, members)
    outsider = helpers.GROUP_MEMBERS[6]
    assert not registry.may_open(outsider, members)


def test_ca_can_open_any_group_payload(registry):
    members = helpers.GROUP_MEMBERS[:3]
    group = registry.group_keygen(helpers.CA_ID, members)
    suite = crypto.SUITE_S2_C2
    sealed = crypto.seal(suite, group, bytes(8), b"secret", BACKEND)
    assert registry.may_open(helpers.CA_ID, members)
    assert _open(registry, suite, members, sealed) == b"secret"


def test_single_owner_payload_only_owner_and_ca(registry):
    suite = crypto.SUITE_S1
    public = registry.public_key(helpers.DRONE_A)
    sealed = crypto.seal(suite, public, bytes(8), b"private", BACKEND)
    owners = (helpers.DRONE_A,)
    assert registry.may_open(helpers.DRONE_A, owners)
    assert registry.may_open(helpers.CA_ID, owners)
    assert not registry.may_open(helpers.DRONE_B, owners)
    assert _open(registry, suite, owners, sealed) == b"private"


def test_group_keygen_rejects_empty_members(registry):
    with pytest.raises(crypto.CryptoError):
        registry.group_keygen(helpers.CA_ID, [])


def test_group_keygen_requires_ca(registry):
    with pytest.raises(crypto.CryptoError):
        registry.group_keygen(helpers.GCS_ID, helpers.GROUP_MEMBERS)


def test_public_key_derived_from_seed(registry):
    # a node's private seed is blake2b-256 of key seed ‖ b"node" ‖ its id (u64, little-endian)
    seed = hashlib.blake2b(helpers.KEY_SEED + b"node" + struct.pack("<Q", helpers.DRONE_A),
                           digest_size=crypto.PRIVATE_SEED_LEN).digest()
    public = registry.sealing_key((helpers.DRONE_A,))
    assert public == BACKEND.digest224(seed) == registry.public_key(helpers.DRONE_A)
    assert len(public) == 28


def test_registry_rejects_duplicate_registration(registry):
    with pytest.raises(crypto.CryptoError):
        registry.register_node(helpers.DRONE_A)


# Outputs of the primitives for fixed inputs, pinned byte for byte on both
# backends; a hashing speed-up must leave every one of them unchanged.
PINNED_PRIMITIVES = {
    "spongent": {
        "sign": {
            1: "a5d04494114caba2229a4aaeaefcf9f4",
            2: "a5d04494114caba2229a4aaeaefcf9f4742fc9435d491c50b099019b60cccaed",
            3: "7079853f48f1fa3791c4681e09ec6caef232b02f32a69fe6b447c04836d8ed7b"
               "95ae83091abbf23e14de6704cc32acc6b2c07d4958c97c0ad0b10eacfe094a7d",
        },
        "seal": "0001020304050607108bb047990cf7fb6a8a0741a85392145aa46b2f75cb347d"
                "00204d9240b2cc2b2075643766e106039806587b7a0d3b9d886c1bd2782e21b9"
                "6f7fda58c9e81d57eb18b570",
        "body_root": "2bd6b740cc6893b0fe5389f29f5e00ebe4cfff70fa188f44dbdae874",
    },
    "simulated": {
        "sign": {
            1: "45df8d010c6a7a27f27d5b4a1703e665",
            2: "45df8d010c6a7a27f27d5b4a1703e66533e9b337c88298a6c1e33a24dc1cf8b0",
            3: "bf787370dcafc639b00b382c86e31c3ff2c346a03320f8cc1dbccac311dd2497"
               "8c3249671fc5a79647ecc6da832f2cc7dd287c31b91812ba5aedd71a1e6bd84b",
        },
        "seal": "0001020304050607af897222cbb9d3e3291d31d86a2894d0fb2f560b4612cb92"
                "85210f35fcf7391cbc4cf4a12bc8e8588201d77ab4b65ca812715ecf07599a24"
                "eee676cfc857deb8bae96ef9",
        "body_root": "de706b1f8b1b47466be180942eb49ea8fbfc270e1f4d54022c79f360",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_PRIMITIVES))
def test_primitive_outputs_are_pinned(name):
    backend = crypto.BACKENDS[name]
    pinned = PINNED_PRIMITIVES[name]
    registry = helpers.make_registry(backend)
    public = registry.public_key(helpers.GCS_ID)
    for suite in (crypto.SUITE_S2_C1, crypto.SUITE_S2_C2, crypto.SUITE_S1):
        digest = backend.digest(suite.hash_variant, b"pinned signed content")
        assert crypto.sign(suite, public, digest, backend).hex() == pinned["sign"][suite.suite_id]
    recipient = registry.public_key(helpers.DRONE_A)
    plaintext = bytes(range(40))
    sealed = crypto.seal(crypto.SUITE_S1, recipient, bytes(range(8)), plaintext, backend)
    assert sealed.hex() == pinned["seal"]
    assert crypto.open_sealed(crypto.SUITE_S1, recipient, sealed, backend) == plaintext
    txs = [helpers.make_t1_command(registry, backend),
           helpers.make_t3_data(registry, backend, plaintext=bytes(range(60))),
           helpers.make_group_command(registry, backend)]
    assert wire.body_root(txs, backend).hex() == pinned["body_root"]
