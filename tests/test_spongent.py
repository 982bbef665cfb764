"""Digest correctness for both hash variants.

The pinned vectors below were produced by the bit-level oracle in
spongent_oracle.py before the production implementation was written; the
oracle and the production code share no code paths.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from proactlab import crypto, txbuild
from proactlab.crypto import HashVariant, Spongent, spongent

from spongent_oracle import PARAMS, lfsr_sequence, spongent_oracle
from spongent_oracle import permute as oracle_permute

import helpers

PATTERN_1000 = bytes(i % 251 for i in range(1000))

PINNED_VECTORS = [
    (HashVariant.SPONGENT_88, b"", "a0c6c93510fe871f385a7f"),
    (HashVariant.SPONGENT_88, b"abc", "5ca730cf89c71c35f79fa3"),
    (HashVariant.SPONGENT_88, PATTERN_1000, "c71db337c162ec601ca5e4"),
    (HashVariant.SPONGENT_224, b"",
     "a5ca8fb1f4aca3e25f77420c8c4f0f9961d1485d24dcf8fd95758f33"),
    (HashVariant.SPONGENT_224, b"abc",
     "4d7bf9f6750cd79c46aa377e24fcee2607aa856cba98657cfcef5811"),
    (HashVariant.SPONGENT_224, PATTERN_1000,
     "a1d77079d26d1113ae4e0646dbc74acb926ccc591f3a1330fbd4e96b"),
]


@pytest.mark.parametrize("variant,message,expected", PINNED_VECTORS)
def test_pinned_vectors(variant, message, expected):
    assert spongent(variant, message).hex() == expected


def test_digest_lengths():
    assert len(spongent(HashVariant.SPONGENT_88, b"x")) == 11
    assert len(spongent(HashVariant.SPONGENT_224, b"x")) == 28


@pytest.mark.parametrize("variant,oracle_key",
                         [(HashVariant.SPONGENT_88, 88), (HashVariant.SPONGENT_224, 224)])
def test_matches_bit_level_oracle(variant, oracle_key):
    rng = random.Random(7)
    messages = [b"", b"\x00", b"\x80", b"ab", b"abc"]
    messages += [bytes(rng.randrange(256) for _ in range(n)) for n in (1, 2, 3, 15, 16, 17, 33)]
    for message in messages:
        assert spongent(variant, message) == spongent_oracle(oracle_key, message)


def test_lfsr_terminates_all_ones():
    # The round-constant register must hold the all-ones state after the
    # final round; this pins the polynomial/seed pairs.
    for _, (b, r, n, rounds, width, taps, seed) in PARAMS.items():
        states = lfsr_sequence(width, taps, seed, rounds + 1)
        assert states[rounds] == (1 << width) - 1


def test_avalanche_mean_bit_difference():
    rng = random.Random(42)
    base = bytes(rng.randrange(256) for _ in range(16))
    reference = spongent(HashVariant.SPONGENT_224, base)
    total_bits = len(reference) * 8
    diffs = []
    for _ in range(100):
        pos = rng.randrange(len(base) * 8)
        flipped = bytearray(base)
        flipped[pos // 8] ^= 1 << (pos % 8)
        other = spongent(HashVariant.SPONGENT_224, bytes(flipped))
        diffs.append(sum(bin(a ^ b).count("1") for a, b in zip(reference, other)))
    mean_fraction = sum(diffs) / len(diffs) / total_bits
    assert mean_fraction >= 0.25


def test_corrupted_sbox_breaks_vectors():
    # Deliberate fault: swapping two S-box entries must change the digest.
    bad_sbox = list(crypto.SBOX)
    bad_sbox[0], bad_sbox[1] = bad_sbox[1], bad_sbox[0]
    faulty = Spongent(HashVariant.SPONGENT_88, sbox=bad_sbox)
    assert faulty.digest(b"").hex() != PINNED_VECTORS[0][2]


@pytest.mark.parametrize("entry,value", [(0, 16), (1, crypto.SBOX[0])],
                         ids=["out-of-range", "repeated"])
def test_malformed_sbox_is_rejected(entry, value):
    # An entry of 16 or more would bleed into the other nibble's digits.
    bad_sbox = list(crypto.SBOX)
    bad_sbox[entry] = value
    with pytest.raises(crypto.CryptoError):
        Spongent(HashVariant.SPONGENT_88, sbox=bad_sbox)


def test_simulated_backend_is_size_faithful_and_distinct():
    sim = crypto.SIMULATED_BACKEND
    for variant, length in ((HashVariant.SPONGENT_88, 11), (HashVariant.SPONGENT_224, 28)):
        digest = sim.digest(variant, b"abc")
        assert len(digest) == length
        assert digest == sim.digest(variant, b"abc")
        assert digest != spongent(variant, b"abc")
    assert sim.digest(HashVariant.SPONGENT_88, b"a") != sim.digest(HashVariant.SPONGENT_88, b"b")


@pytest.mark.parametrize("variant", list(HashVariant))
@pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
def test_memo_matches_fresh_digest_for_any_bytes_like(variant, wrap):
    crypto._spongent_memo.cache_clear()
    message = b"memo check " + bytes(range(20))
    expected = Spongent(variant).digest(message)
    assert spongent(variant, wrap(message)) == expected  # computed
    assert spongent(variant, wrap(message)) == expected  # from the memo
    assert crypto._spongent_memo.cache_info().hits == 1


def test_memo_key_includes_the_variant():
    crypto._spongent_memo.cache_clear()
    message = b"same bytes, two variants"
    short = spongent(HashVariant.SPONGENT_88, message)
    long = spongent(HashVariant.SPONGENT_224, message)
    assert short == Spongent(HashVariant.SPONGENT_88).digest(message)
    assert long == Spongent(HashVariant.SPONGENT_224).digest(message)


def test_memo_does_not_accept_a_tampered_copy():
    backend = crypto.SPONGENT_BACKEND
    registry = helpers.make_registry(backend)
    tx = helpers.make_t1_command(registry, backend)
    assert txbuild.verify_transaction(tx, registry, backend)
    payload = bytearray(tx.payload)
    payload[0] ^= 1
    tampered = dataclasses.replace(tx, payload=bytes(payload))
    assert not txbuild.verify_transaction(tampered, registry, backend)


def _permute_test_states(bits):
    ones = (1 << bits) - 1
    if bits == 88:
        singles = range(bits)
    else:
        # bytes 0 and 29 (the fixed top bit 239 among them) and each edge
        # between the four output quarters
        singles = [*range(8), *range(232, 240), 59, 60, 119, 120, 179, 180]
    rng = random.Random(bits)
    return [0, ones, *(1 << k for k in singles), *(rng.getrandbits(bits) for _ in range(8))]


@pytest.mark.parametrize("variant,oracle_key",
                         [(HashVariant.SPONGENT_88, 88), (HashVariant.SPONGENT_224, 224)],
                         ids=["88", "224"])
def test_permute_matches_bit_level_oracle(variant, oracle_key):
    b, _, _, rounds, width, taps, seed = PARAMS[oracle_key]
    perm = Spongent(variant)
    for state in _permute_test_states(b):
        expected = oracle_permute([(state >> k) & 1 for k in range(b)],
                                  b, rounds, width, taps, seed)
        assert perm.permute(state) == sum(bit << k for k, bit in enumerate(expected))


BACKENDS = [crypto.SPONGENT_BACKEND, crypto.SIMULATED_BACKEND]


def _check_every_prefix_length(backend, variant, message):
    # named as a hint, or continued from the backend's saved prefix state
    expected = backend.digest(variant, message)
    for k in range(len(message) + 1):
        assert backend.digest(variant, message, k) == expected
        state = backend.prefix_state(variant, message[:k])
        assert backend.digest(variant, message, k, state) == expected


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(list(HashVariant)), message=st.binary(max_size=20))
@example(variant=HashVariant.SPONGENT_88, message=b"")
@example(variant=HashVariant.SPONGENT_224, message=b"")
@example(variant=HashVariant.SPONGENT_224, message=bytes(17))
def test_spongent_prefix_length_never_changes_the_digest(variant, message):
    # Every k up to len(message), on and off SPONGENT-224's 2-byte rate.
    _check_every_prefix_length(crypto.SPONGENT_BACKEND, variant, message)


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(list(HashVariant)), message=st.binary(max_size=300))
@example(variant=HashVariant.SPONGENT_224, message=b"")
@example(variant=HashVariant.SPONGENT_88, message=bytes(range(256)) + bytes(44))
def test_simulated_prefix_length_never_changes_the_digest(variant, message):
    # Prefixes below, at and past a 128-byte blake2b block.
    _check_every_prefix_length(crypto.SIMULATED_BACKEND, variant, message)


def test_saved_prefix_state_is_reused():
    crypto._spongent_memo.cache_clear()
    crypto._absorbed.cache_clear()
    prefix = bytes(range(200))
    for backend in BACKENDS:
        for counter in (b"\x00", b"\x01"):
            backend.digest224(prefix + counter, len(prefix))
    assert crypto._absorbed.cache_info().hits == 1


@pytest.mark.parametrize("variant", list(HashVariant))
def test_prefix_state_is_never_shared_with_another_permutation(variant):
    bad_sbox = list(crypto.SBOX)
    bad_sbox[0], bad_sbox[1] = bad_sbox[1], bad_sbox[0]
    real, faulty = Spongent(variant), Spongent(variant, sbox=bad_sbox)
    message = bytes(range(20))
    saved = real.digest(message, 16)
    assert faulty.digest(message, 16) == faulty.digest(message) != saved
