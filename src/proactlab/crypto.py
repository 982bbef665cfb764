"""Tiered lightweight cryptography: SPONGENT hashes, suite selection, keys.

Two sponge-hash variants back everything else:

  SPONGENT-88   b=88,  rate 8,  capacity 80,  45 rounds,  11-byte digest
  SPONGENT-224  b=240, rate 16, capacity 224, 120 rounds, 28-byte digest

Signing and sealing are deliberately simulation-grade: byte sizes and
processing costs are faithful to the tier (signature = key_bits/4 bytes,
sealing overhead = 8-byte nonce + tag), but confidentiality is enforced by
the key registry's possession lists rather than computational hardness.
Real public-key primitives can be slotted in behind the same suite
interface.

Digest computation is pluggable (`HashBackend`), and every function that
hashes takes the backend object: the `spongent` backend is the protocol
definition; the `simulated` backend produces size-identical digests at
simulation speed for large scenario runs.  A SPONGENT round is four 256-byte
digit tables and one base-4 parse (see `Spongent`); its digests are
memoized by message content, bounded at 1,024 entries per process, so equal
bytes are hashed once while they stay among the most recently used.  That
backend also saves the state after a prefix a caller names as shared (a
key and nonce, a signature seed, a transaction's signing bytes), 256
entries; the digest never depends on that hint.  A caller may also continue
from a backend's ``prefix_state``, which is None where that memo shares it.
"""

from __future__ import annotations

import functools
import struct
from _blake2 import blake2b  # hashlib's own blake2b, without mapping OpenSSL
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


class CryptoError(Exception):
    """Base class for crypto-layer failures."""


class TamperedError(CryptoError):
    """Sealed payload failed its integrity tag check."""


class UnsupportedTierError(CryptoError):
    """No suite covers the requested (class, mission duration) pair."""


class HashVariant(IntEnum):
    """Hash function identifiers; the value doubles as the wire hash_id."""

    SPONGENT_88 = 1
    SPONGENT_224 = 2


class SecurityClass(IntEnum):
    """Wire security level of a transaction."""

    S1 = 1
    S2_C1 = 2
    S2_C2 = 3


SBOX = (0xE, 0xD, 0xB, 0x0, 0x2, 0x1, 0x4, 0xF, 0x7, 0xA, 0x8, 0x5, 0x9, 0xC, 0x3, 0x6)

# state bits, rate bits, digest bits, rounds, LFSR width, LFSR taps, LFSR seed
_SPONGENT_PARAMS = {
    HashVariant.SPONGENT_88: (88, 8, 88, 45, 6, (5, 4), 0x05),
    HashVariant.SPONGENT_224: (240, 16, 224, 120, 7, (6, 5), 0x01),
}

DIGEST_LEN = {variant: params[2] // 8 for variant, params in _SPONGENT_PARAMS.items()}


def _lfsr_states(width: int, taps: Tuple[int, int], seed: int, rounds: int) -> List[int]:
    states = []
    value = seed
    mask = (1 << width) - 1
    for _ in range(rounds):
        states.append(value)
        feedback = ((value >> taps[0]) & 1) ^ ((value >> taps[1]) & 1)
        value = ((value << 1) | feedback) & mask
    return states


def _reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class Spongent:
    """Table-driven SPONGENT permutation and hash.

    The state is held as a little-endian integer: byte 0 of a message or
    digest corresponds to the least-significant state bits.  The bit
    permutation ``P(j) = j*n/4 mod (n-1)`` sends bit ``b`` of byte ``i`` to
    ``2i + [b >= 4] + (b mod 4)*n/4``, since ``8i*n/4 = 2i*n = 2i`` and
    ``4*n/4 = n = 1`` mod ``n-1``.  So output quarter ``q`` is the base-4
    number whose digit ``i`` is bit ``q`` + 2 * bit ``q+4`` of the S-boxed
    byte ``i``, and four 256-byte digit tables give a whole round.
    """

    def __init__(self, variant: HashVariant, sbox: Sequence[int] = SBOX):
        if sorted(sbox) != list(range(16)):
            raise CryptoError("S-box must be a permutation of 0..15")
        bits, rate, digest_bits, rounds, lw, lt, ls = _SPONGENT_PARAMS[variant]
        self.state_bytes = bits // 8
        self.rate_bytes = rate // 8
        self.digest_bytes = digest_bits // 8
        sbox8 = [sbox[v & 0xF] | (sbox[v >> 4] << 4) for v in range(256)]
        # ASCII base-4 digit of each byte, quarter 3 (the top state bits) first
        self._digits = [
            bytes(ord("0") + (sub >> q & 1) + 2 * (sub >> (q + 4) & 1) for sub in sbox8)
            for q in (3, 2, 1, 0)
        ]
        self._round_consts = [
            rc | (_reverse_bits(rc, lw) << (bits - lw))
            for rc in _lfsr_states(lw, lt, ls, rounds)
        ]

    def permute(self, state: int) -> int:
        # Big-endian bytes put each quarter's most significant digit first.
        n = self.state_bytes
        t3, t2, t1, t0 = self._digits
        for rc in self._round_consts:
            b = (state ^ rc).to_bytes(n, "big")
            state = int(b.translate(t3) + b.translate(t2) + b.translate(t1) + b.translate(t0), 4)
        return state

    def absorb(self, state: int, data: bytes) -> int:
        """``state`` after absorbing the whole rate blocks of ``data``."""
        rate = self.rate_bytes
        for off in range(0, len(data) - rate + 1, rate):
            state = self.permute(state ^ int.from_bytes(data[off:off + rate], "little"))
        return state

    def digest(self, message: bytes, prefix_len: int = 0) -> bytes:
        """Digest of ``message``, continuing from the saved state after the
        whole rate blocks of its first ``prefix_len`` bytes."""
        rate = self.rate_bytes
        cut = min(prefix_len, len(message)) // rate * rate
        state = _absorbed(self, message[:cut]) if cut else 0
        rest = message[cut:]
        state = self.absorb(state, rest + b"\x80" + b"\x00" * (-(len(rest) + 1) % rate))
        rate_mask = (1 << (8 * rate)) - 1
        out = (state & rate_mask).to_bytes(rate, "little")
        while len(out) < self.digest_bytes:
            state = self.permute(state)
            out += (state & rate_mask).to_bytes(rate, "little")
        return out[: self.digest_bytes]


# Prefix states; a leaf's prefix can be 10 KB, so the bound is small.  Keys
# hold the instance, so a differently built permutation never shares.
@functools.lru_cache(maxsize=256)
def _absorbed(inst: Spongent, prefix: bytes) -> int:
    return inst.absorb(0, prefix)


_instance = functools.cache(Spongent)


# A signature check re-expands the creator's own signing message; a call site
# passes one prefix length, so the keys compare the full message.
@functools.lru_cache(maxsize=1024)
def _spongent_memo(variant: HashVariant, message: bytes, prefix_len: int) -> bytes:
    return _instance(variant).digest(message, prefix_len)


def spongent(variant: HashVariant, message: bytes, prefix_len: int = 0) -> bytes:
    """SPONGENT digest of ``message`` under the given variant, memoized by
    content.  ``bytes()`` makes ``bytearray`` and ``memoryview`` input
    hashable, and returns ``bytes`` input itself without a copy."""
    return _spongent_memo(variant, bytes(message), prefix_len)


class HashBackend:
    """Pluggable digest provider; digests keep the variant's exact length.
    A caller passes the whole message and may name a shared ``prefix_len``,
    with that prefix's ``prefix_state``; the digest never depends on either."""

    name = "abstract"

    def prefix_state(self, variant: HashVariant, prefix: bytes) -> Optional[object]:
        """The state after ``prefix``; None where the backend saves it itself."""
        return None

    def digest(self, variant: HashVariant, message: bytes, prefix_len: int = 0,
               state=None) -> bytes:
        raise NotImplementedError

    def digest224(self, message: bytes, prefix_len: int = 0, state=None) -> bytes:
        return self.digest(HashVariant.SPONGENT_224, message, prefix_len, state)


class SpongentBackend(HashBackend):
    name = "spongent"

    def digest(self, variant: HashVariant, message: bytes, prefix_len: int = 0,
               state=None) -> bytes:
        return spongent(variant, message, prefix_len)


# Hash objects only ever copied: cheaper than building one.
_BLAKE2B = {variant: blake2b(digest_size=size, person=b"sim-spongent")
            for variant, size in DIGEST_LEN.items()}


class SimulatedBackend(HashBackend):
    """Size-faithful stand-in used for large simulation runs."""

    name = "simulated"

    def prefix_state(self, variant: HashVariant, prefix: bytes):
        state = _BLAKE2B[variant].copy()
        state.update(prefix)
        return state

    def digest(self, variant: HashVariant, message: bytes, prefix_len: int = 0,
               state=None) -> bytes:
        rest = message if state is None else message[prefix_len:]
        state = (state or _BLAKE2B[variant]).copy()
        state.update(rest)
        return state.digest()


SPONGENT_BACKEND = SpongentBackend()
SIMULATED_BACKEND = SimulatedBackend()
_BACKENDS = {b.name: b for b in (SPONGENT_BACKEND, SIMULATED_BACKEND)}


def get_backend(name: str) -> HashBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise CryptoError(f"unknown hash backend {name!r}") from None


@dataclass(frozen=True)
class SuiteCost:
    """Per-suite processing-energy coefficients in microjoules."""

    uj_per_byte: float
    uj_per_op: float


@dataclass(frozen=True)
class CryptoSuite:
    suite_id: int  # doubles as the wire enc_id for sealed transactions
    security_class: SecurityClass
    key_bits: int
    hash_variant: HashVariant
    cost: SuiteCost

    @property
    def signature_len(self) -> int:
        return self.key_bits // 4

    @property
    def tag_len(self) -> int:
        return DIGEST_LEN[self.hash_variant]

    @functools.cached_property  # one string shared by every transaction
    def enc_par(self) -> str:
        return f"key_bits={self.key_bits}"

    @functools.cached_property
    def hash_par(self) -> str:
        return f"rounds={_SPONGENT_PARAMS[self.hash_variant][3]}"


SUITE_S2_C1 = CryptoSuite(1, SecurityClass.S2_C1, 64, HashVariant.SPONGENT_88, SuiteCost(0.05, 5.0))
SUITE_S2_C2 = CryptoSuite(2, SecurityClass.S2_C2, 128, HashVariant.SPONGENT_88, SuiteCost(0.1, 10.0))
SUITE_S1 = CryptoSuite(3, SecurityClass.S1, 256, HashVariant.SPONGENT_224, SuiteCost(0.4, 40.0))

SUITES_BY_CLASS = {
    SecurityClass.S1: SUITE_S1,
    SecurityClass.S2_C1: SUITE_S2_C1,
    SecurityClass.S2_C2: SUITE_S2_C2,
}

# Temporary-security tier boundaries, in mission seconds.
SHORT_MISSION_MAX_S = 600.0
LONG_MISSION_MAX_S = 3600.0


def select_suite(mission_duration_s: float) -> CryptoSuite:
    """Pick the temporary-security (S2) cipher/hash tier for a mission length.

    S2 uses the 64-bit tier below ten minutes and the 128-bit tier up to one
    hour; longer missions have no supported tier.  Permanent-security data
    always gets the 256-bit tier, which callers name as ``SUITE_S1``.
    """
    if mission_duration_s <= 0:
        raise UnsupportedTierError("mission duration must be positive for S2")
    if mission_duration_s < SHORT_MISSION_MAX_S:
        return SUITE_S2_C1
    if mission_duration_s <= LONG_MISSION_MAX_S:
        return SUITE_S2_C2
    raise UnsupportedTierError(
        f"no S2 tier covers missions of {mission_duration_s:.0f}s (max {LONG_MISSION_MAX_S:.0f}s)"
    )


def suite_for_class(security_class: SecurityClass) -> CryptoSuite:
    return SUITES_BY_CLASS[security_class]


def _stream(backend: HashBackend, seed: bytes, length: int, counter: int = 0,
            head: bytes = b"") -> bytes:
    """Counter mode: ``head``, then the digests of ``seed`` followed by a
    32-bit counter from ``counter`` up, cut to ``length`` bytes."""
    out = bytearray(head)
    while len(out) < length:
        out += backend.digest224(seed + struct.pack("<I", counter), len(seed))
        counter += 1
    return bytes(out[:length])


def sign(suite: CryptoSuite, creator_public: bytes, digest: bytes,
         backend: HashBackend) -> bytes:
    """Signature = first signature_len bytes of the keyed digest expansion:
    the plain digest, then counter blocks from 1, so a signature up to one
    digest long is a plain truncation.

    ``digest`` must be the suite-variant hash of the signed content; any
    verifier recomputes with the claimed creator's registered public key.
    """
    seed = creator_public + digest
    return _stream(backend, seed, suite.signature_len, 1, backend.digest224(seed, len(seed)))


def verify(suite: CryptoSuite, claimed_creator_public: bytes, digest: bytes,
           signature: bytes, backend: HashBackend) -> bool:
    if len(signature) != suite.signature_len:
        return False
    return sign(suite, claimed_creator_public, digest, backend) == signature


NONCE_LEN = 8


def _xor(data: bytes, stream: bytes) -> bytes:
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return mixed.to_bytes(len(data), "little")


def seal(suite: CryptoSuite, recipient_public: bytes, nonce: bytes, plaintext: bytes,
         backend: HashBackend) -> bytes:
    """Seal ``plaintext`` to a public key: nonce || ciphertext || tag."""
    if not plaintext:
        raise CryptoError("cannot seal an empty payload")
    if len(nonce) != NONCE_LEN:
        raise CryptoError(f"nonce must be {NONCE_LEN} bytes")
    seed = recipient_public + nonce  # the keystream's and the tag's shared prefix
    ciphertext = _xor(plaintext, _stream(backend, seed, len(plaintext)))
    tag = backend.digest224(seed + ciphertext, len(seed))[: suite.tag_len]
    return nonce + ciphertext + tag


def open_sealed(suite: CryptoSuite, recipient_public: bytes, sealed: bytes,
                backend: HashBackend) -> bytes:
    """Inverse of seal(); raises TamperedError if the tag does not match."""
    if len(sealed) < NONCE_LEN + 1 + suite.tag_len:
        raise TamperedError("sealed payload too short")
    seed = recipient_public + sealed[:NONCE_LEN]
    ciphertext = sealed[NONCE_LEN:len(sealed) - suite.tag_len]
    tag = sealed[len(sealed) - suite.tag_len:]
    expected = backend.digest224(seed + ciphertext, len(seed))[: suite.tag_len]
    if expected != tag:
        raise TamperedError("sealed payload failed its tag check")
    return _xor(ciphertext, _stream(backend, seed, len(ciphertext)))


PRIVATE_SEED_LEN = 32


@dataclass(frozen=True)
class KeyPair:
    holder: int
    private_seed: bytes
    public_key: bytes


class KeyRegistry:
    """Key pairs plus the possession lists that say who may open a payload.

    A single-owner payload is openable only by its owner and a CA; a group
    payload only by the group's members and a CA.  Attacker capability is a
    simulation parameter: an agent without possession never opens.
    """

    def __init__(self, backend: HashBackend, key_seed: bytes):
        self._backend = backend
        self._key_seed = key_seed
        self._nodes: Dict[int, KeyPair] = {}
        self._cas: set[int] = set()
        self._groups: Dict[FrozenSet[int], KeyPair] = {}

    def _derive_pair(self, holder: int, label: bytes) -> KeyPair:
        seed = blake2b(
            self._key_seed + label + struct.pack("<Q", holder),
            digest_size=PRIVATE_SEED_LEN,
        ).digest()
        return KeyPair(holder, seed, self._backend.digest224(seed))

    def register_node(self, node_id: int, is_ca: bool = False) -> KeyPair:
        if node_id in self._nodes:
            raise CryptoError(f"node {node_id} already registered")
        pair = self._derive_pair(node_id, b"node")
        self._nodes[node_id] = pair
        if is_ca:
            self._cas.add(node_id)
        return pair

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def public_key(self, node_id: int) -> bytes:
        try:
            return self._nodes[node_id].public_key
        except KeyError:
            raise CryptoError(f"node {node_id} has no registered key") from None

    def group_keygen(self, ca_id: int, members: Iterable[int]) -> KeyPair:
        """CA-issued group key pair; every member and the CA may open.
        Group ids count up from 0x8000_0000 in issue order."""
        member_set = frozenset(members)
        if not member_set:
            raise CryptoError("group must have at least one member")
        if ca_id not in self._cas:
            raise CryptoError(f"node {ca_id} is not a registered CA")
        if member_set not in self._groups:
            group_id = 0x8000_0000 + len(self._groups)
            self._groups[member_set] = self._derive_pair(group_id, b"group")
        return self._groups[member_set]

    def sealing_key(self, owners: Sequence[int]) -> KeyPair:
        """Key pair a creator seals to: the owner's for single ownership,
        the group's for shared ownership."""
        if len(owners) == 1:
            return self._nodes[owners[0]]
        pair = self._groups.get(frozenset(owners))
        if pair is None:
            raise CryptoError(f"no group key registered for members {sorted(owners)}")
        return pair

    def may_open(self, agent_id: int, owners: Sequence[int]) -> bool:
        if not owners:
            return True  # public payloads are not sealed
        return agent_id in owners or agent_id in self._cas
