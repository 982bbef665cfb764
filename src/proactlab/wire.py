"""Canonical byte-exact encodings for transactions, headers, and blocks.

All integers are little-endian.  Transaction layout:

    creator(4) tx_seq(8) created_at_us(8) topic(4) access_class(1)
    owner_count(2) owners(4*n) security_class(1) block_target(1)
    enc_id(1) hash_id(1) enc_par_len(2)+enc_par hash_par_len(2)+hash_par
    payload_len(4)+payload sig_len(1)+signature

Block header layout (80 bytes before the access list):

    version(1) block_id(8) block_type(1) miner(4) timestamp_us(8)
    prev_hash(28) merkle_root(28) tx_count(2) ta_entries...

Each access-list entry is tx_index(2) access_class(1) owner_count(2)
owners(4 each).  The block hash covers the header bytes only; the Merkle
root commits to the body.  Values are immutable after construction and all
operations here are pure functions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .crypto import (
    DIGEST_LEN,
    NONCE_LEN,
    HashBackend,
    HashVariant,
    SecurityClass,
    blake2b,
    suite_for_class,
)

HASH_LEN = DIGEST_LEN[HashVariant.SPONGENT_224]
ZERO_HASH = bytes(HASH_LEN)
COMMIT_LEN = 16  # blake2b-128
WIRE_VERSION = 1

# The fixed-width runs of the layouts above; each encoder and its decoder
# use these, and the sizes below are derived from them.
_TX_HEAD = "<IQQIBH"     # creator .. owner_count
_TX_SUITE = "<BBBB"      # security_class block_target enc_id hash_id
_HEADER_HEAD = "<BQBIQ"  # version .. timestamp_us
_TA_ENTRY_HEAD = "<HBH"  # tx_index access_class owner_count
# The length prefixes of enc_par, hash_par, payload and signature.
_TX_PREFIXES = ("<H", "<H", "<I", "<B")
_ENC_PAR_LEN, _HASH_PAR_LEN, _PAYLOAD_LEN, _SIG_LEN = _TX_PREFIXES

TX_FIXED_LEN = struct.calcsize(_TX_HEAD) + struct.calcsize(_TX_SUITE)
# The bytes of a transaction that do not depend on its contents.
_TX_BASE_LEN = TX_FIXED_LEN + sum(map(struct.calcsize, _TX_PREFIXES))
HEADER_FIXED_LEN = struct.calcsize(_HEADER_HEAD) + 2 * HASH_LEN + struct.calcsize("<H")
_TA_ENTRY_LEN = struct.calcsize(_TA_ENTRY_HEAD)


class WireError(Exception):
    """Raised for any malformed, inconsistent, or truncated encoding."""


class AccessClass(IntEnum):
    """Who may read a transaction: everyone, one owner, or a group."""

    PUBLIC = 1
    SINGLE = 2
    GROUP = 3


class BlockTarget(IntEnum):
    """BLOCK_T1 blocks are stored on drones and ground stations; BLOCK_T2
    blocks stay on the ground stations only."""

    BLOCK_T1 = 1
    BLOCK_T2 = 2


# Set by _with_facts, block_hash, validate, encoded_tx_size; a replace() copy lacks
# them.  Transaction._key is the exception: __post_init__ sets it on every object.
_memo = partial(field, default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transaction.  Its payload is held as the bytes before their
    trailing run of zeros (``payload``) plus the length of that run
    (``payload_zeros``); the wire bytes and every digest are those of the
    whole payload.  The form is canonical: a ``payload`` given with a zero
    tail has that tail moved into (added to) the count."""

    creator: int
    tx_seq: int
    created_at_us: int
    topic: int
    access_class: AccessClass
    owners: Tuple[int, ...]
    security_class: SecurityClass
    block_target: BlockTarget
    enc_id: int
    hash_id: int
    enc_par: str
    hash_par: str
    payload: bytes
    payload_zeros: int
    signature: bytes
    _valid: Optional[bool] = _memo()
    _facts: Optional[Tuple[HashBackend, bytes]] = _memo()  # content ‖ leaf ‖ commit
    _size: Optional[int] = _memo()
    _key: Tuple[int, int] = _memo()

    def __post_init__(self) -> None:
        if self.payload[-1:] == b"\0":
            head = self.payload.rstrip(b"\0")
            object.__setattr__(self, "payload_zeros",
                               self.payload_zeros + len(self.payload) - len(head))
            object.__setattr__(self, "payload", head)
        object.__setattr__(self, "_key", (self.creator, self.tx_seq))

    def key(self) -> Tuple[int, int]:
        """(creator, tx_seq), one tuple per object, shared by every index that keys on it."""
        return self._key

    def payload_len(self) -> int:
        """The length of the whole payload, as written on the wire."""
        return len(self.payload) + self.payload_zeros

    def plaintext_len(self) -> int:
        """Original payload size before sealing (the BTO baseline)."""
        if self.access_class is AccessClass.PUBLIC:
            return self.payload_len()
        suite = suite_for_class(self.security_class)
        return self.payload_len() - NONCE_LEN - suite.tag_len

    def validate(self) -> None:
        """Raise WireError unless the fields agree; a passed object is not checked again."""
        if self._valid:
            return
        n_owners = len(self.owners)
        bad_owner_count = (
            (self.access_class is AccessClass.PUBLIC and n_owners != 0)
            or (self.access_class is AccessClass.SINGLE and n_owners != 1)
            or (self.access_class is AccessClass.GROUP and n_owners < 2)
        )
        if bad_owner_count:
            raise WireError(f"access class {self.access_class.name} cannot have {n_owners} owners")
        if not self.payload_len():
            raise WireError("payload must be non-empty")
        suite = suite_for_class(self.security_class)
        if self.access_class is AccessClass.PUBLIC:
            if self.enc_id != 0 or self.enc_par:
                raise WireError("public transactions carry no encryption metadata")
        else:
            if self.enc_id != suite.suite_id:
                raise WireError(f"enc_id {self.enc_id} does not match suite {suite.suite_id}")
            if self.payload_len() <= NONCE_LEN + suite.tag_len:
                raise WireError("sealed payload shorter than nonce plus tag")
        if self.hash_id != suite.hash_variant.value:
            raise WireError(f"hash_id {self.hash_id} does not match the suite")
        if len(self.signature) != suite.signature_len:
            raise WireError(f"signature length {len(self.signature)} != suite's "
                            f"{suite.signature_len}")
        object.__setattr__(self, "_valid", True)


@dataclass(frozen=True, slots=True)
class TAEntry:
    """Header mirror of one transaction's access class and owners."""

    tx_index: int
    access_class: AccessClass
    owners: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BlockHeader:
    version: int
    block_id: int
    block_type: BlockTarget
    miner: int
    timestamp_us: int
    prev_hash: bytes
    merkle_root: bytes
    ta_list: Tuple[TAEntry, ...]
    _digest: Optional[Tuple[HashBackend, bytes]] = _memo()


@dataclass(frozen=True)
class Block:
    """A header and its body.

    The cached properties below are the delivery facts: derived once per
    Block object and shared by every station and drone that receives it.
    They live in the instance ``__dict__``, so equality and hashing stay
    field-based, and a ``dataclasses.replace`` copy derives its own.
    """

    header: BlockHeader
    transactions: Tuple[Transaction, ...]

    @property
    def block_id(self) -> int:
        return self.header.block_id

    @cached_property
    def encoded_size(self) -> int:
        return encoded_block_size(self)

    @cached_property
    def tx_overheads(self) -> Tuple[float, ...]:
        """Storage overhead of each transaction, in transaction order."""
        return tuple(tx_overhead(tx) for tx in self.transactions)

    @cached_property
    def owner_index(self) -> Dict[int, Tuple[int, ...]]:
        """Owner id -> indices of the transactions it owns, ascending."""
        index: Dict[int, List[int]] = {}
        for i, tx in enumerate(self.transactions):
            for owner in tx.owners:
                index.setdefault(owner, []).append(i)
        return {owner: tuple(indices) for owner, indices in index.items()}

    @cached_property
    def tx_locations(self) -> Dict[Tuple[int, int], int]:
        """Transaction key -> its index in this block, read by both ledger kinds."""
        return {tx.key(): i for i, tx in enumerate(self.transactions)}


_SIGNED_FIELDS = attrgetter(*Transaction.__match_args__[:-1])  # in layout order, unsigned


def _signing_bytes(creator, tx_seq, created_at_us, topic, access_class, owners, security_class,
                   block_target, enc_id, hash_id, enc_par, hash_par, payload,
                   payload_zeros) -> bytes:
    """Every encoded field preceding the signature length: what a creator signs."""
    enc_par_bytes, hash_par_bytes = enc_par.encode(), hash_par.encode()
    return b"".join((
        struct.pack(_TX_HEAD, creator, tx_seq, created_at_us, topic, access_class, len(owners)),
        struct.pack(f"<{len(owners)}I", *owners),
        struct.pack(_TX_SUITE, security_class, block_target, enc_id, hash_id),
        struct.pack(_ENC_PAR_LEN, len(enc_par_bytes)), enc_par_bytes,
        struct.pack(_HASH_PAR_LEN, len(hash_par_bytes)), hash_par_bytes,
        struct.pack(_PAYLOAD_LEN, len(payload) + payload_zeros), payload, bytes(payload_zeros),
    ))


def _with_facts(signing, security_class, backend, make: Callable[[bytes], Transaction]):
    """``make(content digest)`` with (backend, content digest ‖ Merkle leaf ‖ commit
    digest) stored; the leaf continues the SPONGENT-224 state after ``signing``."""
    variant = suite_for_class(security_class).hash_variant
    state = backend.prefix_state(HashVariant.SPONGENT_224, signing)
    content = backend.digest(variant, signing, len(signing),
                             state if variant is HashVariant.SPONGENT_224 else None)
    tx = make(content)
    encoded = signing + (struct.pack(_SIG_LEN, len(tx.signature)) + tx.signature)
    object.__setattr__(tx, "_facts", (backend, content + backend.digest224(
        encoded, len(signing), state) + blake2b(encoded, digest_size=COMMIT_LEN).digest()))
    return tx


def new_transaction(sign: Callable[[bytes], bytes], backend: HashBackend, **fields) -> Transaction:
    """The validated transaction of ``fields`` (all but the signature) and
    ``sign(content digest)``, its derived facts stored."""
    tx = _with_facts(_signing_bytes(**fields), fields["security_class"], backend,
                     lambda content: Transaction(**fields, signature=sign(content)))
    tx.validate()
    return tx


def _stored_facts(tx: Transaction, backend: HashBackend) -> bytes:
    """The stored facts, all derived afresh unless ``backend`` derived them: the
    fields are immutable, so a stored fact equals a fresh computation.  The content
    digest's length depends on the suite, so each part is sliced from the end."""
    if tx._facts is None or tx._facts[0] is not backend:
        _with_facts(_signing_bytes(*_SIGNED_FIELDS(tx)), tx.security_class, backend, lambda _: tx)
    return tx._facts[1]


def content_digest(tx: Transaction, backend: HashBackend) -> bytes:
    """The suite-variant digest of the signing bytes, which a creator signs."""
    return _stored_facts(tx, backend)[:-HASH_LEN - COMMIT_LEN]


def leaf_digest(tx: Transaction, backend: HashBackend) -> bytes:
    """The SPONGENT-224 digest of the encoding; WireError for an invalid transaction."""
    tx.validate()
    return _stored_facts(tx, backend)[-HASH_LEN - COMMIT_LEN:-COMMIT_LEN]


def commit_digest(tx: Transaction, backend: HashBackend) -> bytes:
    """The blake2b-128 of the encoding, on every backend: a committed fingerprint entry."""
    return _stored_facts(tx, backend)[-COMMIT_LEN:]


def encode_transaction(tx: Transaction) -> bytes:
    tx.validate()
    return _signing_bytes(*_SIGNED_FIELDS(tx)) + (struct.pack(_SIG_LEN, len(tx.signature))
                                                  + tx.signature)


def encoded_tx_size(tx: Transaction) -> int:
    """Wire size without materializing the encoding, derived once per object;
    the metadata strings count in UTF-8 bytes, as they are written."""
    if tx._size is None:
        object.__setattr__(tx, "_size", _TX_BASE_LEN + 4 * len(tx.owners) + tx.payload_len()
                           + len(tx.enc_par.encode() + tx.hash_par.encode()) + len(tx.signature))
    return tx._size


def tx_overhead(tx: Transaction) -> float:
    """Blockchain size overhead of one transaction: (S_TB - S_TO) / S_TO."""
    original = tx.plaintext_len()
    return (encoded_tx_size(tx) - original) / original


class _Reader:
    """Reads struct runs and byte strings off the front of an encoding.
    Short input and trailing bytes raise ``error``, so each decoding module
    reports its own error type."""

    def __init__(self, data: bytes, error: type = WireError):
        self.data = data
        self.pos = 0
        self.error = error

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self.error(f"truncated input: {n} bytes wanted at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise WireError("metadata string is not valid UTF-8") from None

    def end(self) -> None:
        """An encoding is canonical: nothing may follow its last field."""
        if self.pos != len(self.data):
            raise self.error(f"{len(self.data) - self.pos} trailing bytes after the encoding")

    def last(self, fmt: str) -> tuple:
        """Unpack the run that ends the encoding."""
        values = self.unpack(fmt)
        self.end()
        return values


def _decode_transaction(reader: _Reader) -> Transaction:
    creator, tx_seq, created, topic, access_raw, owner_count = reader.unpack(_TX_HEAD)
    try:
        access = AccessClass(access_raw)
    except ValueError:
        raise WireError(f"unknown access class {access_raw}") from None
    owners = reader.unpack(f"<{owner_count}I") if owner_count else ()
    sec_raw, target_raw, enc_id, hash_id = reader.unpack(_TX_SUITE)
    try:
        sec = SecurityClass(sec_raw)
        target = BlockTarget(target_raw)
    except ValueError:
        raise WireError("unknown security class or block target") from None
    enc_par = reader.text(*reader.unpack(_ENC_PAR_LEN))
    hash_par = reader.text(*reader.unpack(_HASH_PAR_LEN))
    payload = reader.take(*reader.unpack(_PAYLOAD_LEN))
    signature = reader.take(*reader.unpack(_SIG_LEN))
    tx = Transaction(creator, tx_seq, created, topic, access, tuple(owners),
                     sec, target, enc_id, hash_id, enc_par, hash_par,
                     payload, 0, signature)
    tx.validate()
    return tx


def decode_transaction(data: bytes) -> Transaction:
    reader = _Reader(data)
    tx = _decode_transaction(reader)
    reader.end()
    return tx


def ta_list_for(transactions: Sequence[Transaction]) -> Tuple[TAEntry, ...]:
    return tuple(
        TAEntry(i, tx.access_class, tx.owners) for i, tx in enumerate(transactions)
    )


def encode_header(header: BlockHeader) -> bytes:
    if len(header.prev_hash) != HASH_LEN or len(header.merkle_root) != HASH_LEN:
        raise WireError("header digests must be 28 bytes")
    parts = [
        struct.pack(_HEADER_HEAD, header.version, header.block_id, header.block_type,
                    header.miner, header.timestamp_us),
        header.prev_hash,
        header.merkle_root,
        struct.pack("<H", len(header.ta_list)),
    ]
    for entry in header.ta_list:
        parts.append(struct.pack(_TA_ENTRY_HEAD, entry.tx_index, entry.access_class,
                                 len(entry.owners)))
        parts.append(struct.pack(f"<{len(entry.owners)}I", *entry.owners))
    return b"".join(parts)


def encoded_header_size(ta_list: Sequence[TAEntry]) -> int:
    return HEADER_FIXED_LEN + sum(_TA_ENTRY_LEN + 4 * len(e.owners) for e in ta_list)


def encoded_block_size(block: Block) -> int:
    return (encoded_header_size(block.header.ta_list)
            + sum(encoded_tx_size(tx) for tx in block.transactions))


def ta_mismatches(header: BlockHeader,
                  transactions: Sequence[Transaction]) -> Optional[List[int]]:
    """Indices of the access-list entries that do not mirror their
    transaction; None when the list and the body differ in length."""
    if len(header.ta_list) != len(transactions):
        return None
    return [i for i, (entry, tx) in enumerate(zip(header.ta_list, transactions))
            if entry.tx_index != i or entry.access_class is not tx.access_class
            or entry.owners != tx.owners]


def type_mismatches(header: BlockHeader, transactions: Sequence[Transaction]) -> List[int]:
    """Indices of the transactions whose target differs from the block type."""
    return [i for i, tx in enumerate(transactions)
            if tx.block_target is not header.block_type]


def _check_ta(header: BlockHeader, transactions: Sequence[Transaction]) -> None:
    differing = ta_mismatches(header, transactions)
    if differing is None:
        raise WireError("access list length does not match transaction count")
    if differing:
        raise WireError(f"access list entry {differing[0]} does not mirror its transaction")
    if type_mismatches(header, transactions):
        raise WireError("transaction block target differs from the block type")


def encode_block(block: Block) -> bytes:
    _check_ta(block.header, block.transactions)
    parts = [encode_header(block.header)]
    parts.extend(encode_transaction(tx) for tx in block.transactions)
    return b"".join(parts)


def decode_block(data: bytes) -> Block:
    reader = _Reader(data)
    version, block_id, type_raw, miner, timestamp = reader.unpack(_HEADER_HEAD)
    try:
        block_type = BlockTarget(type_raw)
    except ValueError:
        raise WireError(f"unknown block type {type_raw}") from None
    prev_hash = reader.take(HASH_LEN)
    merkle = reader.take(HASH_LEN)
    (tx_count,) = reader.unpack("<H")
    ta_entries = []
    for _ in range(tx_count):
        tx_index, access_raw, owner_count = reader.unpack(_TA_ENTRY_HEAD)
        try:
            access = AccessClass(access_raw)
        except ValueError:
            raise WireError(f"unknown access class {access_raw}") from None
        owners = reader.unpack(f"<{owner_count}I") if owner_count else ()
        ta_entries.append(TAEntry(tx_index, access, tuple(owners)))
    transactions = tuple(_decode_transaction(reader) for _ in range(tx_count))
    header = BlockHeader(version, block_id, block_type, miner, timestamp,
                         prev_hash, merkle, tuple(ta_entries))
    _check_ta(header, transactions)
    reader.end()
    return Block(header, transactions)


def merkle_root(tx_digests: Sequence[bytes], backend: HashBackend) -> bytes:
    """Pairwise tree over transaction digests; odd levels duplicate their
    last digest; a single leaf is its own root."""
    if not tx_digests:
        raise WireError("cannot compute a Merkle root over zero digests")
    level: List[bytes] = list(tx_digests)
    for digest in level:
        if len(digest) != HASH_LEN:
            raise WireError("Merkle leaves must be 28-byte digests")
    while len(level) > 1:
        if len(level) % 2:
            level.append(level[-1])
        level = [backend.digest224(level[i] + level[i + 1])
                 for i in range(0, len(level), 2)]
    return level[0]


def body_root(transactions: Sequence[Transaction], backend: HashBackend) -> bytes:
    """The header's Merkle root: the tree over each transaction's leaf."""
    return merkle_root([leaf_digest(tx, backend) for tx in transactions], backend)


def block_hash(header: BlockHeader, backend: HashBackend) -> bytes:
    """Chain digest of a block: its encoded header only (the Merkle root
    already commits to the body), derived once per object and backend."""
    stored = header._digest
    if stored is None or stored[0] is not backend:
        stored = (backend, backend.digest224(encode_header(header)))
        object.__setattr__(header, "_digest", stored)
    return stored[1]


def build_block(block_id: int, block_type: BlockTarget, miner: int, timestamp_us: int,
                prev_hash: bytes, transactions: Sequence[Transaction],
                backend: HashBackend) -> Block:
    """Assemble a block with its access list and Merkle root computed."""
    txs = tuple(transactions)
    header = BlockHeader(WIRE_VERSION, block_id, block_type, miner, timestamp_us,
                         prev_hash, body_root(txs, backend), ta_list_for(txs))
    return Block(header, txs)

