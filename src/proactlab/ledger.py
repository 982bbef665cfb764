"""Chain storage and validation: full ground-station ledgers, capacity-bounded
drone ledgers with block replacement, and transaction access control.

Each ledger instance is owned by exactly one agent; mutation is
single-writer and reads can be snapshotted freely.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import crypto, txbuild, wire
from .crypto import HashBackend, KeyRegistry
from .wire import Block, BlockTarget, Transaction


class LedgerError(Exception):
    def __init__(self, code: str, message: str = ""):
        super().__init__(message or code)
        self.code = code


#: validation codes, in check order
CHECK_ORDER = ("block_id", "prev_hash", "merkle_root", "signature", "duplicate_tx")


def validate_block(expected_id: int, tip_digest: bytes, block: Block,
                   registry: KeyRegistry, backend: HashBackend,
                   seen_tx: Optional[Callable[[Tuple[int, int]], bool]] = None
                   ) -> Optional[str]:
    """Run the acceptance checks that depend on the chain and the registry
    for a candidate successor block; a Block is well-formed by construction.

    Returns None when the block is valid; otherwise the first failing code
    of ``CHECK_ORDER`` (any code means a Block ERROR vote).
    """
    header = block.header
    if header.block_id != expected_id:
        return "block_id"
    if header.prev_hash != tip_digest:
        return "prev_hash"
    if wire.body_root(block.transactions, backend) != header.merkle_root:
        return "merkle_root"
    if not all(txbuild.verify_transaction(tx, registry, backend)
               for tx in block.transactions):
        return "signature"
    keys = block.tx_locations  # one entry per distinct key
    if len(keys) < len(block.transactions) or \
            (seen_tx is not None and any(map(seen_tx, keys))):
        return "duplicate_tx"
    return None


class FullLedger:
    """Append-only chain of committed blocks with a (creator, tx_seq) index."""

    def __init__(self, backend: HashBackend):
        self._backend = backend
        self.blocks: List[Block] = []
        self.tip_digest: bytes = wire.ZERO_HASH
        self._tx_index: Dict[Tuple[int, int], int] = {}  # key -> block id

    @property
    def next_block_id(self) -> int:
        return len(self.blocks)

    def append_block(self, block: Block) -> None:
        expected = self.next_block_id
        if block.block_id < expected:
            raise LedgerError("duplicate", f"block {block.block_id} already appended")
        if block.block_id > expected:
            raise LedgerError("gap", f"block {block.block_id} leaves a gap at {expected}")
        self.blocks.append(block)
        self.tip_digest = wire.block_hash(block.header, self._backend)
        self._tx_index.update(dict.fromkeys(block.tx_locations, block.block_id))

    def has_tx(self, key: Tuple[int, int]) -> bool:
        return key in self._tx_index

    def find_transaction(self, key: Tuple[int, int]) -> Optional[Transaction]:
        block_id = self._tx_index.get(key)
        if block_id is None:
            return None
        block = self.blocks[block_id]
        return block.transactions[block.tx_locations[key]]

    def verify_chain(self, registry: KeyRegistry) -> None:
        """Validate every block from genesis against the tip and the keys
        committed below it; raise the first failing code."""
        digest, below = wire.ZERO_HASH, set()  # the tip, the keys committed below
        for height, block in enumerate(self.blocks):
            code = validate_block(height, digest, block, registry, self._backend,
                                  seen_tx=below.__contains__)
            if code is not None:
                raise LedgerError(code, f"block {height}: {code}")
            below.update(block.tx_locations)
            digest = wire.block_hash(block.header, self._backend)


class Verdict(Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass(frozen=True)
class IncidentDraft:
    """Material for the security-incident transaction a denial produces."""

    subject: int
    reason: str
    tx_key: Tuple[int, int]

    def payload(self) -> bytes:
        body = f"incident subject={self.subject} reason={self.reason} " \
               f"tx={self.tx_key[0]}:{self.tx_key[1]}".encode()
        return body


@dataclass(frozen=True)
class AccessDecision:
    verdict: Verdict
    incident: Optional[IncidentDraft] = None

    def __post_init__(self) -> None:
        if self.verdict is Verdict.DENY and self.incident is None:
            raise LedgerError("incident", "deny decisions must carry an incident draft")


def access_request_bytes(requester: int, key: Tuple[int, int]) -> bytes:
    return b"txreq" + struct.pack("<IIQ", requester, *key)


def sign_access_request(requester: int, key: Tuple[int, int],
                        registry: KeyRegistry, backend: HashBackend) -> bytes:
    """Requests are signed under the permanent-security suite rules."""
    digest = backend.digest224(access_request_bytes(requester, key))
    return crypto.sign(crypto.SUITE_S1, registry.public_key(requester), digest, backend)


def check_access(requester: int, request_signature: bytes, key: Tuple[int, int],
                 owners: Sequence[int], registry: KeyRegistry,
                 backend: HashBackend) -> AccessDecision:
    """Access-control decision for one request for what is held under
    ``key``, which ``owners`` may open.

    The request signature is verified before any disclosure; a denial
    always carries a security-incident draft naming the requester.
    """
    digest = backend.digest224(access_request_bytes(requester, key))
    if not (registry.has_node(requester) and crypto.verify(
            crypto.SUITE_S1, registry.public_key(requester), digest,
            request_signature, backend)):
        return AccessDecision(Verdict.DENY, IncidentDraft(requester, "forgery", key))
    if registry.may_open(requester, owners):
        return AccessDecision(Verdict.ALLOW)
    return AccessDecision(Verdict.DENY, IncidentDraft(requester, "unauthorized-access", key))


class DroneLedger:
    """Capacity-bounded partial chain held by one drone.

    Only drone-class blocks that name this drone in their access list are
    stored; when a block would exceed the capacity, the Block Replacement
    Algorithm evicts the oldest (lowest-id) blocks first until it fits.
    Predecessor links are not verified here: the partial chain is a cache,
    not a validation source.  A lookup walks the held blocks' shared
    ``tx_locations``; the ledger keeps no per-transaction state.
    """

    def __init__(self, drone_id: int, capacity_bytes: int):
        self.drone_id = drone_id
        self.capacity_bytes = capacity_bytes
        self.blocks: List[Block] = []  # ascending block_id
        self.current_bytes = 0

    def store_block(self, block: Block) -> List[int]:
        """Insert a block, evicting the oldest blocks until it fits; returns
        the evicted block ids in eviction order."""
        if block.header.block_type is not BlockTarget.BLOCK_T1:
            raise LedgerError("block_type", "drones store only drone-class blocks")
        if self.drone_id not in block.owner_index:
            raise LedgerError("not_owner", "block names no transaction owned by this drone")
        index = bisect_left(self.blocks, block.block_id, key=lambda b: b.block_id)
        if index < len(self.blocks) and self.blocks[index].block_id == block.block_id:
            return []  # exactly-once delivery; re-sends are idempotent
        size = block.encoded_size
        if size > self.capacity_bytes:
            raise LedgerError("block_too_large",
                              f"{size} bytes exceeds capacity {self.capacity_bytes}")

        evicted: List[int] = []
        while self.current_bytes + size > self.capacity_bytes:
            oldest = self.blocks.pop(0)
            evicted.append(oldest.block_id)
            self.current_bytes -= oldest.encoded_size
        insort(self.blocks, block, key=lambda b: b.block_id)
        self.current_bytes += size
        return evicted

    def has_tx(self, key: Tuple[int, int]) -> bool:
        return self.find_transaction(key) is not None

    def find_transaction(self, key: Tuple[int, int]) -> Optional[Transaction]:
        for block in self.blocks:
            if key in block.tx_locations:
                return block.transactions[block.tx_locations[key]]
        return None
