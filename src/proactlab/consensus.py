"""Consensus state machines: trust accounting for miner eligibility, the
block-orderer window that hands out sequential block ids, the parallel
miner pipeline, quorum commit arithmetic, and void/renumber recovery.

Every structure here is a single-owner state machine advanced by its agent;
cross-agent interaction happens through the message types at the bottom of
the module, whose byte encodings are the canonical wire formats.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from . import wire
from .crypto import HashBackend
from .wire import Block, BlockHeader, BlockTarget, TAEntry, Transaction


class ConsensusError(Exception):
    pass


def _unpack_from(fmt: str, data: bytes, offset: int = 0) -> tuple:
    """struct.unpack_from that reports short input as a ConsensusError."""
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise ConsensusError(f"message truncated at offset {offset}") from None


def _unpack(fmt: str, data: bytes) -> tuple:
    """struct.unpack of a whole fixed-size message, as a ConsensusError."""
    try:
        return struct.unpack(fmt, data)
    except struct.error:
        raise ConsensusError(f"expected {struct.calcsize(fmt)} bytes, "
                             f"got {len(data)}") from None


# --- trust accounting -------------------------------------------------------


class TrustEvent(Enum):
    VALID_BLOCK_PARTICIPATION = "valid_block_participation"
    VALID_FORWARD = "valid_forward"
    INVALID_BLOCK = "invalid_block"
    FALSE_ACK = "false_ack"
    MALICIOUS_INCIDENT = "malicious_incident"


#: default trust-point weights; legitimate events earn, malicious ones cost
DEFAULT_TRUST_WEIGHTS = {
    TrustEvent.VALID_BLOCK_PARTICIPATION: 1.0,
    TrustEvent.VALID_FORWARD: 1.0,
    TrustEvent.INVALID_BLOCK: -10.0,
    TrustEvent.FALSE_ACK: -10.0,
    TrustEvent.MALICIOUS_INCIDENT: -10.0,
}


@dataclass(frozen=True)
class TrustParams:
    t_tn_s: float = 600.0   # eligibility window
    m_sub_s: float = 60.0   # subperiod length
    th_tn: float = 300.0    # window threshold
    th_m: float = 10.0      # per-subperiod threshold

    def __post_init__(self) -> None:
        if self.m_sub_s <= 0 or self.t_tn_s <= 0:
            raise ConsensusError("trust periods must be positive")
        n = self.t_tn_s / self.m_sub_s
        if abs(n - round(n)) > 1e-9:
            raise ConsensusError("window must be an integer multiple of the subperiod")
        if self.th_tn < 0 or self.th_m < 0:
            raise ConsensusError("thresholds must be non-negative")

    @property
    def subperiods(self) -> int:
        return round(self.t_tn_s / self.m_sub_s)


class TrustRecord:
    """Per-subperiod trust-point totals for one ground station."""

    def __init__(self, start_time_s: float = 0.0):
        self.start_time_s = start_time_s
        self.buckets: Dict[int, float] = {}

    def add(self, points: float, now_s: float, params: TrustParams) -> None:
        bucket = int(now_s // params.m_sub_s)
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + points

    def subperiod_totals(self, now_s: float, params: TrustParams) -> Optional[List[float]]:
        """Totals for the fully elapsed subperiods of the window ending at
        ``now``; None when the record does not span a full window."""
        end_bucket = int(now_s // params.m_sub_s)
        start_bucket = end_bucket - params.subperiods
        if start_bucket < int(self.start_time_s // params.m_sub_s) or start_bucket < 0:
            return None
        return [self.buckets.get(b, 0.0) for b in range(start_bucket, end_bucket)]


def trust_update(record: TrustRecord, event: TrustEvent, now_s: float,
                 params: TrustParams,
                 weights: Optional[Dict[TrustEvent, float]] = None) -> TrustRecord:
    table = weights if weights is not None else DEFAULT_TRUST_WEIGHTS
    record.add(table[event], now_s, params)
    return record


def poat_eligible(record: TrustRecord, params: TrustParams, now_s: float) -> bool:
    """Miner eligibility: the window total must beat the window threshold
    AND every subperiod must beat the per-subperiod threshold.  Without a
    full window of history the answer is a conservative no."""
    totals = record.subperiod_totals(now_s, params)
    if totals is None:
        return False
    if sum(totals) <= params.th_tn:
        return False
    return all(total > params.th_m for total in totals)


# --- miner-set sizing and assignment ----------------------------------------


def compute_th_ca(max_tn: int, n_ca: int) -> int:
    """Per-authority miner budget: Max_TN divided among the CAs, at least 1."""
    if n_ca < 1:
        raise ConsensusError("need at least one control authority")
    return max(1, max_tn // n_ca)


def assign_gcs_to_tgcs(gcc_ids: Sequence[int], tgcs_ids: Sequence[int],
                       rng: random.Random) -> Dict[int, List[int]]:
    """Randomly partition the non-miner stations among the miners.

    Every miner but the last receives floor or ceil of the even share
    (chosen by the rng); the last receives whatever remains.  Re-run from
    scratch whenever the miner set changes.
    """
    if not tgcs_ids:
        raise ConsensusError("no miners to assign stations to")
    if not gcc_ids:
        raise ConsensusError("no stations to assign")
    if set(gcc_ids) & set(tgcs_ids):
        raise ConsensusError("station and miner sets must be disjoint")
    pool = list(gcc_ids)
    rng.shuffle(pool)
    share = len(pool) / len(tgcs_ids)
    low, high = int(share), int(share) + (share != int(share))
    assignment: Dict[int, List[int]] = {}
    cursor = 0
    for tgcs in tgcs_ids[:-1]:
        take = min(rng.choice((low, high)), len(pool) - cursor)
        assignment[tgcs] = pool[cursor:cursor + take]
        cursor += take
    assignment[tgcs_ids[-1]] = pool[cursor:]
    return assignment


# --- quorum and rotation ----------------------------------------------------


class CommitVerdict(Enum):
    COMMITTED = "committed"
    REJECTED = "rejected"
    PENDING = "pending"


def quorum(n_tgcs: int) -> int:
    return n_tgcs // 2 + 1


def commit_check(acks: int, errors: int, n_tgcs: int) -> CommitVerdict:
    """Majority rule over distinct miner votes; the block's own miner counts
    as one implicit acknowledgment."""
    threshold = quorum(n_tgcs)
    if acks >= threshold:
        return CommitVerdict.COMMITTED
    if errors >= threshold:
        return CommitVerdict.REJECTED
    return CommitVerdict.PENDING


def rotate_bo(ca_ids: Sequence[int], now_s: float, t_bo_s: float) -> int:
    """Round-robin orderer duty among the control authorities."""
    if not ca_ids:
        raise ConsensusError("no control authorities")
    return ca_ids[int(now_s // t_bo_s) % len(ca_ids)]


@dataclass(frozen=True)
class ConsensusConfig:
    max_tn: int = 4
    n_ca: int = 1
    t_bis_s: float = 0.050
    t_blk_s: float = 5.0
    t_bo_s: float = 600.0
    trust: TrustParams = field(default_factory=TrustParams)

    def __post_init__(self) -> None:
        if self.th_ca < 1:
            raise ConsensusError("per-CA miner budget must be at least 1")
        if not self.t_bis_s < self.t_blk_s:
            raise ConsensusError("the id window must be shorter than the finalize timeout")

    @property
    def th_ca(self) -> int:
        return compute_th_ca(self.max_tn, self.n_ca)


# --- block orderer ----------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    block_id: int
    tgcs_id: int


@dataclass
class _QueuedRequest:
    tgcs_id: int
    timestamp_us: int
    remaining: int


class OrderingState:
    """The orderer's window, assignment, and void bookkeeping.

    Issued block ids are consecutive; at most one window is open at a time
    (requests accumulate between window closes).  In sequential mode at most
    one assignment is outstanding network-wide.
    """

    def __init__(self, next_block_id: int = 0, sequential: bool = False):
        self.next_block_id = next_block_id
        self.sequential = sequential
        self.pending: List[_QueuedRequest] = []
        self.assignments: Dict[int, int] = {}
        self.committed_watermark = next_block_id - 1

    def set_sequential(self, flag: bool) -> None:
        if self.pending or self.assignments or \
                self.next_block_id != self.committed_watermark + 1:
            raise ConsensusError("cannot switch ordering mode mid-run")
        self.sequential = flag

    def receive_nbr(self, nbr: "NbrMessage") -> None:
        if nbr.request_count < 1:
            raise ConsensusError("new-block requests must ask for at least one id")
        self.pending.append(_QueuedRequest(nbr.tgcs_id, nbr.timestamp_us,
                                           nbr.request_count))

    def outstanding(self) -> int:
        return len(self.assignments)

    def window_close(self) -> List[Assignment]:
        """Order the buffered requests by send timestamp (ties by station
        id) and issue consecutive ids.  A request that missed its window
        sorts ahead of younger requests in the next one."""
        self.pending.sort(key=lambda r: (r.timestamp_us, r.tgcs_id))
        issued: List[Assignment] = []
        if self.sequential:
            if self.outstanding() == 0 and self.pending:
                head = self.pending[0]
                issued.append(self._issue(head.tgcs_id))
                head.remaining -= 1
                if head.remaining == 0:
                    self.pending.pop(0)
        else:
            for request in self.pending:
                for _ in range(request.remaining):
                    issued.append(self._issue(request.tgcs_id))
            self.pending.clear()
        return issued

    def _issue(self, tgcs_id: int) -> Assignment:
        assignment = Assignment(self.next_block_id, tgcs_id)
        self.assignments[assignment.block_id] = tgcs_id
        self.next_block_id += 1
        return assignment

    def on_commit(self, block_id: int) -> None:
        self.assignments.pop(block_id, None)
        if block_id > self.committed_watermark:
            self.committed_watermark = block_id

    def apply_void(self, block_id: int) -> Optional[Dict[int, int]]:
        """Drop a timed-out assignment and renumber everything above it.

        Returns the old→new id mapping for the surviving assignments, or
        None when the void is ignored (unknown or already-committed id).
        All parties apply the same deterministic renumbering.
        """
        if block_id <= self.committed_watermark or block_id not in self.assignments:
            return None
        del self.assignments[block_id]
        renumber = {old: old - 1 for old in sorted(self.assignments) if old > block_id}
        self.assignments = {renumber.get(old, old): tgcs
                            for old, tgcs in self.assignments.items()}
        self.next_block_id -= 1
        return renumber

    # Handoff serialization: next_id(8) watermark(8, signed) sequential(1)
    # pending_count(2) [tgcs(4) ts(8) remaining(1)]* assign_count(2)
    # [block_id(8) tgcs(4)]*
    def encode(self) -> bytes:
        parts = [struct.pack("<QqBH", self.next_block_id, self.committed_watermark,
                             int(self.sequential), len(self.pending))]
        for request in self.pending:
            parts.append(struct.pack("<IQB", request.tgcs_id, request.timestamp_us,
                                     request.remaining))
        parts.append(struct.pack("<H", len(self.assignments)))
        for block_id in sorted(self.assignments):
            parts.append(struct.pack("<QI", block_id, self.assignments[block_id]))
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "OrderingState":
        next_id, watermark, sequential, n_pending = _unpack_from("<QqBH", data)
        state = cls(next_id, bool(sequential))
        state.committed_watermark = watermark
        offset = struct.calcsize("<QqBH")
        for _ in range(n_pending):
            tgcs, ts, remaining = _unpack_from("<IQB", data, offset)
            offset += struct.calcsize("<IQB")
            state.pending.append(_QueuedRequest(tgcs, ts, remaining))
        (n_assign,) = _unpack_from("<H", data, offset)
        offset += 2
        for _ in range(n_assign):
            block_id, tgcs = _unpack_from("<QI", data, offset)
            offset += struct.calcsize("<QI")
            state.assignments[block_id] = tgcs
        return state


# --- miner pipeline ---------------------------------------------------------


class BlockState(Enum):
    AWAITING_ID = "awaiting_id"
    AWAITING_PREDECESSOR = "awaiting_predecessor"
    BROADCAST = "broadcast"
    COMMITTED = "committed"
    VOIDED = "voided"


_STATE_ORDER = [BlockState.AWAITING_ID, BlockState.AWAITING_PREDECESSOR,
                BlockState.BROADCAST, BlockState.COMMITTED, BlockState.VOIDED]


@dataclass
class PendingBlock:
    """A miner's block: complete except for the predecessor hash."""

    miner: int
    block_type: BlockTarget
    transactions: Tuple[Transaction, ...]
    merkle_root: bytes
    ta_list: Tuple[TAEntry, ...]
    assembled_at_us: int
    state: BlockState = BlockState.AWAITING_ID
    block_id: Optional[int] = None

    def advance(self, new_state: BlockState) -> None:
        if _STATE_ORDER.index(new_state) < _STATE_ORDER.index(self.state):
            raise ConsensusError(
                f"pending block cannot move {self.state.value} -> {new_state.value}")
        self.state = new_state

    def assign_id(self, block_id: int) -> None:
        if self.state is not BlockState.AWAITING_ID:
            raise ConsensusError("block already has an id")
        self.block_id = block_id
        self.advance(BlockState.AWAITING_PREDECESSOR)


def miner_assemble(miner: int, transactions: Sequence[Transaction], now_us: int,
                   backend: HashBackend) -> List[PendingBlock]:
    """Partition valid transactions by target into at most one drone-class
    and one ground-class pending block; empty input yields nothing (and so
    no id request)."""
    pending: List[PendingBlock] = []
    for target in (BlockTarget.BLOCK_T1, BlockTarget.BLOCK_T2):
        group = tuple(tx for tx in transactions if tx.block_target is target)
        if not group:
            continue
        leaves = [backend.digest224(wire.encode_transaction(tx)) for tx in group]
        pending.append(PendingBlock(
            miner=miner, block_type=target, transactions=group,
            merkle_root=wire.merkle_root(leaves, backend.digest224),
            ta_list=wire.ta_list_for(group), assembled_at_us=now_us))
    return pending


def miner_finalize(pending: PendingBlock, predecessor: Block,
                   backend: HashBackend) -> Block:
    """Fill in the predecessor hash once that block has committed, producing
    the block to broadcast for validation."""
    if pending.state is not BlockState.AWAITING_PREDECESSOR:
        raise ConsensusError(f"cannot finalize a block in state {pending.state.value}")
    if pending.block_id is None or predecessor.block_id != pending.block_id - 1:
        raise ConsensusError("predecessor does not immediately precede this block")
    prev_hash = wire.block_hash(wire.encode_header(predecessor.header),
                                backend.digest224)
    header = BlockHeader(wire.WIRE_VERSION, pending.block_id, pending.block_type,
                         pending.miner, pending.assembled_at_us, prev_hash,
                         pending.merkle_root, pending.ta_list)
    pending.advance(BlockState.BROADCAST)
    return Block(header, pending.transactions)


def genesis_prev_hash() -> bytes:
    return wire.ZERO_HASH


def finalize_genesis(pending: PendingBlock) -> Block:
    """The orderer's first block chains from the zero digest."""
    if pending.block_id != 0:
        raise ConsensusError("only block 0 may chain from the zero digest")
    header = BlockHeader(wire.WIRE_VERSION, 0, pending.block_type, pending.miner,
                         pending.assembled_at_us, genesis_prev_hash(),
                         pending.merkle_root, pending.ta_list)
    pending.advance(BlockState.BROADCAST)
    return Block(header, pending.transactions)


# --- message wire formats ---------------------------------------------------


ERROR_CODES = {code: i + 1 for i, code in enumerate(
    ("block_id", "prev_hash", "merkle_root", "signature",
     "ta_fidelity", "access_enc", "block_type", "duplicate_tx"))}


@dataclass(frozen=True)
class NbrMessage:
    tgcs_id: int
    timestamp_us: int
    request_count: int

    def encode(self) -> bytes:
        return struct.pack("<IQB", self.tgcs_id, self.timestamp_us, self.request_count)

    @classmethod
    def decode(cls, data: bytes) -> "NbrMessage":
        return cls(*_unpack("<IQB", data))


@dataclass(frozen=True)
class AssignMessage:
    assignments: Tuple[Assignment, ...]

    def encode(self) -> bytes:
        parts = [struct.pack("<H", len(self.assignments))]
        parts += [struct.pack("<QI", a.block_id, a.tgcs_id) for a in self.assignments]
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "AssignMessage":
        (count,) = _unpack_from("<H", data)
        entries = []
        offset = 2
        for _ in range(count):
            block_id, tgcs = _unpack_from("<QI", data, offset)
            offset += 12
            entries.append(Assignment(block_id, tgcs))
        return cls(tuple(entries))


@dataclass(frozen=True)
class BlockAckMessage:
    block_id: int
    tgcs_id: int

    def encode(self) -> bytes:
        return struct.pack("<QI", self.block_id, self.tgcs_id)

    @classmethod
    def decode(cls, data: bytes) -> "BlockAckMessage":
        return cls(*_unpack("<QI", data))


@dataclass(frozen=True)
class BlockErrorMessage:
    block_id: int
    tgcs_id: int
    error_code: int

    def encode(self) -> bytes:
        return struct.pack("<QIB", self.block_id, self.tgcs_id, self.error_code)

    @classmethod
    def decode(cls, data: bytes) -> "BlockErrorMessage":
        return cls(*_unpack("<QIB", data))


@dataclass(frozen=True)
class VoidMessage:
    block_id: int

    def encode(self) -> bytes:
        return struct.pack("<Q", self.block_id)

    @classmethod
    def decode(cls, data: bytes) -> "VoidMessage":
        return cls(*_unpack("<Q", data))


@dataclass(frozen=True)
class HandoffMessage:
    state_bytes: bytes

    def encode(self) -> bytes:
        return self.state_bytes

    @classmethod
    def decode(cls, data: bytes) -> "HandoffMessage":
        return cls(data)
