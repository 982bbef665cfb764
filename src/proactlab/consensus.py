"""Consensus state machines: the block-orderer window that hands out
sequential block ids, the parallel miner pipeline, vote tallies with the
quorum commit rule, and void/renumber recovery.

The protocol is one object per role and does no I/O.  ``StationProtocol``
(a miner station) owns the drafts waiting for an id, the drafts by id and
the tallies; ``OrdererProtocol`` (a control authority) owns the
``OrderingState``, its tallies, the void timers and the requests stashed
while the state is in flight.  Its agent feeds it messages and timer
firings; it calls back into a port the agent implements (each class names
its port's methods).  Port calls are synchronous and run in call order, so
each send happens at the point of the rule that makes it.  The station gets
validation and finalization as callables, so the protocol never hashes,
verifies, or reads the ledger, the clock or the world.

Cross-agent interaction happens through the message types at the bottom of
the module, whose byte encodings are the canonical wire formats.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from . import ledger, wire
from .crypto import HashBackend
from .wire import Block, BlockTarget, Transaction, _Reader


V = TypeVar("V")


class ConsensusError(Exception):
    pass


class _Packed:
    """A fixed-size record whose encoding is its fields, in declaration
    order, packed under the one struct format its class names."""

    _FORMAT: str

    def encode(self) -> bytes:
        # a dataclass instance holds exactly its fields, in declaration order
        return struct.pack(self._FORMAT, *vars(self).values())

    @classmethod
    def _read(cls, reader: _Reader):
        return cls(*reader.unpack(cls._FORMAT))

    @classmethod
    def decode(cls, data: bytes):
        return cls(*_Reader(data, ConsensusError).last(cls._FORMAT))


_COUNT = "<H"  # the entry count before a list


def _encode_assignments(assignments: Sequence[Assignment]) -> bytes:
    """count [Assignment]*: the list that ends the assignment message and
    the orderer handoff."""
    return struct.pack(_COUNT, len(assignments)) + b"".join(a.encode() for a in assignments)


def _decode_assignments(reader: _Reader) -> List[Assignment]:
    """Inverse of _encode_assignments; the list ends the message."""
    (count,) = reader.unpack(_COUNT)
    entries = [Assignment._read(reader) for _ in range(count)]
    reader.end()
    return entries


# --- miner assignment -------------------------------------------------------


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


# --- quorum, vote tallies and rotation --------------------------------------


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


@dataclass
class Tally:
    """Distinct miner votes on one block id.  The block's own miner counts
    as one implicit acknowledgment once it is known."""

    miner: Optional[int] = None
    block: Optional[Block] = None
    acks: Set[int] = field(default_factory=set)
    errors: Set[int] = field(default_factory=set)
    committed: bool = False

    def propose(self, block: Block) -> None:
        """Attach the candidate block; its miner acknowledges it."""
        self.block = block
        self.miner = block.header.miner
        self.acks.add(self.miner)

    def vote(self, voter: int, is_ack: bool) -> None:
        (self.acks if is_ack else self.errors).add(voter)
        if self.miner is not None:
            self.acks.add(self.miner)

    def verdict(self, n_tgcs: int) -> CommitVerdict:
        return commit_check(len(self.acks), len(self.errors), n_tgcs)


def renumber_after_void(entries: Dict[int, V], voided_id: int,
                        stays: Optional[Callable[[V], bool]] = None) -> Dict[int, V]:
    """The one void rule: the entry at the voided id is dropped and every
    entry above it moves down one id, except those ``stays`` keeps in place.
    The orderer, the miners and every tally apply it alike."""
    renumbered: Dict[int, V] = {}
    for block_id in sorted(entries):
        entry = entries[block_id]
        if block_id < voided_id or (stays is not None and stays(entry)):
            renumbered[block_id] = entry
        elif block_id > voided_id:
            renumbered[block_id - 1] = entry
    return renumbered


def rotate_bo(ca_ids: Sequence[int], now_us: int, t_bo_us: int) -> int:
    """Round-robin orderer duty among the control authorities, in turns of
    ``t_bo_us``.  Time is in integer microseconds, so each turn starts
    exactly on its boundary."""
    if not ca_ids:
        raise ConsensusError("no control authorities")
    return ca_ids[now_us // t_bo_us % len(ca_ids)]


# --- block orderer ----------------------------------------------------------


@dataclass(frozen=True)
class Assignment(_Packed):
    block_id: int
    tgcs_id: int

    _FORMAT = "<QI"


class OrderingState:
    """The orderer's window, assignment, and void bookkeeping.

    Issued block ids are consecutive; at most one window is open at a time
    (requests accumulate between window closes).  In sequential mode at most
    one assignment is outstanding network-wide.
    """

    def __init__(self, next_block_id: int = 0, sequential: bool = False):
        self.next_block_id = next_block_id
        self.sequential = sequential
        self.pending: List[NbrMessage] = []  # each asks for request_count more ids
        self.assignments: Dict[int, int] = {}
        self.committed_watermark = next_block_id - 1

    def receive_nbr(self, nbr: "NbrMessage") -> None:
        if nbr.request_count < 1:
            raise ConsensusError("new-block requests must ask for at least one id")
        self.pending.append(nbr)

    def window_close(self) -> List[Assignment]:
        """Order the buffered requests by send timestamp (ties by station
        id) and issue consecutive ids.  A request that missed its window
        sorts ahead of younger requests in the next one."""
        self.pending.sort(key=lambda r: (r.timestamp_us, r.tgcs_id))
        issued: List[Assignment] = []
        if self.sequential:
            if not self.assignments and self.pending:
                head = self.pending[0]
                issued.append(self._issue(head.tgcs_id))
                if head.request_count > 1:
                    self.pending[0] = replace(head, request_count=head.request_count - 1)
                else:
                    self.pending.pop(0)
        else:
            for request in self.pending:
                for _ in range(request.request_count):
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

    def awaits(self, block_id: int) -> bool:
        """The one void-timer predicate: ``block_id`` is an outstanding
        assignment whose predecessor has committed, so it must commit
        within the finalize timeout or be voided."""
        return block_id in self.assignments and self.committed_watermark == block_id - 1

    def apply_void(self, block_id: int) -> bool:
        """Drop a timed-out assignment and renumber everything above it;
        False when the void is ignored (unknown or already-committed id)."""
        if block_id <= self.committed_watermark or block_id not in self.assignments:
            return False
        self.assignments = renumber_after_void(self.assignments, block_id)
        self.next_block_id -= 1
        return True

    # Handoff serialization: next_id(8) watermark(8, signed) sequential(1)
    # pending_count(2) [NbrMessage]* assign_count(2) [Assignment]*
    _HEAD = "<QqBH"

    def encode(self) -> bytes:
        head = struct.pack(self._HEAD, self.next_block_id, self.committed_watermark,
                           int(self.sequential), len(self.pending))
        return b"".join([head, *(request.encode() for request in self.pending),
                         _encode_assignments([Assignment(b, self.assignments[b])
                                              for b in sorted(self.assignments)])])

    @classmethod
    def decode(cls, data: bytes) -> "OrderingState":
        reader = _Reader(data, ConsensusError)
        next_id, watermark, sequential, n_pending = reader.unpack(cls._HEAD)
        state = cls(next_id, bool(sequential))
        state.committed_watermark = watermark
        for _ in range(n_pending):
            state.receive_nbr(NbrMessage._read(reader))
        state.assignments = {a.block_id: a.tgcs_id for a in _decode_assignments(reader)}
        return state


# --- miner pipeline ---------------------------------------------------------


def miner_assemble(miner: int, transactions: Sequence[Transaction], now_us: int,
                   backend: HashBackend) -> List[Block]:
    """Partition valid transactions by target into at most one drone-class
    and one ground-class draft: a block complete but for its id and its
    predecessor hash.  Empty input yields nothing (and so no id request)."""
    groups = [tuple(tx for tx in transactions if tx.block_target is target)
              for target in (BlockTarget.BLOCK_T1, BlockTarget.BLOCK_T2)]
    return [wire.build_block(0, group[0].block_target, miner, now_us, wire.ZERO_HASH,
                             group, backend) for group in groups if group]


def miner_finalize(draft: Block, block_id: int, predecessor: Block,
                   backend: HashBackend) -> Block:
    """The draft under its assigned id, chained to its predecessor once that
    block has committed: the block to broadcast for validation."""
    if predecessor.block_id != block_id - 1:
        raise ConsensusError("predecessor does not immediately precede this block")
    prev_hash = wire.block_hash(predecessor.header, backend)
    return replace(draft, header=replace(draft.header, block_id=block_id,
                                         prev_hash=prev_hash))


# --- the two roles ---------------------------------------------------------

WINDOW, VOID = "window", "void"  # the orderer's timer kinds

_committed = attrgetter("committed")  # committed tallies keep their id on a void


class _Voter:
    """Both roles' tallies: one per block id, one verdict step, one void rule."""

    def __init__(self, n_tgcs: int, port) -> None:
        self.n_tgcs = n_tgcs
        self.port = port
        self.tallies: Dict[int, Tally] = {}

    def _tally(self, block_id: int) -> Tally:
        return self.tallies.setdefault(block_id, Tally())

    def _count(self, vote, is_ack: bool) -> Tally:
        tally = self._tally(vote.block_id)
        tally.vote(vote.tgcs_id, is_ack)
        return tally

    def _verdict(self, tally: Tally) -> CommitVerdict:
        """The one tally-and-verdict step; a committed tally asks for nothing."""
        return CommitVerdict.PENDING if tally.committed else tally.verdict(self.n_tgcs)

    def _void_tallies(self, block_id: int) -> None:
        self.tallies = renumber_after_void(self.tallies, block_id, _committed)


class StationProtocol(_Voter):
    """A miner station: it asks ids for its drafts, broadcasts the draft
    assigned the next id, votes on the next id's candidate, and commits ids
    in turn on a quorum of acks.  ``validate(block_id, block)`` gives None
    or the first issue's error code; ``finalize(draft, block_id)`` chains a
    draft to its predecessor.  Port: ``to_orderer(kind, message)``,
    ``broadcast(kind, message, to_orderer)`` to the other miners,
    ``commit(block_id, block)``, and ``reclaim(draft)`` for a voided draft.
    """

    def __init__(self, station_id: int, n_tgcs: int, port,
                 validate: Callable[[int, Block], Optional[int]],
                 finalize: Callable[[Block, int], Block]) -> None:
        super().__init__(n_tgcs, port)
        self.id = station_id
        self.next_id = 0  # the id to commit next; the agent adds genesis, id 0
        self._validate = validate
        self._finalize = finalize
        # drafts (see miner_assemble) waiting for an id, then by their id
        # until they commit; a draft is broadcast once its tally has a block
        self.unassigned: List[Block] = []
        self.assigned: Dict[int, Block] = {}

    @property
    def backlog(self) -> int:
        return len(self.unassigned) + len(self.assigned)

    def submit(self, drafts: Sequence[Block], now_us: int) -> None:
        """Ask the orderer for one id per draft."""
        self.unassigned.extend(drafts)
        self.port.to_orderer("nbr", NbrMessage(self.id, now_us, len(drafts)))

    def on_assign(self, message: "AssignMessage") -> None:
        for assignment in message.assignments:
            self._tally(assignment.block_id).miner = assignment.tgcs_id
            if assignment.tgcs_id == self.id and self.unassigned:
                self.assigned[assignment.block_id] = self.unassigned.pop(0)
        self._try_finalize()
        self._check_quorums()

    def _try_finalize(self) -> None:
        """Broadcast this station's draft for the next id, once."""
        draft = self.assigned.get(self.next_id)
        if draft is None:
            return
        tally = self._tally(self.next_id)
        if tally.block is not None:
            return  # already broadcast
        block = self._finalize(draft, self.next_id)
        self.port.broadcast("block", block)
        tally.propose(block)
        # the orderer tracks commits through the vote stream; the miner's
        # own vote must reach it even when no other validators exist
        self.port.to_orderer("ack", BlockAckMessage(block.block_id, self.id))
        self._check_quorums()

    def on_block(self, block: Block) -> None:
        if block.block_id < self.next_id:
            return
        self._tally(block.block_id).propose(block)
        self._vote_ready()
        self._check_quorums()

    def _vote_ready(self) -> None:
        next_id = self.next_id
        tally = self.tallies.get(next_id)
        if tally is None or tally.block is None or \
                self.id in tally.acks or self.id in tally.errors:
            return  # no candidate yet, or already voted (a miner acks its own)
        error = self._validate(next_id, tally.block)
        if error is None:
            vote, kind = BlockAckMessage(next_id, self.id), "ack"
        else:
            vote, kind = BlockErrorMessage(next_id, self.id, error), "block-error"
        tally.vote(self.id, is_ack=error is None)
        self.port.broadcast(kind, vote, to_orderer=True)
        self._check_quorums()

    def on_vote(self, message, is_ack: bool) -> None:
        self._count(message, is_ack)
        self._check_quorums()

    def _check_quorums(self) -> None:
        while True:
            tally = self.tallies.get(self.next_id)
            if tally is None or tally.block is None or \
                    self._verdict(tally) is not CommitVerdict.COMMITTED:
                return
            self._commit(self.next_id, tally)

    def _commit(self, block_id: int, tally: Tally) -> None:
        tally.committed = True
        block = tally.block
        if block.header.miner == self.id:
            self.assigned.pop(block_id, None)
        self.port.commit(block_id, block)
        self.next_id = block_id + 1
        self._try_finalize()
        self._vote_ready()

    def on_void(self, message: "VoidMessage") -> None:
        block_id = message.block_id
        if block_id < self.next_id:
            return  # stale: that id already committed here
        voided = self.assigned.get(block_id)
        if voided is not None:
            self.port.reclaim(voided)
        self.assigned = renumber_after_void(self.assigned, block_id)
        self._void_tallies(block_id)
        self._try_finalize()


class OrdererProtocol(_Voter):
    """A control authority: holding the ``OrderingState``, it issues ids
    every ``t_bis_s`` and voids an assignment that a quorum rejects or that
    does not commit within ``t_blk_s`` of its predecessor; it tallies votes
    with or without the state.  Port: ``to_orderer(kind, message)``,
    ``broadcast(kind, message)``, ``void(message)``, ``arm(kind, delay_s,
    block_id)`` to call ``on_timer`` once per armed (kind, id), and
    ``workload_open()``.
    """

    def __init__(self, n_tgcs: int, port, t_bis_s: float, t_blk_s: float) -> None:
        super().__init__(n_tgcs, port)
        self.t_bis_s = t_bis_s
        self.t_blk_s = t_blk_s
        self.ordering: Optional[OrderingState] = None
        self._stash: List[NbrMessage] = []  # requests awaiting the handoff

    def open(self, ordering: OrderingState) -> None:
        """Take up duty, at the start of a run or when a handoff arrives."""
        self.ordering = ordering
        for nbr in self._stash:
            ordering.receive_nbr(nbr)
        self._stash.clear()
        self._arm_window()

    def close(self) -> OrderingState:
        ordering, self.ordering = self.ordering, None
        return ordering

    def on_nbr(self, nbr: "NbrMessage", acting: bool) -> None:
        if self.ordering is not None:
            self.ordering.receive_nbr(nbr)
            self._arm_window()
        elif acting:
            self._stash.append(nbr)  # duty has rotated here, the state is in flight
        else:
            self.port.to_orderer("nbr", nbr)

    def on_vote(self, message, is_ack: bool) -> None:
        tally = self._count(message, is_ack)
        verdict = self._verdict(tally)
        if verdict is CommitVerdict.COMMITTED:
            tally.committed = True
            if self.ordering is not None:
                self.ordering.on_commit(message.block_id)
                self._watch(message.block_id + 1)
                self._arm_window()
        elif verdict is CommitVerdict.REJECTED and self.ordering is not None:
            self._void(message.block_id)

    def on_timer(self, kind: str, block_id: int) -> None:
        if self.ordering is None:
            return
        if kind == WINDOW:
            self._close_window()
        elif self.ordering.awaits(block_id):
            self._void(block_id)

    def _arm_window(self) -> None:
        if self.ordering is not None:
            self.port.arm(WINDOW, self.t_bis_s)

    def _close_window(self) -> None:
        ordering = self.ordering
        assignments = ordering.window_close()
        if assignments:
            self.port.broadcast("assign", AssignMessage(tuple(assignments)))
            for assignment in assignments:
                self._tally(assignment.block_id).miner = assignment.tgcs_id
                self._watch(assignment.block_id)
        if self.port.workload_open() or ordering.pending or ordering.assignments:
            self._arm_window()

    def _watch(self, block_id: int) -> None:
        if self.ordering.awaits(block_id):
            self.port.arm(VOID, self.t_blk_s, block_id)

    def _void(self, block_id: int) -> None:
        if not self.ordering.apply_void(block_id):
            return
        self.port.void(VoidMessage(block_id))
        self._void_tallies(block_id)
        # the assignment that moved into the voided id must commit in time too
        self._watch(block_id)
        self._arm_window()


# --- message wire formats ---------------------------------------------------


#: Block ERROR codes on the wire: the validation issue codes, numbered from 1
ERROR_CODES = {code: i + 1 for i, code in enumerate(ledger.CHECK_ORDER)}


@dataclass(frozen=True)
class NbrMessage(_Packed):
    tgcs_id: int
    timestamp_us: int
    request_count: int

    _FORMAT = "<IQB"


@dataclass(frozen=True)
class AssignMessage:
    assignments: Tuple[Assignment, ...]

    def encode(self) -> bytes:
        return _encode_assignments(self.assignments)

    @classmethod
    def decode(cls, data: bytes) -> "AssignMessage":
        return cls(tuple(_decode_assignments(_Reader(data, ConsensusError))))


@dataclass(frozen=True)
class BlockAckMessage(_Packed):
    block_id: int
    tgcs_id: int

    _FORMAT = Assignment._FORMAT  # the same (block id, station) pair


@dataclass(frozen=True)
class BlockErrorMessage(_Packed):
    block_id: int
    tgcs_id: int
    error_code: int

    _FORMAT = "<QIB"


@dataclass(frozen=True)
class VoidMessage(_Packed):
    block_id: int

    _FORMAT = "<Q"
