"""Ordering windows, quorum and vote tallies, voids, the miner pipeline,
the message formats, and a model check of the station and orderer protocol."""

import random
import struct
from dataclasses import dataclass

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from proactlab import consensus, crypto, ledger, wire
from proactlab.consensus import (
    Assignment,
    CommitVerdict,
    ConsensusError,
    WINDOW,
    NbrMessage,
    OrdererProtocol,
    OrderingState,
    StationProtocol,
    Tally,
    assign_gcs_to_tgcs,
    commit_check,
    miner_assemble,
    miner_finalize,
    renumber_after_void,
    rotate_bo,
)
from proactlab.wire import BlockTarget

import helpers

BACKEND = crypto.SIMULATED_BACKEND


def test_assignment_partitions_all_stations():
    rng = random.Random(1)
    gcc = list(range(100, 130))      # 30 stations
    tgcs = list(range(1, 21))        # 20 miners
    result = assign_gcs_to_tgcs(gcc, tgcs, rng)
    everything = [g for stations in result.values() for g in stations]
    assert sorted(everything) == sorted(gcc)
    assert all(len(result[t]) in (0, 1, 2, 3) for t in tgcs[:-1])
    assert set(result) == set(tgcs)


def test_assignment_exact_division():
    result = assign_gcs_to_tgcs([11, 12, 13, 14], [1, 2], random.Random(3))
    assert len(result[1]) == 2 and len(result[2]) == 2


def test_assignment_uneven_division_last_takes_remainder():
    for seed in range(10):
        result = assign_gcs_to_tgcs([11, 12, 13, 14, 15], [1, 2], random.Random(seed))
        assert len(result[1]) in (2, 3)
        assert len(result[1]) + len(result[2]) == 5


def test_assignment_rejects_bad_inputs():
    rng = random.Random(0)
    with pytest.raises(ConsensusError):
        assign_gcs_to_tgcs([1], [], rng)
    with pytest.raises(ConsensusError):
        assign_gcs_to_tgcs([1, 2], [2, 3], rng)


def test_window_orders_by_timestamp_not_arrival():
    # tip is block 43: ids 44..46 are issued by send time, not arrival order
    state = OrderingState(next_block_id=44)
    t1, t2, t3 = 1_000, 2_000, 3_000
    state.receive_nbr(NbrMessage(tgcs_id=2, timestamp_us=t2, request_count=1))
    state.receive_nbr(NbrMessage(tgcs_id=1, timestamp_us=t1, request_count=1))
    state.receive_nbr(NbrMessage(tgcs_id=3, timestamp_us=t3, request_count=1))
    assert state.window_close() == [
        Assignment(44, 1), Assignment(45, 2), Assignment(46, 3)]


def test_empty_window_issues_nothing():
    state = OrderingState(next_block_id=44)
    assert state.window_close() == []
    assert state.next_block_id == 44


def test_multi_request_nbr_gets_consecutive_ids():
    state = OrderingState(next_block_id=10)
    state.receive_nbr(NbrMessage(7, 100, 2))
    assert state.window_close() == [Assignment(10, 7), Assignment(11, 7)]


def test_late_nbr_sorts_first_in_next_window():
    state = OrderingState(next_block_id=0)
    state.receive_nbr(NbrMessage(5, 900, 1))
    assert state.window_close() == [Assignment(0, 5)]
    # the delayed request carries an older timestamp than the fresh one
    state.receive_nbr(NbrMessage(6, 2_000, 1))
    state.receive_nbr(NbrMessage(4, 800, 1))
    assert state.window_close() == [Assignment(1, 4), Assignment(2, 6)]


def test_timestamp_ties_break_by_station_id():
    state = OrderingState(next_block_id=0)
    state.receive_nbr(NbrMessage(9, 500, 1))
    state.receive_nbr(NbrMessage(2, 500, 1))
    assert state.window_close() == [Assignment(0, 2), Assignment(1, 9)]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 10_000),
                          st.integers(1, 3)), max_size=12))
def test_window_assignment_is_ascending_by_timestamp(requests):
    state = OrderingState(next_block_id=100)
    for tgcs, ts, count in requests:
        state.receive_nbr(NbrMessage(tgcs, ts, count))
    issued = state.window_close()
    total = sum(count for _, _, count in requests)
    assert [a.block_id for a in issued] == list(range(100, 100 + total))
    # ids follow (timestamp, station id) order, request counts contiguous,
    # arrival order breaking exact ties (stable sort)
    order = sorted(enumerate(requests), key=lambda p: (p[1][1], p[1][0], p[0]))
    expanded = [tgcs for _, (tgcs, _, count) in order for _ in range(count)]
    assert [a.tgcs_id for a in issued] == expanded


def test_commit_check_boundary():
    assert commit_check(26, 0, 50) is CommitVerdict.COMMITTED
    assert commit_check(25, 0, 50) is CommitVerdict.PENDING
    assert commit_check(0, 26, 50) is CommitVerdict.REJECTED
    assert commit_check(0, 3, 5) is CommitVerdict.REJECTED
    assert commit_check(2, 2, 5) is CommitVerdict.PENDING


def test_void_renumbers_later_assignments():
    state = OrderingState(next_block_id=44)
    for tgcs in (1, 2, 3):
        state.receive_nbr(NbrMessage(tgcs, tgcs * 100, 1))
    state.window_close()  # 44->1, 45->2, 46->3
    assert state.apply_void(45) is True
    assert state.assignments == {44: 1, 45: 3}
    assert state.next_block_id == 46


def test_void_of_committed_id_is_ignored():
    state = OrderingState(next_block_id=44)
    state.receive_nbr(NbrMessage(1, 100, 1))
    state.window_close()
    state.on_commit(44)
    assert state.apply_void(44) is False
    assert state.apply_void(99) is False


def test_two_consecutive_voids_compose():
    state = OrderingState(next_block_id=10)
    for tgcs in (1, 2, 3, 4):
        state.receive_nbr(NbrMessage(tgcs, tgcs, 1))
    state.window_close()  # 10..13
    state.apply_void(11)  # 12->11, 13->12
    state.apply_void(11)  # old 12 (now 11) voided; old 13 (now 12) -> 11
    assert state.assignments == {10: 1, 11: 4}
    assert state.next_block_id == 12


def test_tally_counts_the_miner_as_an_implicit_ack():
    tally = Tally(miner=7)
    tally.vote(3, is_ack=True)
    assert tally.acks == {3, 7}
    tally.vote(4, is_ack=False)
    tally.vote(4, is_ack=False)  # a repeated vote counts once
    assert tally.errors == {4}
    assert tally.verdict(3) is CommitVerdict.COMMITTED
    assert tally.verdict(5) is CommitVerdict.PENDING


def test_void_renumbers_uncommitted_tallies_above_it():
    done, voided, later, last = Tally(committed=True), Tally(), Tally(), Tally()
    tallies = {10: done, 11: voided, 12: later, 13: last}
    committed = lambda tally: tally.committed  # noqa: E731
    renumbered = renumber_after_void(tallies, 11, committed)
    assert renumbered == {10: done, 11: later, 12: last}
    assert renumbered[11] is later and renumbered[12] is last
    assert tallies == {10: done, 11: voided, 12: later, 13: last}  # input untouched
    # a void at the top drops only the voided tally, so a re-issued id
    # starts from an empty one
    assert renumber_after_void(tallies, 13, committed) == {10: done, 11: voided, 12: later}
    # a committed tally above the void keeps its id
    assert renumber_after_void({11: voided, 12: done, 14: last}, 11, committed) == \
        {12: done, 13: last}


def test_sequential_mode_single_outstanding_grant():
    state = OrderingState(next_block_id=0, sequential=True)
    state.receive_nbr(NbrMessage(1, 100, 1))
    state.receive_nbr(NbrMessage(2, 200, 1))
    assert state.window_close() == [Assignment(0, 1)]
    assert state.window_close() == []  # still outstanding
    state.on_commit(0)
    assert state.window_close() == [Assignment(1, 2)]


def test_ordering_state_handoff_roundtrip():
    state = OrderingState(next_block_id=20, sequential=True)
    state.receive_nbr(NbrMessage(1, 111, 1))
    state.receive_nbr(NbrMessage(2, 222, 2))
    state.window_close()
    restored = OrderingState.decode(state.encode())
    assert restored.next_block_id == state.next_block_id
    assert restored.sequential == state.sequential
    assert restored.assignments == state.assignments
    assert restored.pending == state.pending
    assert restored.committed_watermark == state.committed_watermark


def test_rotate_bo():
    cas = [10, 11, 12, 13, 14]
    assert rotate_bo(cas, 1250, 600) == 12
    assert rotate_bo(cas, 0, 600) == 10
    assert rotate_bo([7], 99_999, 600) == 7


def test_message_encodings_roundtrip():
    nbr = NbrMessage(4, 123456, 2)
    assert len(nbr.encode()) == 13
    assert NbrMessage.decode(nbr.encode()) == nbr

    ack = consensus.BlockAckMessage(44, 9)
    assert len(ack.encode()) == 12
    assert consensus.BlockAckMessage.decode(ack.encode()) == ack

    err = consensus.BlockErrorMessage(44, 9, consensus.ERROR_CODES["signature"])
    assert len(err.encode()) == 13
    assert consensus.BlockErrorMessage.decode(err.encode()) == err

    void = consensus.VoidMessage(45)
    assert len(void.encode()) == 8
    assert consensus.VoidMessage.decode(void.encode()) == void

    assign = consensus.AssignMessage((Assignment(44, 1), Assignment(45, 2)))
    assert len(assign.encode()) == 2 + 2 * 12
    assert consensus.AssignMessage.decode(assign.encode()) == assign


def _mixed_transactions(registry):
    t1 = [helpers.make_t1_command(registry, BACKEND, seq=i) for i in range(3)]
    t2 = [helpers.make_t3_data(registry, BACKEND, seq=10 + i) for i in range(2)]
    return t1 + t2


def test_assemble_partitions_by_target(registry):
    pending = miner_assemble(helpers.GCS_ID, _mixed_transactions(registry), 500, BACKEND)
    assert len(pending) == 2  # an NBR would carry request_count 2
    by_type = {p.header.block_type: p for p in pending}
    assert len(by_type[BlockTarget.BLOCK_T1].transactions) == 3
    assert len(by_type[BlockTarget.BLOCK_T2].transactions) == 2


def test_assemble_nothing_from_nothing():
    assert miner_assemble(helpers.GCS_ID, [], 500, BACKEND) == []


def test_assemble_single_transaction_block(registry):
    tx = helpers.make_t1_command(registry, BACKEND)
    pending = miner_assemble(helpers.GCS_ID, [tx], 500, BACKEND)
    assert len(pending) == 1 and len(pending[0].transactions) == 1


def _committed_block(registry, block_id):
    tx = helpers.make_t1_command(registry, BACKEND, seq=block_id)
    return wire.build_block(block_id, BlockTarget.BLOCK_T1, helpers.GCS_ID,
                            0, wire.ZERO_HASH, [tx], BACKEND)


def test_finalize_chains_to_predecessor(registry):
    predecessor = _committed_block(registry, 44)
    (draft,) = miner_assemble(helpers.GCS_ID,
                              [helpers.make_t1_command(registry, BACKEND, seq=99)],
                              700, BACKEND)
    block = miner_finalize(draft, 45, predecessor, BACKEND)
    assert block.block_id == 45
    prev_hash = wire.block_hash(predecessor.header, BACKEND)
    assert block.header.prev_hash == prev_hash
    assert ledger.validate_block(45, prev_hash, block, registry, BACKEND) == []


def test_finalize_requires_immediate_predecessor(registry):
    predecessor = _committed_block(registry, 44)
    (draft,) = miner_assemble(helpers.GCS_ID,
                              [helpers.make_t1_command(registry, BACKEND, seq=98)],
                              700, BACKEND)
    with pytest.raises(ConsensusError):
        miner_finalize(draft, 46, predecessor, BACKEND)


def _ordering_state():
    state = OrderingState(next_block_id=20)
    state.receive_nbr(NbrMessage(1, 111, 1))
    state.window_close()
    state.receive_nbr(NbrMessage(2, 222, 2))
    return state


# one valid encoding for each message decoder
_VALID_ENCODINGS = (
    (NbrMessage.decode, NbrMessage(4, 123456, 2).encode()),
    (consensus.AssignMessage.decode,
     consensus.AssignMessage((Assignment(44, 1), Assignment(45, 2))).encode()),
    (OrderingState.decode, _ordering_state().encode()),
    (consensus.BlockAckMessage.decode, consensus.BlockAckMessage(44, 9).encode()),
    (consensus.BlockErrorMessage.decode, consensus.BlockErrorMessage(44, 9, 3).encode()),
    (consensus.VoidMessage.decode, consensus.VoidMessage(45).encode()),
)
_DECODERS = tuple(decode for decode, _ in _VALID_ENCODINGS)


def test_decoders_reject_short_input_with_consensus_error():
    for decode in _DECODERS:
        with pytest.raises(ConsensusError):
            decode(b"\x01")
    # counts that promise more entries than the buffer holds
    with pytest.raises(ConsensusError):
        consensus.AssignMessage.decode(b"\x02\x00" + bytes(12))
    with pytest.raises(ConsensusError):
        OrderingState.decode(OrderingState(5).encode()[:-1])
    # a queued request for no ids would let a sequential orderer issue one
    # id in every window for ever
    with pytest.raises(ConsensusError):
        OrderingState.decode(struct.pack("<QqBH", 5, 4, 1, 1) + NbrMessage(1, 100, 0).encode()
                             + struct.pack("<H", 0))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64), st.integers(0, 255))
def test_decoders_raise_only_consensus_error(data, extra):
    for decode in _DECODERS:
        try:
            decode(data)
        except ConsensusError:
            pass
    # the formats are canonical: a valid encoding plus one byte is rejected
    for decode, encoding in _VALID_ENCODINGS:
        decode(encoding)
        with pytest.raises(ConsensusError):
            decode(encoding + bytes([extra]))


# --- model check of the station and orderer protocol ------------------------
#
# Two to four StationProtocols and one OrdererProtocol exchange messages
# through fake ports that put every send into a pool of messages in flight.
# Hypothesis picks what happens next: deliver any message, duplicate one, fire
# an armed orderer timer, hand the orderer state over, mute a miner for an
# id, or make a station's validation of an id fail.  Blocks are stand-ins
# that carry only what the protocol reads: their id, their miner and the
# draft they finalize.

ORDERER = 0


class ForkError(AssertionError):
    """The stations disagree for good on what one id holds: two committed
    different blocks under it, or one discards an id another committed."""


class DoubleCommitError(AssertionError):
    """A station committed one id twice."""


class StallError(AssertionError):
    """Nothing is left to deliver or fire, yet an assigned id has not
    committed everywhere."""


@dataclass(frozen=True)
class _Header:
    miner: int


@dataclass(frozen=True)
class _Block:
    block_id: int
    header: _Header
    draft: int


def _finalize(draft, block_id):
    return _Block(block_id, draft.header, draft.draft)


def _ids_in(message):
    """The block ids a message in flight is about."""
    if isinstance(message, consensus.AssignMessage):
        return {a.block_id for a in message.assignments}
    return {getattr(message, "block_id", None)}


class _Network:
    """What the fake ports share: messages in flight as (destination, kind,
    message), the orderer's armed timers in arming order, and each
    station's commits in order."""

    def __init__(self, station_ids):
        self.station_ids = station_ids
        self.pool = []
        self.timers = {}
        self.commits = {station: [] for station in station_ids}
        self.reclaimed = {station: [] for station in station_ids}


class _StationPort:
    def __init__(self, net, station_id):
        self.net, self.id = net, station_id

    def to_orderer(self, kind, message):
        self.net.pool.append((ORDERER, kind, message))

    def broadcast(self, kind, message, to_orderer=False):
        self.net.pool.extend((other, kind, message) for other in self.net.station_ids
                             if other != self.id)
        if to_orderer:
            self.to_orderer(kind, message)

    def commit(self, block_id, block):
        self.net.commits[self.id].append(block)

    def reclaim(self, draft):
        self.net.reclaimed[self.id].append(draft)


class _OrdererPort:
    def __init__(self, net):
        self.net = net

    def to_orderer(self, kind, message):
        self.net.pool.append((ORDERER, kind, message))

    def broadcast(self, kind, message):
        self.net.pool.extend((station, kind, message) for station in self.net.station_ids)

    def void(self, message):
        self.broadcast("void", message)

    def arm(self, kind, delay_s, block_id=0):
        self.net.timers.setdefault((kind, block_id))

    def workload_open(self):
        return False


class _Station(StationProtocol):
    """A station whose miner can be muted for an id: it then does not
    finalize its draft for that id, as a miner that fails."""

    def __init__(self, *args):
        super().__init__(*args)
        self.muted = set()

    def _try_finalize(self):
        if self.next_id not in self.muted:
            super()._try_finalize()


class ProtocolModel(RuleBasedStateMachine):
    """Variant (a): nothing is lost, and a void timer fires only while no
    message about its id is in flight."""

    drops = False         # a message in flight may be lost
    early_timers = False  # a void timer may fire while its id is in flight
    handoffs = False      # the orderer may hand its state over
    MAX_DRAFTS = 8
    MAX_COPIES = 3
    MAX_FAULTS = 3

    @initialize(n_stations=st.integers(2, 4), sequential=st.booleans())
    def build(self, n_stations, sequential):
        ids = list(range(1, n_stations + 1))
        self.net = net = _Network(ids)
        self.failing = set()
        self.stations = {}
        for station_id in ids:
            station = _Station(station_id, n_stations, _StationPort(net, station_id),
                               self._validator(station_id), _finalize)
            station.next_id = 1  # the genesis block is id 0
            self.stations[station_id] = station
        self.orderer = OrdererProtocol(n_stations, _OrdererPort(net), t_bis_s=0.05,
                                       t_blk_s=1.0)
        self.orderer.open(OrderingState(next_block_id=1, sequential=sequential))
        self.clock = self.drafts = self.copies = self.faults = self.handoffs_made = 0

    def _validator(self, station_id):
        def validate(block_id, block):
            return 1 if (station_id, block_id) in self.failing else None
        return validate

    def _station(self, index):
        ids = self.net.station_ids
        return self.stations[ids[index % len(ids)]]

    def _deliver(self, destination, kind, message):
        if destination == ORDERER:
            if kind == "nbr":
                self.orderer.on_nbr(message, acting=True)
            elif kind == "bo-handoff":
                self.orderer.open(OrderingState.decode(message))
            else:
                self.orderer.on_vote(message, is_ack=kind == "ack")
            return
        station = self.stations[destination]
        if kind == "void":
            if message.block_id >= station.next_id:
                for other, blocks in self.net.commits.items():
                    if any(block.block_id == message.block_id for block in blocks):
                        raise ForkError(f"station {destination} discards id {message.block_id}, "
                                        f"which station {other} has committed")
            station.on_void(message)
        elif kind == "assign":
            station.on_assign(message)
        elif kind == "block":
            station.on_block(message)
        else:
            station.on_vote(message, is_ack=kind == "ack")

    def _fire(self, key):
        del self.net.timers[key]
        self.orderer.on_timer(*key)

    @rule(station=st.integers(0, 3), count=st.integers(1, 2))
    def submit(self, station, count):
        """A miner asks ids for its reclaimed drafts first, then new ones."""
        station = self._station(station)
        reclaimed = self.net.reclaimed[station.id]
        drafts, reclaimed[:count] = reclaimed[:count], []
        while len(drafts) < count and self.drafts < self.MAX_DRAFTS:
            self.drafts += 1
            drafts.append(_Block(0, _Header(station.id), self.drafts))
        if drafts:
            self.clock += 1
            station.submit(drafts, self.clock)

    @precondition(lambda self: self.net.pool)
    @rule(index=st.integers(0, 255))
    def deliver(self, index):
        self._deliver(*self.net.pool.pop(index % len(self.net.pool)))

    @precondition(lambda self: self.net.pool and self.copies < self.MAX_COPIES)
    @rule(index=st.integers(0, 255))
    def duplicate(self, index):
        self.copies += 1
        self.net.pool.append(self.net.pool[index % len(self.net.pool)])

    @precondition(lambda self: self.drops and self.net.pool)
    @rule(index=st.integers(0, 255))
    def drop(self, index):
        self.net.pool.pop(index % len(self.net.pool))

    @precondition(lambda self: self.net.timers)
    @rule(index=st.integers(0, 255))
    def fire(self, index):
        in_flight = set()
        for _, kind, message in self.net.pool:
            if kind == "bo-handoff":
                return
            in_flight |= _ids_in(message)
        ready = [key for key in self.net.timers
                 if self.early_timers or key[0] == WINDOW or key[1] not in in_flight]
        if ready:
            self._fire(ready[index % len(ready)])

    @precondition(lambda self: self.handoffs and self.handoffs_made < 2
                  and self.orderer.ordering is not None)
    @rule()
    def hand_over(self):
        """The orderer state goes to the next authority; the timers stay
        with the one that gave up duty, where they find no state."""
        self.handoffs_made += 1
        state = self.orderer.close().encode()
        self.net.timers.clear()
        self.net.pool.append((ORDERER, "bo-handoff", state))

    @precondition(lambda self: self.faults < self.MAX_FAULTS)
    @rule(station=st.integers(0, 3), block_id=st.integers(1, 6))
    def mute(self, station, block_id):
        self.faults += 1
        self._station(station).muted.add(block_id)

    @precondition(lambda self: self.faults < self.MAX_FAULTS)
    @rule(station=st.integers(0, 3), block_id=st.integers(1, 6))
    def fail_validation(self, station, block_id):
        self.faults += 1
        self.failing.add((self._station(station).id, block_id))

    @invariant()
    def stations_agree(self):
        committed = {}
        for station_id, blocks in self.net.commits.items():
            ids = [block.block_id for block in blocks]
            if len(set(ids)) != len(ids):
                raise DoubleCommitError(f"station {station_id} committed {ids}")
            for block in blocks:
                first = committed.setdefault(block.block_id, (station_id, block))
                if first[1] != block:
                    raise ForkError(f"id {block.block_id}: station {first[0]} committed "
                                    f"{first[1]}, station {station_id} {block}")

    def teardown(self):
        """Without loss, the network drains with every assigned id committed
        at every station once the faults stop: deliver in order, and fire
        a timer whenever nothing is in flight."""
        if not hasattr(self, "net") or self.drops:
            return
        for station in self.stations.values():
            station.muted.clear()
        self.failing.clear()
        net = self.net
        for _ in range(2000):
            if net.pool:
                self._deliver(*net.pool.pop(0))
            elif net.timers:
                self._fire(next(iter(net.timers)))
            else:
                break
        self.stations_agree()
        ordering = self.orderer.ordering
        assigned = ordering.next_block_id - 1
        behind = {station_id: station.next_id for station_id, station in self.stations.items()
                  if station.next_id <= assigned}
        if net.pool or net.timers or ordering.assignments or behind:
            raise StallError(f"ids up to {assigned} assigned, {sorted(ordering.assignments)} "
                             f"outstanding, next ids of the stations behind {behind}, "
                             f"{len(net.pool)} messages and {len(net.timers)} timers left")


class HandoffModel(ProtocolModel):
    handoffs = True


class LossyModel(ProtocolModel):
    """Variant (b): a message may be lost, and a void timer may fire while
    messages about its id are in flight."""

    drops = True
    early_timers = True


# derandomized, so a run finds the same cases every time; the expected
# failures skip shrinking, which only costs time there
_SEARCH = settings(max_examples=150, stateful_step_count=40, deadline=None,
                   derandomize=True, database=None)
_FIND = settings(_SEARCH, phases=[Phase.explicit, Phase.generate], report_multiple_bugs=False)


def test_stations_agree_and_commit_every_id_when_nothing_is_lost():
    run_state_machine_as_test(ProtocolModel, settings=_SEARCH)


@pytest.mark.xfail(strict=True, raises=StallError,
                   reason="votes that reach the orderer while its state is in flight "
                          "commit its tally but never clear the assignment, and a handoff "
                          "arms no void timer for the assignments it carries")
def test_stations_agree_and_commit_every_id_across_orderer_handoffs():
    run_state_machine_as_test(HandoffModel, settings=_FIND)


@pytest.mark.xfail(strict=True, raises=ForkError,
                   reason="ROADMAP item 3: a station that commits a block ignores the "
                          "orderer's later void of its id, so the stations fork")
def test_stations_agree_when_messages_are_lost_and_timers_fire_early():
    run_state_machine_as_test(LossyModel, settings=_FIND)
