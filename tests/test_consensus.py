"""Ordering windows, quorum and vote tallies, voids, the miner pipeline,
and the message formats."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from proactlab import consensus, crypto, ledger, wire
from proactlab.consensus import (
    Assignment,
    CommitVerdict,
    ConsensusError,
    NbrMessage,
    OrderingState,
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
