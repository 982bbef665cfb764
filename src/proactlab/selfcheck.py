"""Built-in correctness checks: pinned digest vectors, wire-size fixtures,
the ordering and quorum worked examples, and the overhead arithmetic.

These run from the command line (`proactlab selftest`) so a deployment can
prove its build is sound without the test suite installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from . import consensus, crypto, txbuild, wire
from .consensus import Assignment, CommitVerdict, NbrMessage, OrderingState
from .crypto import HashVariant, KeyRegistry
from .wire import AccessClass, BlockTarget

PATTERN_1000 = bytes(i % 251 for i in range(1000))

#: digest vectors pinned from the bit-level reference model before the
#: production implementation existed
PINNED_VECTORS: List[Tuple[HashVariant, str, bytes, str]] = [
    (HashVariant.SPONGENT_88, "empty", b"", "a0c6c93510fe871f385a7f"),
    (HashVariant.SPONGENT_88, "abc", b"abc", "5ca730cf89c71c35f79fa3"),
    (HashVariant.SPONGENT_88, "pattern-1000", PATTERN_1000,
     "c71db337c162ec601ca5e4"),
    (HashVariant.SPONGENT_224, "empty", b"",
     "a5ca8fb1f4aca3e25f77420c8c4f0f9961d1485d24dcf8fd95758f33"),
    (HashVariant.SPONGENT_224, "abc", b"abc",
     "4d7bf9f6750cd79c46aa377e24fcee2607aa856cba98657cfcef5811"),
    (HashVariant.SPONGENT_224, "pattern-1000", PATTERN_1000,
     "a1d77079d26d1113ae4e0646dbc74acb926ccc591f3a1330fbd4e96b"),
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, got, expected, tolerance: float = 0.0) -> "CheckResult":
    passed = abs(got - expected) < tolerance if tolerance else got == expected
    return CheckResult(name, passed, "" if passed else f"got {got}")


def check_vectors() -> List[CheckResult]:
    return [_check(f"spongent-{variant.name[-3:].lstrip('_')}:{label}",
                   crypto.spongent(variant, message).hex(), expected)
            for variant, label, message, expected in PINNED_VECTORS]


def _fixture_registry() -> KeyRegistry:
    registry = KeyRegistry(crypto.SIMULATED_BACKEND, b"selftest")
    registry.register_node(1, is_ca=True)
    registry.register_node(10)
    registry.register_node(100)
    return registry


def _command_fixture(registry: KeyRegistry) -> wire.Transaction:
    return txbuild.build_transaction(
        creator=10, tx_seq=1, created_at_us=0, suite=crypto.SUITE_S2_C1,
        access_class=AccessClass.SINGLE, owners=(100,),
        block_target=BlockTarget.BLOCK_T1, plaintext=bytes(100),
        registry=registry, backend=crypto.SIMULATED_BACKEND)


def _data_fixture(registry: KeyRegistry) -> wire.Transaction:
    return txbuild.build_transaction(
        creator=100, tx_seq=2, created_at_us=0, suite=crypto.SUITE_S1,
        access_class=AccessClass.PUBLIC, owners=(),
        block_target=BlockTarget.BLOCK_T2, plaintext=bytes(10240),
        registry=registry, backend=crypto.SIMULATED_BACKEND)


def check_wire_fixtures() -> List[CheckResult]:
    registry = _fixture_registry()
    results = []
    command = _command_fixture(registry)
    encoded = wire.encode_transaction(command)
    results.append(_check("wire:sealed-command-199B", len(encoded), 199))
    results.append(CheckResult("wire:round-trip",
                               wire.decode_transaction(encoded) == command))
    data = _data_fixture(registry)
    results.append(_check("wire:public-data-10354B", wire.encoded_tx_size(data), 10354))
    results.append(_check("wire:empty-header-80B", wire.encoded_header_size(()), 80))
    return results


def check_ordering_example() -> List[CheckResult]:
    # tip is block 43; requests arrive out of send order and must be
    # assigned ids 44/45/46 by their timestamps
    state = OrderingState(next_block_id=44)
    state.receive_nbr(NbrMessage(2, 2_000, 1))
    state.receive_nbr(NbrMessage(1, 1_000, 1))
    state.receive_nbr(NbrMessage(3, 3_000, 1))
    expected = [Assignment(44, 1), Assignment(45, 2), Assignment(46, 3)]
    return [_check("ordering:44-45-46", state.window_close(), expected)]


def check_quorum_example() -> List[CheckResult]:
    return [
        _check("quorum:50-needs-26", consensus.commit_check(26, 0, 50),
               CommitVerdict.COMMITTED),
        _check("quorum:25-insufficient", consensus.commit_check(25, 0, 50),
               CommitVerdict.PENDING),
    ]


def check_overhead_fixtures() -> List[CheckResult]:
    registry = _fixture_registry()
    command = _command_fixture(registry)
    data = _data_fixture(registry)
    return [
        _check("bto:command-0.99", wire.tx_overhead(command), 0.99, 1e-12),
        _check("bto:data-0.01113", wire.tx_overhead(data), 114 / 10240, 1e-12),
    ]


def run_all() -> List[CheckResult]:
    results: List[CheckResult] = []
    results.extend(check_vectors())
    results.extend(check_wire_fixtures())
    results.extend(check_ordering_example())
    results.extend(check_quorum_example())
    results.extend(check_overhead_fixtures())
    return results
