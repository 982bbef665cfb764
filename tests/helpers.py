"""Shared fixtures: registries with canonical node ids and the two
reference transactions whose wire sizes anchor the overhead arithmetic."""

from __future__ import annotations

from proactlab import crypto, txbuild
from proactlab.crypto import HashBackend, KeyRegistry
from proactlab.wire import AccessClass, BlockTarget, Transaction

CA_ID = 1
GCS_ID = 10
GCS2_ID = 11
DRONE_A = 100
DRONE_B = 101
GROUP_MEMBERS = tuple(range(100, 107))
KEY_SEED = b"test"


def make_registry(backend: HashBackend) -> KeyRegistry:
    registry = KeyRegistry(backend, key_seed=KEY_SEED)
    registry.register_node(CA_ID, is_ca=True)
    registry.register_node(GCS_ID)
    registry.register_node(GCS2_ID)
    for drone in GROUP_MEMBERS:
        registry.register_node(drone)
    return registry


def make_t1_command(registry: KeyRegistry, backend: HashBackend, *,
                    creator: int = GCS_ID, owner: int = DRONE_A,
                    seq: int = 1, created_at_us: int = 1_000_000,
                    plaintext: bytes = bytes(100)) -> Transaction:
    """Single-owner sealed command, 100-byte plaintext, 64-bit tier.

    Encodes to exactly 199 bytes (the short-mission command fixture)."""
    return txbuild.build_transaction(
        creator=creator, tx_seq=seq, created_at_us=created_at_us,
        suite=crypto.SUITE_S2_C1, access_class=AccessClass.SINGLE,
        owners=(owner,), block_target=BlockTarget.BLOCK_T1,
        plaintext=plaintext, registry=registry, backend=backend)


def make_t3_data(registry: KeyRegistry, backend: HashBackend, *,
                 creator: int = DRONE_A, seq: int = 1,
                 created_at_us: int = 2_000_000,
                 plaintext: bytes = bytes(10240)) -> Transaction:
    """Public data report, 10240-byte plaintext, permanent-security tier.

    Encodes to exactly 10354 bytes (the data-report fixture)."""
    return txbuild.build_transaction(
        creator=creator, tx_seq=seq, created_at_us=created_at_us,
        suite=crypto.SUITE_S1, access_class=AccessClass.PUBLIC,
        owners=(), block_target=BlockTarget.BLOCK_T2,
        plaintext=plaintext, registry=registry, backend=backend)


def make_group_command(registry: KeyRegistry, backend: HashBackend, *,
                       creator: int = GCS_ID, members=GROUP_MEMBERS,
                       seq: int = 1, created_at_us: int = 3_000_000,
                       plaintext: bytes = bytes(100),
                       suite: crypto.CryptoSuite = crypto.SUITE_S2_C1) -> Transaction:
    registry.group_keygen(CA_ID, members)
    return txbuild.build_transaction(
        creator=creator, tx_seq=seq, created_at_us=created_at_us,
        suite=suite, access_class=AccessClass.GROUP,
        owners=tuple(members), block_target=BlockTarget.BLOCK_T1,
        plaintext=plaintext, registry=registry, backend=backend)
