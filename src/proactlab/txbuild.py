"""Transaction construction and verification on top of wire + crypto.

Sealing nonces are derived deterministically from (creator, tx_seq) so a
whole scenario run is reproducible from its seed.
"""

from __future__ import annotations

import struct
from typing import Sequence

from . import crypto, wire
from .crypto import CryptoSuite, HashBackend, KeyRegistry, blake2b
from .wire import AccessClass, BlockTarget, Transaction


def deterministic_nonce(creator: int, tx_seq: int) -> bytes:
    return blake2b(
        b"nonce" + struct.pack("<IQ", creator, tx_seq), digest_size=crypto.NONCE_LEN
    ).digest()


def build_transaction(*, creator: int, tx_seq: int, created_at_us: int,
                      suite: CryptoSuite, access_class: AccessClass,
                      owners: Sequence[int], block_target: BlockTarget,
                      plaintext: bytes, registry: KeyRegistry,
                      backend: HashBackend, zeros: int = 0) -> Transaction:
    """Seal (when private), sign and store the derived facts.  The payload is
    ``plaintext`` then ``zeros`` zero bytes, which a public one holds as a count."""
    owners, payload = tuple(owners), plaintext
    if access_class is not AccessClass.PUBLIC:
        payload = crypto.seal(suite, registry.sealing_key(owners),
                              deterministic_nonce(creator, tx_seq), plaintext + bytes(zeros),
                              backend)
        zeros = 0
    return wire.new_transaction(
        lambda digest: crypto.sign(suite, registry.public_key(creator), digest, backend), backend,
        creator=creator, tx_seq=tx_seq, created_at_us=created_at_us,
        access_class=access_class, owners=owners, security_class=suite.security_class,
        block_target=block_target, payload=payload, payload_zeros=zeros)


def verify_transaction(tx: Transaction, registry: KeyRegistry,
                       backend: HashBackend) -> bool:
    """Check the content digest, derived once per object, against the
    claimed creator's registered public key.  A success is stored on the
    object with that key, for the backend that derived its facts, so a
    second check of the object reads it; a failure is never stored."""
    if not registry.has_node(tx.creator):
        return False
    public = registry.public_key(tx.creator)
    content = wire.content_digest(tx, backend)  # another backend's verdict is cleared
    if tx._verified_under == public:
        return True
    if not crypto.verify(crypto.suite_for_class(tx.security_class), public, content,
                         tx.signature, backend):
        return False
    object.__setattr__(tx, "_verified_under", public)
    return True


def registration_payload(node_id: int, role: str, real_id: str,
                         public_key: bytes) -> bytes:
    """Body of a node-registration transaction (genesis and add-UAV)."""
    return f"reg|{role}|{node_id}|{real_id}|{public_key.hex()}".encode()
