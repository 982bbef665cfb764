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
    """Seal (when private), fill the crypto metadata, sign, and store the
    derived facts.  The payload is ``plaintext`` followed by ``zeros`` zero
    bytes, which a public transaction holds as a count."""
    owners = tuple(owners)
    if access_class is AccessClass.PUBLIC:
        payload = plaintext
        enc_id, enc_par = 0, ""
    else:
        sealed_to = registry.sealing_key(owners).public_key
        payload = crypto.seal(suite, sealed_to, deterministic_nonce(creator, tx_seq),
                              plaintext + bytes(zeros), backend)
        enc_id, enc_par, zeros = suite.suite_id, suite.enc_par, 0
    return wire.new_transaction(
        lambda digest: crypto.sign(suite, registry.public_key(creator), digest, backend), backend,
        creator=creator, tx_seq=tx_seq, created_at_us=created_at_us, topic=0,
        access_class=access_class, owners=owners,
        security_class=suite.security_class, block_target=block_target,
        enc_id=enc_id, hash_id=suite.hash_variant.value,
        enc_par=enc_par, hash_par=suite.hash_par, payload=payload, payload_zeros=zeros)


def verify_transaction(tx: Transaction, registry: KeyRegistry,
                       backend: HashBackend) -> bool:
    """Check the content digest, derived once per object, against the
    claimed creator's registered public key."""
    if not registry.has_node(tx.creator):
        return False
    suite = crypto.suite_for_class(tx.security_class)
    return crypto.verify(suite, registry.public_key(tx.creator),
                         wire.content_digest(tx, backend), tx.signature, backend)


def registration_payload(node_id: int, role: str, real_id: str,
                         public_key: bytes) -> bytes:
    """Body of a node-registration transaction (genesis and add-UAV)."""
    return f"reg|{role}|{node_id}|{real_id}|{public_key.hex()}".encode()
