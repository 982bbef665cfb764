"""Run bookkeeping and the four headline metrics.

Every generated transaction ends in exactly one conservation state
(committed, rejected-invalid, dropped-in-transit, or pending-at-end);
the collector enforces single-assignment per transaction.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..crypto import blake2b
from ..wire import COMMIT_LEN
from .engine import US

TxKey = Tuple[int, int]


def _fmt(value: float) -> str:
    """The one float format of every output file."""
    return f"{value:.6g}"


@dataclass
class MetricsRecord:
    seed: int
    mode: str
    n_uav: int
    malicious_fraction: float
    data_tx_size: int
    adr: Optional[float]                  # None when no attacks were injected
    tbd_mean_s: float
    dec_mean_kj: float
    bto_mean: float
    counters: Dict[str, int]
    committed_keys: Tuple[TxKey, ...]    # ascending
    committed_fingerprint: str
    tbd_samples_s: List[float] = field(repr=False, default_factory=list)

    def csv_row(self) -> Dict[str, str]:
        return {
            "seed": str(self.seed),
            "mode": self.mode,
            "n_uav": str(self.n_uav),
            "malicious_fraction": _fmt(self.malicious_fraction),
            "data_tx_size": str(self.data_tx_size),
            "adr": "na" if self.adr is None else _fmt(self.adr),
            "tbd_mean_s": _fmt(self.tbd_mean_s),
            "dec_mean_kj": _fmt(self.dec_mean_kj),
            "bto_mean": _fmt(self.bto_mean),
            "blocks_committed": str(self.counters.get("blocks_committed", 0)),
            "blocks_voided": str(self.counters.get("blocks_voided", 0)),
            "packets_dropped": str(self.counters.get("packets_dropped", 0)),
        }


CSV_COLUMNS = ["seed", "mode", "n_uav", "malicious_fraction", "data_tx_size",
               "adr", "tbd_mean_s", "dec_mean_kj", "bto_mean",
               "blocks_committed", "blocks_voided", "packets_dropped"]


class MetricsCollector:
    def __init__(self) -> None:
        self.counters: Dict[str, int] = {
            "txs_generated": 0,
            "txs_committed": 0,
            "txs_rejected_invalid": 0,
            "txs_dropped_expired": 0,
            "txs_pending_at_end": 0,
            "attacks_injected": 0,
            "attacks_detected": 0,
            "blocks_committed": 0,
            "blocks_voided": 0,
            "packets_dropped": 0,
            "fetch_local": 0,
            "fetch_neighbor": 0,
            "fetch_gcs": 0,
        }
        # Unsettled key -> creation time; a settle pops it, so it counts once.
        self._pending: Dict[TxKey, int] = {}
        self._committed_keys: List[TxKey] = []
        self.tbd_samples_s: List[float] = []
        self._bto_sum = 0.0
        self._bto_count = 0
        # Each committed transaction's facts record, kept, not copied (wire.commit_record).
        self._committed_records: List[bytes] = []
        self._attack_detected: Set[int] = set()

    # --- transaction lifecycle ---

    def tx_generated(self, key: TxKey, created_at_us: int) -> None:
        self.counters["txs_generated"] += 1
        self._pending[key] = created_at_us

    def tx_committed(self, key: TxKey, record: bytes, commit_us: int) -> None:
        created = self._pending.pop(key, None)
        if created is None:
            return
        self.counters["txs_committed"] += 1
        self._committed_keys.append(key)
        self._committed_records.append(record)
        self.tbd_samples_s.append((commit_us - created) / US)

    def tx_rejected(self, key: TxKey) -> None:
        if self._pending.pop(key, None) is not None:
            self.counters["txs_rejected_invalid"] += 1

    def tx_dropped(self, key: TxKey) -> None:
        if self._pending.pop(key, None) is not None:
            self.counters["txs_dropped_expired"] += 1

    # --- attacks ---

    def attack_injected(self) -> int:
        self.counters["attacks_injected"] += 1
        return self.counters["attacks_injected"]

    def attack_detected(self, attack_id: int) -> None:
        if attack_id not in self._attack_detected:
            self._attack_detected.add(attack_id)
            self.counters["attacks_detected"] += 1

    # --- storage overhead ---

    def bto_sample(self, overheads: Sequence[float]) -> None:
        """Add a stored copy's overheads one at a time, in order: ``bto_mean``
        depends on the order, and ``sum`` compensates from Python 3.12 on."""
        self._bto_sum = functools.reduce(operator.add, overheads, self._bto_sum)
        self._bto_count += len(overheads)

    def block_committed(self) -> None:
        self.counters["blocks_committed"] += 1

    def block_voided(self) -> None:
        self.counters["blocks_voided"] += 1

    # --- finalization ---

    def conservation_ok(self) -> bool:
        settled = (self.counters["txs_committed"]
                   + self.counters["txs_rejected_invalid"]
                   + self.counters["txs_dropped_expired"]
                   + self.counters["txs_pending_at_end"])
        return settled == self.counters["txs_generated"]

    def finalize(self, *, seed: int, mode: str, n_uav: int,
                 malicious_fraction: float, data_tx_size: int,
                 consumed_j_per_drone: List[float],
                 packets_dropped: int) -> MetricsRecord:
        self.counters["packets_dropped"] = packets_dropped
        self.counters["txs_pending_at_end"] = len(self._pending)

        injected = self.counters["attacks_injected"]
        adr = (self.counters["attacks_detected"] / injected) if injected else None
        tbd_mean = (sum(self.tbd_samples_s) / len(self.tbd_samples_s)
                    if self.tbd_samples_s else 0.0)
        dec_mean_kj = (sum(consumed_j_per_drone) / len(consumed_j_per_drone) / 1000.0
                       if consumed_j_per_drone else 0.0)
        bto_mean = self._bto_sum / self._bto_count if self._bto_count else 0.0
        # The sorted commit digests fed one at a time: a join allocates 80 B per digest.
        # Each record starts with its fixed-length commit digest, so the records sort
        # as their digests do, and records with equal digests feed equal bytes.
        fingerprint = blake2b(digest_size=16)
        self._committed_records.sort()
        for record in self._committed_records:
            fingerprint.update(record[:COMMIT_LEN])
        self._committed_keys.sort()
        return MetricsRecord(
            seed=seed, mode=mode, n_uav=n_uav,
            malicious_fraction=malicious_fraction, data_tx_size=data_tx_size,
            adr=adr, tbd_mean_s=tbd_mean, dec_mean_kj=dec_mean_kj,
            bto_mean=bto_mean, counters=dict(self.counters),
            committed_keys=tuple(self._committed_keys),
            committed_fingerprint=fingerprint.hexdigest(),
            tbd_samples_s=self.tbd_samples_s)
