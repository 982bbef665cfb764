"""Drone energy accounting: radio, crypto processing, and flight drain.

Flight power drains lazily up to a cap (the mission end), so bookkeeping
that happens while the consensus pipeline flushes does not charge the
battery.  A drone whose budget hits zero deactivates and stops generating
or forwarding traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto import CryptoSuite

from .engine import US


@dataclass(frozen=True)
class EnergyCoefficients:
    e_tx_uj_per_byte: float
    e_rx_uj_per_byte: float
    p_flight_w: float
    initial_j: float


class EnergyState:
    def __init__(self, coeffs: EnergyCoefficients, flight_cap_us: int):
        self.coeffs = coeffs
        self.remaining_j = coeffs.initial_j
        self.active = True
        self._flight_cap_us = flight_cap_us
        self._flight_accounted_us = 0

    @property
    def consumed_j(self) -> float:
        return self.coeffs.initial_j - self.remaining_j

    def _drain(self, joules: float) -> None:
        if joules <= 0 or not self.active:
            return
        self.remaining_j -= joules
        if self.remaining_j <= 0:
            self.remaining_j = 0.0
            self.active = False

    def update_flight(self, now_us: int) -> None:
        until = min(now_us, self._flight_cap_us)
        if until > self._flight_accounted_us:
            dt_s = (until - self._flight_accounted_us) / US
            self._flight_accounted_us = until
            self._drain(self.coeffs.p_flight_w * dt_s)

    def account_tx(self, n_bytes: int, now_us: int) -> None:
        self.update_flight(now_us)
        self._drain(self.coeffs.e_tx_uj_per_byte * n_bytes * 1e-6)

    def account_rx(self, n_bytes: int, now_us: int) -> None:
        self.update_flight(now_us)
        self._drain(self.coeffs.e_rx_uj_per_byte * n_bytes * 1e-6)

    def account_crypto(self, suite: CryptoSuite, n_bytes: int, now_us: int) -> None:
        self.update_flight(now_us)
        self._drain((suite.cost.uj_per_op + suite.cost.uj_per_byte * n_bytes) * 1e-6)
