"""Minimal deterministic discrete-event engine.

Events fire in (time, sequence) order; handlers may only schedule events at
the current time or later, which the engine enforces.  Everything runs on
integer microseconds to keep runs bit-reproducible.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, TextIO, Tuple

US = 1_000_000


def to_us(seconds: float) -> int:
    return int(round(seconds * US))


class Simulator:
    def __init__(self, event_log: Optional[TextIO] = None):
        self.now_us = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self.event_log = event_log

    def schedule_at(self, time_us: int, handler: Callable[[], None]) -> None:
        if time_us < self.now_us:
            raise ValueError(f"cannot schedule into the past ({time_us} < {self.now_us})")
        self._seq += 1
        heapq.heappush(self._queue, (time_us, self._seq, handler))

    def schedule_in(self, delay_us: int, handler: Callable[[], None]) -> None:
        self.schedule_at(self.now_us + max(0, delay_us), handler)

    def log(self, agent: str, kind: str, detail: str = "") -> None:
        if self.event_log is not None:
            self.event_log.write(f"{self.now_us}\t{agent}\t{kind}\t{detail}\n")

    def run(self, horizon_us: Optional[int] = None) -> bool:
        """Drain the queue; returns True when it emptied (quiescence) and
        False when the horizon cut the run short."""
        while self._queue:
            time_us, _, handler = self._queue[0]
            if horizon_us is not None and time_us > horizon_us:
                return False
            heapq.heappop(self._queue)
            self.now_us = time_us
            handler()
        return True
