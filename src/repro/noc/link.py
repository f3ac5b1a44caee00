"""Physical link model.

Links carry one flit per cycle (flits are sized to the link width, so a wider
link simply means fewer flits per packet — see
:func:`repro.noc.flit.packet_size_for`).  Each link records utilization so
the Section-3 analysis (injection links ~4.5x busier than in-network links)
can be reproduced.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.noc.flit import Flit


class Link:
    """A unidirectional pipelined link with ``latency`` cycles of delay."""

    __slots__ = (
        "name", "latency", "_pipe", "flits_carried", "busy_cycles",
        "is_injection", "failed",
    )

    def __init__(
        self, name: str = "", latency: int = 1, is_injection: bool = False
    ) -> None:
        if latency < 1:
            raise ValueError("link latency must be >= 1")
        self.name = name
        self.latency = latency
        self._pipe: Deque[Tuple[int, Flit]] = deque()  # (arrival_cycle, flit)
        self.flits_carried = 0
        self.busy_cycles = 0
        self.is_injection = is_injection
        # Fault-injection marker (repro.faults): a failed link is fenced at
        # allocation time, so send() is never reached for it; the flag is
        # observability state, not a hot-path check.
        self.failed = False

    def send(self, flit: Flit, now: int) -> None:
        """Put a flit onto the wire at cycle ``now``."""
        self._pipe.append((now + self.latency, flit))
        self.flits_carried += 1
        self.busy_cycles += 1

    _EMPTY: list = []

    def arrivals(self, now: int) -> list:
        """Flits whose wavefront reaches the far end at cycle ``now``."""
        pipe = self._pipe
        if not pipe or pipe[0][0] > now:
            return Link._EMPTY
        out = []
        while pipe and pipe[0][0] <= now:
            out.append(pipe.popleft()[1])
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pipe)

    def flits_in_flight(self) -> List[Flit]:
        """The flits on the wire, oldest first (for audits)."""
        return [flit for _, flit in self._pipe]

    def utilization(self, elapsed_cycles: int) -> float:
        """Average flits per cycle carried over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.flits_carried / elapsed_cycles

    def reset_stats(self) -> None:
        self.flits_carried = 0
        self.busy_cycles = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Link({self.name!r}, lat={self.latency}, carried={self.flits_carried})"
