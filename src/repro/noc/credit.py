"""Credit-based flow control bookkeeping.

Each router output port tracks, per downstream virtual channel, how many free
buffer slots remain.  When a flit is sent downstream a credit is consumed;
when the downstream router drains a flit out of that VC it returns a credit
(after a configurable credit-return latency, default 1 cycle).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple


def credit_round_trip_cycles(
    link_latency: int = 1,
    credit_latency: int = 1,
    processing_cycles: int = 1,
) -> int:
    """Cycles between sending a flit and seeing its buffer slot credited back.

    The flit crosses the link (``link_latency``), the downstream router
    drains it (at least one ``processing_cycles``), and the credit rides
    the return wire (``credit_latency``).  A VC buffer shallower than this
    round trip cannot keep its link busy even with a ready sender — the
    sizing rule :mod:`repro.staticcheck` checks statically.
    """
    if link_latency < 0 or credit_latency < 0 or processing_cycles < 0:
        raise ValueError("latencies must be >= 0")
    return link_latency + credit_latency + processing_cycles


class CreditChannel:
    """Models the credit return wire from a downstream input port.

    Credits are enqueued with a delivery cycle and become visible to the
    upstream output port once the simulation time reaches that cycle.
    """

    __slots__ = ("latency", "_in_flight")

    def __init__(self, latency: int = 1) -> None:
        if latency < 0:
            raise ValueError("credit latency must be >= 0")
        self.latency = latency
        self._in_flight: Deque[Tuple[int, int]] = deque()  # (deliver_at, vc)

    def send(self, vc: int, now: int) -> None:
        """Downstream signals one freed slot in ``vc`` at cycle ``now``."""
        self._in_flight.append((now + self.latency, vc))

    @property
    def pending(self) -> int:
        return len(self._in_flight)


class CreditCounter:
    """Per-output-port credit state for every downstream VC."""

    __slots__ = ("counts", "capacity", "total")

    def __init__(self, num_vcs: int, vc_capacity: int) -> None:
        if num_vcs < 1 or vc_capacity < 1:
            raise ValueError("num_vcs and vc_capacity must be >= 1")
        self.capacity = vc_capacity
        self.counts: List[int] = [vc_capacity] * num_vcs
        # Running sum of ``counts`` — the adaptive-routing congestion
        # score reads it every retry, so it is maintained incrementally.
        # Router.step, the only writer of ``counts``, keeps it in step.
        self.total = num_vcs * vc_capacity

    def available(self, vc: int) -> int:
        return self.counts[vc]

