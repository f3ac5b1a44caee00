"""Virtual-channel input buffers.

Each router input port holds ``num_vcs`` virtual channels.  A VC is a FIFO of
flits plus the wormhole switching state of the packet currently at its front:

``IDLE``     — empty, or next packet's head not yet at the front.
``ROUTING``  — a head flit is at the front and needs route computation.
``VA``       — routed; waiting for an output VC to be allocated.
``ACTIVE``   — output port + VC held; flits drain through switch allocation.

Non-atomic buffer allocation (Whole Packet Forwarding, [Ma HPCA'12], used by
the paper for both XY and adaptive routing) allows a VC that already holds
flits of one packet to accept a *whole* subsequent packet, provided the free
space can hold all of it.  The admission check lives in
:meth:`VirtualChannel.can_accept_packet` (local side) and is mirrored by the
upstream credit counter check in the VC allocator.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, List, Optional

from repro.noc.flit import Flit


class VCState(enum.IntEnum):
    IDLE = 0
    ROUTING = 1
    VA = 2
    ACTIVE = 3


class VirtualChannel:
    """One virtual channel: a flit FIFO plus per-front-packet route state."""

    __slots__ = (
        "index",
        "capacity",
        "fifo",
        "state",
        "out_port",
        "out_vc",
        "wait_since",
        "candidates",
        "escape",
        "blocked",
    )

    def __init__(self, index: int, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("VC capacity must be >= 1")
        self.index = index
        self.capacity = capacity
        self.fifo: Deque[Flit] = deque()
        self.state = VCState.IDLE
        self.out_port: Optional[int] = None
        self.out_vc: Optional[int] = None
        # Cycle at which the current front flit became ready; used by the
        # ARI starvation threshold (Sec. 5).
        self.wait_since: Optional[int] = None
        # Route-computation results for the packet at the front (set while
        # in ROUTING/VA; adaptive routing keeps several candidates).
        self.candidates: Optional[list] = None
        self.escape: Optional[int] = None
        # Router's blocked-head memo: the ``Router._freed`` sum over the
        # candidates when VC allocation last failed (None = retry).
        self.blocked: Optional[int] = None

    # -- capacity ------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.fifo)

    @property
    def free_space(self) -> int:
        return self.capacity - len(self.fifo)

    @property
    def empty(self) -> bool:
        return not self.fifo

    def can_accept_packet(self, size: int) -> bool:
        """WPF admission: the whole packet must fit in the free space."""
        return self.free_space >= size

    # -- enqueue / dequeue ---------------------------------------------
    def push(self, flit: Flit, now: int) -> None:
        if self.free_space <= 0:
            raise RuntimeError(f"VC {self.index} overflow")
        flit.vc = self.index
        self.fifo.append(flit)
        if len(self.fifo) == 1:
            self._on_new_front(now)

    def front(self) -> Optional[Flit]:
        return self.fifo[0] if self.fifo else None

    def pop(self, now: int) -> Flit:
        """Remove the front flit (it won switch allocation)."""
        if not self.fifo:
            raise RuntimeError(f"VC {self.index} underflow")
        flit = self.fifo.popleft()
        if flit.is_tail:
            # Packet fully drained from this VC: release route state so the
            # next packet (if buffered behind, WPF) restarts at ROUTING.
            self.out_port = None
            self.out_vc = None
            self.candidates = None
            self.escape = None
            self.blocked = None
            self.state = VCState.IDLE
        if self.fifo:
            self._on_new_front(now)
        elif not flit.is_tail:
            # Body flits still upstream; stay ACTIVE with the held route.
            self.wait_since = None
        else:
            self.wait_since = None
        return flit

    def _on_new_front(self, now: int) -> None:
        front = self.fifo[0]
        self.wait_since = now
        if front.is_head:
            if self.state == VCState.ACTIVE and self.out_port is not None:
                # A fresh head behind a still-draining packet cannot start
                # until the tail releases the VC (handled in pop()).
                return
            self.state = VCState.ROUTING
        else:
            # Body/tail flit of the active packet.
            if self.out_port is None:
                raise RuntimeError("body flit at VC front without a route")
            self.state = VCState.ACTIVE

    # -- pipeline state transitions --------------------------------------
    def set_route(self, out_port: int) -> None:
        if self.state != VCState.ROUTING:
            raise RuntimeError(f"set_route in state {self.state!r}")
        self.out_port = out_port
        front = self.fifo[0]
        front.out_port = out_port
        self.state = VCState.VA

    def set_out_vc(self, out_vc: int) -> None:
        if self.state != VCState.VA:
            raise RuntimeError(f"set_out_vc in state {self.state!r}")
        self.out_vc = out_vc
        front = self.fifo[0]
        front.out_vc = out_vc
        self.state = VCState.ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VC(idx={self.index}, occ={self.occupancy}/{self.capacity},"
            f" state={self.state.name})"
        )


class InputPort:
    """A router input port: a set of VCs sharing one physical input link."""

    __slots__ = ("port_id", "vcs", "is_injection", "occ")

    def __init__(
        self,
        port_id: int,
        num_vcs: int,
        vc_capacity: int,
        is_injection: bool = False,
    ) -> None:
        self.port_id = port_id
        self.vcs: List[VirtualChannel] = [
            VirtualChannel(i, vc_capacity) for i in range(num_vcs)
        ]
        self.is_injection = is_injection
        # Flit count across all VCs, maintained by the owning router (hot
        # loop avoids re-summing every cycle).
        self.occ = 0

    @property
    def num_vcs(self) -> int:
        return len(self.vcs)

    def total_occupancy(self) -> int:
        return sum(vc.occupancy for vc in self.vcs)

    def oldest_wait(self, now: int) -> int:
        """Longest time any front flit in this port has been waiting."""
        waits = [
            now - vc.wait_since
            for vc in self.vcs
            if vc.wait_since is not None and vc.fifo
        ]
        return max(waits, default=0)
