"""DA2mesh-style direct all-to-all reply overlay ([Kim ICCD'12], Fig. 16).

DA2mesh provides cost-effective GPU NoC bandwidth by replacing the shared
reply mesh with *direct*, dedicated, narrow channels from each MC to every
CC, clocked faster than the mesh.  Replies never contend inside a network —
but they still funnel through the MC's NI injection structure, which is
exactly the bottleneck DA2mesh does not address and ARI does (the paper
shows ARI adds a further ~16.4% on top of DA2mesh).

The model: each MC owns ``num_lanes`` transmit lanes.  A lane sends one
packet at a time directly to its destination; a packet of ``size`` (mesh)
flits occupies the lane for ``ceil(size * serialization / clock_mult)``
cycles and is delivered a propagation delay later.  The feed side is either

* ``"single"`` — one injection queue, one read port (1 mesh-flit/cycle),
  like the enhanced baseline; or
* ``"split"`` — ARI's split queues, one wired per lane, each read port
  feeding its lane independently.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.noc.flit import Packet
from repro.noc.stats import NetworkStats


class _Lane:
    __slots__ = ("busy_until", "packet")

    def __init__(self) -> None:
        self.busy_until = 0
        self.packet: Optional[Packet] = None


class DA2MeshReplyNetwork:
    """Drop-in reply 'network' with the Network offer/step API subset."""

    def __init__(
        self,
        mc_nodes: Sequence[int],
        num_nodes: int,
        num_lanes: int = 4,
        serialization: int = 4,     # narrow lane: mesh-flit takes 4 lane flits
        clock_mult: float = 2.0,    # lanes clocked 2x the mesh
        propagation: int = 4,       # direct-wire fly time in mesh cycles
        ni_mode: str = "single",    # "single" (baseline) or "split" (ARI)
        ni_queue_flits: int = 36,
        num_split_queues: int = 4,
    ) -> None:
        if ni_mode not in ("single", "split"):
            raise ValueError("ni_mode must be 'single' or 'split'")
        self.mc_nodes = list(mc_nodes)
        self.num_nodes = num_nodes
        self.num_lanes = num_lanes
        self.serialization = serialization
        self.clock_mult = clock_mult
        self.propagation = propagation
        self.ni_mode = ni_mode
        self.ni_queue_flits = ni_queue_flits
        self.num_split_queues = num_split_queues

        self.now = 0
        self.stats = NetworkStats()
        self.on_delivery: Optional[Callable[[int, Packet, int], None]] = None

        self._lanes: Dict[int, List[_Lane]] = {
            mc: [_Lane() for _ in range(num_lanes)] for mc in self.mc_nodes
        }
        if ni_mode == "single":
            self._queues: Dict[int, List[Deque[Packet]]] = {
                mc: [deque()] for mc in self.mc_nodes
            }
            self._queue_cap = [ni_queue_flits]
        else:
            per_q = max(1, ni_queue_flits // num_split_queues)
            self._queues = {
                mc: [deque() for _ in range(num_split_queues)]
                for mc in self.mc_nodes
            }
            self._queue_cap = [per_q] * num_split_queues
        # Feed progress: mesh flits of the head packet already moved from
        # the queue's read port to its lane this transmission.
        self._feed_progress: Dict[Tuple[int, int], int] = {}
        self._in_flight: List[Tuple[int, Packet]] = []

    # -- helpers ---------------------------------------------------------
    def _queue_flits(self, q: Deque[Packet]) -> int:
        return sum(p.size for p in q)

    def lane_cycles(self, size: int) -> int:
        """Mesh cycles a lane is busy transmitting a ``size``-flit packet."""
        return max(1, math.ceil(size * self.serialization / self.clock_mult))

    # -- Network API -------------------------------------------------------
    def can_accept(self, node: int, packet: Packet) -> bool:
        qs = self._queues[node]
        for qi, q in enumerate(qs):
            if self._queue_flits(q) + packet.size <= self._queue_cap[qi]:
                return True
        return False

    def offer(self, node: int, packet: Packet) -> bool:
        qs = self._queues[node]
        best = None
        best_free = -1
        for qi, q in enumerate(qs):
            free = self._queue_cap[qi] - self._queue_flits(q)
            if free >= packet.size and free > best_free:
                best, best_free = qi, free
        if best is None:
            return False
        qs[best].append(packet)
        packet.created_at = self.now
        self.stats.on_offer()
        return True

    def _feed_lane(self, mc: int, qi: int, q: Deque[Packet]) -> None:
        """Move the head packet from queue ``qi`` toward a free lane.

        The queue read port moves one mesh flit per cycle; once all flits
        of the head packet have crossed, the packet seizes a free lane.
        """
        if not q:
            return
        head = q[0]
        key = (mc, qi)
        progress = self._feed_progress.get(key, 0)
        if progress < head.size:
            self._feed_progress[key] = progress + 1
            return
        # Fully fed: start transmission when a lane frees up.
        for lane in self._lanes[mc]:
            if lane.busy_until <= self.now and lane.packet is None:
                lane.packet = head
                lane.busy_until = self.now + self.lane_cycles(head.size)
                if head.injected_at is None:
                    head.injected_at = self.now
                q.popleft()
                self._feed_progress[key] = 0
                return

    def step(self) -> None:
        now = self.now
        # Complete transmissions.
        for mc in self.mc_nodes:
            for lane in self._lanes[mc]:
                if lane.packet is not None and lane.busy_until <= now:
                    pkt = lane.packet
                    lane.packet = None
                    self._in_flight.append((now + self.propagation, pkt))
        # Feed lanes from queues.
        for mc in self.mc_nodes:
            for qi, q in enumerate(self._queues[mc]):
                self._feed_lane(mc, qi, q)
        # Deliveries.
        if self._in_flight:
            remaining = []
            for arrive, pkt in self._in_flight:
                if arrive <= now:
                    pkt.received_at = now
                    self.stats.on_delivery(pkt, hops=1)
                    if self.on_delivery is not None:
                        self.on_delivery(pkt.dest, pkt, now)
                else:
                    remaining.append((arrive, pkt))
            self._in_flight = remaining
        self.now = now + 1
        self.stats.cycles = self.now

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    # Compatibility shims with Network's stats surface used by the system.
    def injection_link_utilization(self) -> float:
        return 0.0

    def mesh_link_utilization(self) -> float:
        return 0.0

    def ni_occupancy(self, node: int) -> float:
        return float(
            sum(self._queue_flits(q) for q in self._queues.get(node, []))
        )
