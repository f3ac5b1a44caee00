"""Network interfaces (NIs) — the supply side of the injection bottleneck.

Four injection-NI microarchitectures are modeled (paper Fig. 7 and Sec. 6.2):

``BaselineNI``
    GPGPU-Sim's default: a *narrow* (N-bit) link between the node (MC) and
    the NI, so moving one long reply into the NI takes ``packet.size``
    cycles, plus a single injection queue drained at 1 flit/cycle.

``EnhancedNI``
    The paper's actual baseline (Fig. 7a): wide (W-bit) node->NI and
    NI->queue links — a whole packet enters the queue in one cycle — but
    still a single narrow link from the queue to the router injection port,
    capping supply at 1 flit/cycle.

``SplitNI`` (ARI supply side, Fig. 7b)
    The injection queue is split into ``num_queues`` one-packet queues fed
    by wide links; each split queue drives its own narrow link hard-wired to
    a dedicated VC of the router injection port, so up to ``num_queues``
    flits enter the router per cycle.

``MultiPortNI`` ([Bakhoda MICRO'10] comparison scheme)
    The *router* grows extra injection ports (more consumption paths), but
    the NI keeps one queue with a single read port: supply stays 1
    flit/cycle, merely steerable across ports.

Ejection is handled by :class:`EjectionInterface`, which reassembles flits
into packets and delivers them to the attached node.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.noc.flit import Flit, Packet
from repro.noc.link import Link


class NIKind(enum.Enum):
    BASELINE_NARROW = "baseline-narrow"
    ENHANCED = "enhanced"
    SPLIT = "split"
    MULTIPORT = "multiport"


class InjectionStats:
    """Counters every injection NI keeps (drives Figs. 6 and 12)."""

    __slots__ = (
        "packets_accepted",
        "packets_rejected",
        "flits_sent",
        "occupancy_samples",
        "occupancy_sum",
        "occupancy_max",
    )

    def __init__(self) -> None:
        self.packets_accepted = 0
        self.packets_rejected = 0
        self.flits_sent = 0
        self.occupancy_samples = 0
        self.occupancy_sum = 0
        self.occupancy_max = 0

    def sample_occupancy(self, packets_queued: int) -> None:
        self.occupancy_samples += 1
        self.occupancy_sum += packets_queued
        if packets_queued > self.occupancy_max:
            self.occupancy_max = packets_queued

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancy_samples:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples


class InjectionInterface:
    """Base class for injection NIs.

    The router side exposes, per injection input port, the per-VC free-space
    view through ``vc_space(port, vc)`` — a callable installed by the
    network when wiring — and the NI pushes flits onto :class:`Link` objects
    that terminate in the router's injection VCs.
    """

    kind: NIKind = NIKind.ENHANCED

    def __init__(self, node_id: int, capacity_flits: int, num_vcs: int) -> None:
        if capacity_flits < 1:
            raise ValueError("NI queue capacity must be >= 1 flit")
        self.node_id = node_id
        self.capacity_flits = capacity_flits
        self.num_vcs = num_vcs
        self.stats = InjectionStats()
        # repro.faults: indices of failed internal queues.  None (the
        # default, meaning "faults never installed") keeps every hot-path
        # guard to a single is-None comparison.  A dead queue accepts no
        # new packets and starts no new packet, but finishes streaming a
        # partially-sent one — the router-side wormhole must not orphan.
        self.dead_queues: Optional[set] = None
        # Wired by the network:
        self.links: List[Link] = []
        # port/vc credit view: credits[(port, vc)] = free downstream slots.
        self.credits: Dict[Tuple[int, int], int] = {}
        # (port, vc) pairs each link index feeds; SplitNI uses a fixed map.
        self.link_targets: List[Tuple[int, int]] = []

    # -- wiring ---------------------------------------------------------
    def attach(
        self,
        links: List[Link],
        link_targets: List[Tuple[int, int]],
        vc_capacity: int,
        ports_vcs: List[Tuple[int, int]],
    ) -> None:
        """Install router-facing wiring.

        ``ports_vcs`` lists every (injection port, vc) the NI may target,
        initializing the credit view to ``vc_capacity``.
        """
        self.links = links
        self.link_targets = link_targets
        for pv in ports_vcs:
            self.credits[pv] = vc_capacity

    def on_credit(self, port: int, vc: int) -> None:
        self.credits[(port, vc)] += 1

    # -- node-facing API --------------------------------------------------
    def can_accept(self, packet: Packet) -> bool:
        raise NotImplementedError

    def offer(self, packet: Packet, now: int) -> bool:
        """Node hands a packet to the NI; False means "try again later"."""
        raise NotImplementedError

    def step(self, now: int) -> int:
        """Move flits from NI queues onto the injection link(s).

        Returns the number of flits sent this cycle; the network's
        deadlock watchdog counts NI injection progress too, so a long
        warm-up draining only NI queues is not mistaken for a deadlock.
        """
        raise NotImplementedError

    # -- stats -------------------------------------------------------------
    def queued_flits(self) -> int:
        raise NotImplementedError

    def queued_packets(self) -> int:
        raise NotImplementedError

    def queue_depths(self) -> List[int]:
        """Flits queued per internal queue (one entry for single-queue NIs;
        one per split queue for :class:`SplitNI`) — the telemetry view of
        the supply side."""
        return [self.queued_flits()]

    def _queue_dead(self, qi: int) -> bool:
        dq = self.dead_queues
        return dq is not None and qi in dq

    def drop_queue_front(self, qi: int, now: int) -> Optional[Packet]:
        """Fault path: discard the not-yet-streamed packet at a queue front.

        Returns the packet, or None when nothing droppable is there (empty
        queue, or the front packet already streamed its head — the caller
        retries once the queue has drained it).
        """
        raise NotImplementedError

    def sample(self) -> None:
        self.stats.sample_occupancy(self.queued_packets())


class _SingleQueueNI(InjectionInterface):
    """Common machinery for the single-injection-queue NIs."""

    def __init__(self, node_id: int, capacity_flits: int, num_vcs: int) -> None:
        super().__init__(node_id, capacity_flits, num_vcs)
        self.queue: Deque[Flit] = deque()
        self._queued_packets = 0
        # Front packet's bound (port, vc), None until VA-at-source succeeds.
        self._front_binding: Optional[Tuple[int, int]] = None

    def queued_flits(self) -> int:
        return len(self.queue)

    def queued_packets(self) -> int:
        return self._queued_packets

    def _free_flits(self) -> int:
        return self.capacity_flits - len(self.queue)

    def _enqueue_packet(self, packet: Packet, now: int) -> None:
        # Capacity was reserved by the offer()/can_accept gate before
        # this is reached; the push itself is deliberately unguarded.
        for flit in packet.make_flits():
            self.queue.append(flit)
        self._queued_packets += 1
        self.stats.packets_accepted += 1

    def _bind_front(self) -> Optional[Tuple[int, int]]:
        """Source-side VC selection: find a (port, vc) that can take the
        whole packet at the queue front (WPF admission)."""
        front = self.queue[0]
        size = front.packet.size
        best: Optional[Tuple[int, int]] = None
        best_free = -1
        for (port, vc), free in self.credits.items():
            if free >= size and free > best_free:
                best = (port, vc)
                best_free = free
        return best

    def drop_queue_front(self, qi: int, now: int) -> Optional[Packet]:
        if qi != 0 or not self.queue:
            return None
        front = self.queue[0]
        if not front.is_head:
            return None  # mid-stream; let it drain first
        pkt = front.packet
        for _ in range(pkt.size):
            self.queue.popleft()
        self._queued_packets -= 1
        self._front_binding = None
        return pkt

    def step(self, now: int) -> int:
        # One narrow link: at most one flit per cycle leaves the NI.
        if not self.queue:
            return 0
        front = self.queue[0]
        if front.is_head and self.dead_queues is not None and 0 in self.dead_queues:
            return 0  # dead queue: finish in-flight packets, start none
        if front.is_head and self._front_binding is None:
            self._front_binding = self._bind_front()
            if self._front_binding is None:
                return 0  # no injection VC can hold the whole packet yet
        binding = self._front_binding
        if binding is None:
            raise RuntimeError("body flit at NI front without a binding")
        port, vc = binding
        # The binding had room for the whole packet and this NI is the
        # VC's only writer, so its credit cannot run out mid-packet.
        if self.credits[(port, vc)] <= 0:
            raise RuntimeError(f"NI credit underflow on port {port} vc {vc}")
        flit = self.queue.popleft()
        flit.out_vc = vc
        flit.out_port = port
        self.credits[(port, vc)] -= 1
        self.links[0].send(flit, now)
        self.stats.flits_sent += 1
        if flit.is_tail:
            self._queued_packets -= 1
            self._front_binding = None
        return 1


class BaselineNI(_SingleQueueNI):
    """Narrow node->NI link: a long packet takes ``size`` cycles to enter."""

    kind = NIKind.BASELINE_NARROW

    def __init__(self, node_id: int, capacity_flits: int, num_vcs: int) -> None:
        super().__init__(node_id, capacity_flits, num_vcs)
        self._transfer_busy_until = 0
        self._pending: Optional[Tuple[Packet, int]] = None  # (packet, done_at)

    def can_accept(self, packet: Packet) -> bool:
        return (
            self._pending is None
            and self._free_flits() >= packet.size
            and not self._queue_dead(0)
        )

    def offer(self, packet: Packet, now: int) -> bool:
        if not self.can_accept(packet):
            self.stats.packets_rejected += 1
            return False
        # The narrow link streams the packet in over `size` cycles (one
        # flit per cycle), so the flit count doubles as a cycle count.
        self._pending = (packet, now + packet.size)  # unit: cycles
        return True

    def step(self, now: int) -> int:
        if self._pending is not None:
            packet, done_at = self._pending
            if now >= done_at:
                self._enqueue_packet(packet, now)
                self._pending = None
        return super().step(now)

    def queued_packets(self) -> int:
        return self._queued_packets + (1 if self._pending else 0)


class EnhancedNI(_SingleQueueNI):
    """Wide node->NI links (Fig. 7a): whole packet enters in one cycle."""

    kind = NIKind.ENHANCED

    def can_accept(self, packet: Packet) -> bool:
        return self._free_flits() >= packet.size and not self._queue_dead(0)

    def offer(self, packet: Packet, now: int) -> bool:
        if not self.can_accept(packet):
            self.stats.packets_rejected += 1
            return False
        self._enqueue_packet(packet, now)
        return True


class MultiPortNI(_SingleQueueNI):
    """NI for the MultiPort router: same single queue / single read port.

    The extra injection ports only widen the *choice* of (port, vc) at
    binding time; supply remains one flit per cycle.  The per-port links are
    indexed by injection port order in :attr:`port_index`.
    """

    kind = NIKind.MULTIPORT

    def __init__(self, node_id: int, capacity_flits: int, num_vcs: int) -> None:
        super().__init__(node_id, capacity_flits, num_vcs)
        self.port_index: Dict[int, int] = {}  # injection port id -> link idx

    def can_accept(self, packet: Packet) -> bool:
        return self._free_flits() >= packet.size and not self._queue_dead(0)

    def offer(self, packet: Packet, now: int) -> bool:
        if not self.can_accept(packet):
            self.stats.packets_rejected += 1
            return False
        self._enqueue_packet(packet, now)
        return True

    def step(self, now: int) -> int:
        if not self.queue:
            return 0
        front = self.queue[0]
        if front.is_head and self.dead_queues is not None and 0 in self.dead_queues:
            return 0  # dead queue: finish in-flight packets, start none
        if front.is_head and self._front_binding is None:
            self._front_binding = self._bind_front()
            if self._front_binding is None:
                return 0
        binding = self._front_binding
        if binding is None:
            raise RuntimeError("body flit at NI front without a binding")
        port, vc = binding
        # The binding had room for the whole packet and this NI is the
        # VC's only writer, so its credit cannot run out mid-packet.
        if self.credits[(port, vc)] <= 0:
            raise RuntimeError(f"NI credit underflow on port {port} vc {vc}")
        flit = self.queue.popleft()
        flit.out_vc = vc
        flit.out_port = port
        self.credits[(port, vc)] -= 1
        self.links[self.port_index[port]].send(flit, now)
        self.stats.flits_sent += 1
        if flit.is_tail:
            self._queued_packets -= 1
            self._front_binding = None
        return 1


class SplitNI(InjectionInterface):
    """ARI split-queue NI (Fig. 7b).

    ``num_queues`` one-packet queues, each with a dedicated narrow link into
    a dedicated injection VC.  A whole packet is written into a free split
    queue in one cycle (wide link); every queue independently drains one
    flit per cycle, so aggregate supply reaches ``num_queues`` flits/cycle.
    """

    kind = NIKind.SPLIT

    def __init__(
        self,
        node_id: int,
        capacity_flits: int,
        num_vcs: int,
        num_queues: int,
        queue_capacity_flits: Optional[int] = None,
    ) -> None:
        super().__init__(node_id, capacity_flits, num_vcs)
        if num_queues < 1:
            raise ValueError("num_queues must be >= 1")
        self.num_queues = num_queues
        # Fair comparison (Sec. 6.2): total buffer equals the single-queue
        # NI's capacity unless explicitly overridden.
        per_q = queue_capacity_flits or max(1, capacity_flits // num_queues)
        self.queue_capacity = per_q
        self.queues: List[Deque[Flit]] = [deque() for _ in range(num_queues)]
        # Packets queued per split queue (0 or more; a queue only accepts a
        # packet if the whole packet fits).
        self._queue_pkts: List[int] = [0] * num_queues
        # Overflow staging: packets accepted while all split queues are full
        # wait here (bounded so total capacity matches `capacity_flits`).
        self._rr_next = 0

    # -- node side -------------------------------------------------------
    def _find_queue(self, size: int) -> Optional[int]:
        n = self.num_queues
        dead = self.dead_queues
        for off in range(n):
            qi = (self._rr_next + off) % n
            if dead is not None and qi in dead:
                continue
            if self.queue_capacity - len(self.queues[qi]) >= size:
                return qi
        return None

    def can_accept(self, packet: Packet) -> bool:
        return self._find_queue(packet.size) is not None

    def offer(self, packet: Packet, now: int) -> bool:
        qi = self._find_queue(packet.size)
        if qi is None:
            self.stats.packets_rejected += 1
            return False
        for flit in packet.make_flits():
            self.queues[qi].append(flit)
        self._queue_pkts[qi] += 1
        self._rr_next = (qi + 1) % self.num_queues
        self.stats.packets_accepted += 1
        return True

    # -- drain -------------------------------------------------------------
    def step(self, now: int) -> int:
        # Each split queue is hard-wired to link i -> (port, vc) =
        # link_targets[i]; no multiplexer (Fig. 7b).
        dead = self.dead_queues
        sent = 0
        for qi in range(self.num_queues):
            q = self.queues[qi]
            if not q:
                continue
            if dead is not None and qi in dead and q[0].is_head:
                continue  # dead queue: finish in-flight packets, start none
            port, vc = self.link_targets[qi]
            if self.credits[(port, vc)] <= 0:
                continue
            front = q[0]
            if front.is_head and self.credits[(port, vc)] < front.packet.size:
                # WPF: only start a packet when the whole packet fits.
                continue
            flit = q.popleft()
            flit.out_port = port
            flit.out_vc = vc
            self.credits[(port, vc)] -= 1
            self.links[qi].send(flit, now)
            self.stats.flits_sent += 1
            if flit.is_tail:
                self._queue_pkts[qi] -= 1
            sent += 1
        return sent

    def queued_flits(self) -> int:
        return sum(len(q) for q in self.queues)

    def queued_packets(self) -> int:
        return sum(self._queue_pkts)

    def queue_depths(self) -> List[int]:
        return [len(q) for q in self.queues]

    # -- fault support -----------------------------------------------------
    def drop_queue_front(self, qi: int, now: int) -> Optional[Packet]:
        q = self.queues[qi]
        if not q or not q[0].is_head:
            return None  # empty, or mid-stream: let it drain first
        pkt = q[0].packet
        for _ in range(pkt.size):
            q.popleft()
        self._queue_pkts[qi] -= 1
        return pkt

    def relocate_queue_front(self, qi: int, now: int) -> bool:
        """Move the whole front packet of a (dead) split queue to a live
        queue with room — the retry path after a split-queue fault.

        Returns False when the packet is mid-stream or no live queue can
        hold it yet (the caller backs off and retries).
        """
        q = self.queues[qi]
        if not q or not q[0].is_head:
            return False
        pkt = q[0].packet
        target = self._find_queue(pkt.size)
        if target is None or target == qi:
            return False
        moved = [q.popleft() for _ in range(pkt.size)]
        self.queues[target].extend(moved)
        self._queue_pkts[qi] -= 1
        self._queue_pkts[target] += 1
        return True


class EjectionInterface:
    """Reassembles ejected flits into packets and delivers them to the node.

    ``on_packet(packet, now)`` is the delivery callback installed by the node
    (or by the network for stats-only sinks).

    When ``capacity_flits`` is finite, the interface backpressures the
    router's LOCAL output (via :meth:`can_accept_flit`) once its buffer is
    full.  With ``auto_release=False`` the attached node must call
    :meth:`release` when it consumes a packet — this is how a memory
    controller that stalls on the reply side propagates backpressure into
    the *request* network (the paper's "parking lot" effect, Sec. 3).
    """

    def __init__(
        self,
        node_id: int,
        capacity_flits: Optional[int] = None,
        auto_release: bool = True,
    ) -> None:
        self.node_id = node_id
        self.capacity_flits = capacity_flits
        self.auto_release = auto_release
        self._partial: Dict[int, int] = {}  # pid -> flits seen
        self.on_packet: Optional[Callable[[Packet, int], None]] = None
        self.packets_delivered = 0
        self.flits_received = 0
        self.flit_occupancy = 0

    def can_accept_flit(self) -> bool:
        if self.capacity_flits is None:
            return True
        return self.flit_occupancy < self.capacity_flits

    def receive_flit(self, flit: Flit, now: int) -> None:
        self.flits_received += 1
        self.flit_occupancy += 1
        pid = flit.packet.pid
        seen = self._partial.get(pid, 0) + 1
        if flit.is_tail:
            if seen != flit.packet.size:
                raise RuntimeError(
                    f"packet {pid} reassembly error: {seen}/{flit.packet.size} flits"
                )
            self._partial.pop(pid, None)
            flit.packet.received_at = now
            self.packets_delivered += 1
            if self.auto_release:
                self.flit_occupancy -= flit.packet.size
            if self.on_packet is not None:
                self.on_packet(flit.packet, now)
        else:
            self._partial[pid] = seen

    def release(self, flits: int) -> None:
        """Node consumed a packet; free its buffer space."""
        self.flit_occupancy -= flits
        if self.flit_occupancy < 0:
            raise RuntimeError("ejection buffer release underflow")

    @property
    def partially_received(self) -> int:
        return len(self._partial)


def make_ni(
    kind: NIKind,
    node_id: int,
    capacity_flits: int,
    num_vcs: int,
    num_split_queues: int = 4,
) -> InjectionInterface:
    """Factory for injection NIs."""
    if kind == NIKind.BASELINE_NARROW:
        return BaselineNI(node_id, capacity_flits, num_vcs)
    if kind == NIKind.ENHANCED:
        return EnhancedNI(node_id, capacity_flits, num_vcs)
    if kind == NIKind.MULTIPORT:
        return MultiPortNI(node_id, capacity_flits, num_vcs)
    if kind == NIKind.SPLIT:
        return SplitNI(node_id, capacity_flits, num_vcs, num_split_queues)
    raise ValueError(f"unknown NI kind: {kind!r}")
