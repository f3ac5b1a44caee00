"""Virtual-channel wormhole router.

A single-cycle router model (route computation, VC allocation, switch
allocation and switch traversal resolve within one cycle; link traversal adds
one more), with:

* credit-based flow control toward downstream routers;
* whole-packet-forwarding (WPF) non-atomic VC allocation — a downstream VC
  may be (re)claimed whenever the *entire* packet fits in its free space and
  no other packet is currently being written into it;
* XY or minimal adaptive routing (escape VC 0 restricted to XY hops);
* per-input-port crossbar speedup — the ARI consumption-side mechanism
  (Sec. 4.2): MC-router injection ports receive ``S`` switch ports so up to
  ``S`` injected flits can traverse the switch per cycle;
* ARI multi-level prioritization (Sec. 5): packets carry a priority field,
  decremented each time a head flit enters a new router, and the switch
  allocator prefers higher-priority bids.  A starvation threshold demotes
  injection-port bids when any through-traffic input has waited too long.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.noc.allocator import SwitchAllocator
from repro.noc.buffer import InputPort, VCState
from repro.noc.credit import CreditChannel, CreditCounter
from repro.noc.link import Link
from repro.noc.routing import LOCAL, RoutingAlgorithm

# Sentinel "packet id" used by repro.faults to pin a dead output VC's writer
# lock: with ``writer[vc] = FAULT_PID`` and ``writer_left[vc] = 1`` the VC
# fails the ordinary WPF claim check (no extra hot-path check) while still
# satisfying the writer-lock invariant (locked => left>0).
FAULT_PID = -1


class OutputPort:
    """Router output: link, downstream credit view and per-VC writer locks."""

    __slots__ = ("port_id", "link", "credits", "credit_in", "writer", "writer_left")

    def __init__(
        self,
        port_id: int,
        link: Optional[Link],
        num_vcs: int,
        credits: Optional[CreditCounter],
        credit_in: Optional[CreditChannel],
    ) -> None:
        self.port_id = port_id
        self.link = link
        self.credits = credits          # None => infinite (ejection sink)
        self.credit_in = credit_in      # credits returning from downstream
        # WPF writer locks: pid of the packet currently being streamed into
        # each downstream VC, and how many of its flits are still to send.
        self.writer: List[Optional[int]] = [None] * num_vcs
        self.writer_left: List[int] = [0] * num_vcs


class Router:
    """One mesh router; see module docstring for the microarchitecture."""

    def __init__(
        self,
        router_id: int,
        coords: Tuple[int, int],
        routing: RoutingAlgorithm,
        num_vcs: int = 4,
        vc_capacity: int = 9,
        num_injection_ports: int = 1,
        injection_speedup: int = 1,
        priority_enabled: bool = False,
        starvation_threshold: int = 1000,
    ) -> None:
        if num_injection_ports < 1:
            raise ValueError("need at least one injection port")
        if injection_speedup < 1:
            raise ValueError("injection speedup must be >= 1")
        self.router_id = router_id
        self.coords = coords
        self.routing = routing
        self.num_vcs = num_vcs
        self.vc_capacity = vc_capacity
        self.priority_enabled = priority_enabled
        self.starvation_threshold = starvation_threshold
        self.num_injection_ports = num_injection_ports

        # Input ports: 0..3 mesh directions, 4.. injection ports.
        self.input_ports: List[InputPort] = [
            InputPort(p, num_vcs, vc_capacity) for p in range(4)
        ]
        for k in range(num_injection_ports):
            self.input_ports.append(
                InputPort(4 + k, num_vcs, vc_capacity, is_injection=True)
            )
        self.num_inputs = len(self.input_ports)

        # Output ports: 0..3 mesh directions + LOCAL ejection (index 4).
        self.output_ports: List[Optional[OutputPort]] = [None] * 5

        # Input-side links & credit-return channels (to upstream).
        self.input_links: List[Optional[Link]] = [None] * self.num_inputs
        self.credit_out: List[Optional[CreditChannel]] = [None] * self.num_inputs
        # Injection credits go straight back to the NI:
        self.ni = None  # type: Optional[object]

        speedups = {
            4 + k: injection_speedup for k in range(num_injection_ports)
        }
        self.allocator = SwitchAllocator(
            num_in=self.num_inputs, num_out=5, num_vcs=num_vcs, speedups=speedups
        )

        # VA fairness rotation.
        self._va_rr = 0

        # The generated step (see step()); built on the first visit, and
        # dropped (set to None) whenever the wiring or routing changes.
        # Whoever swaps ``routing`` must reset it; the setters below and
        # ``ejection_gate`` do so themselves.
        self._wiring = None

        # Optional backpressure gate on the ejection (LOCAL) output; wired
        # by the network to the attached ejection interface's buffer state.
        self._gate = None  # type: Optional[callable]

        # Optional per-hop observer: called once per head flit accepted
        # into this router (i.e. per route computation), after the ARI
        # priority decay has been applied.  Same opt-in contract as the
        # telemetry hook: None (the default) costs one comparison.
        self.on_hop = None  # type: Optional[callable]

        # Maintained flit occupancy (sum over input ports).
        self._occ = 0

        # Blocked-head memo: per output port, a count of the events that
        # can make one of its downstream VCs claimable (a credit returned
        # to an unlocked VC, a writer lock released).  A head that fails
        # VC allocation remembers the sum over its candidates and is not
        # retried until that sum moves (see step()).
        self._freed = [0] * 5

        # Stats.
        self.flits_switched = 0
        self.flits_injected = 0  # flits that crossed the switch from injection ports
        self.starvation_demotions = 0
        self.priority_decays = 0   # head flits whose ARI priority dropped here
        # Flits beyond the 1/cycle baseline that the injection crossbar
        # speedup moved in a single cycle (Sec. 4.2 usage telemetry).
        self.speedup_extra_flits = 0

    # -- wiring -----------------------------------------------------------
    def set_output(
        self,
        port: int,
        link: Link,
        credit_in: CreditChannel,
        downstream_vc_capacity: int,
    ) -> None:
        self.output_ports[port] = OutputPort(
            port,
            link,
            self.num_vcs,
            CreditCounter(self.num_vcs, downstream_vc_capacity),
            credit_in,
        )
        self._wiring = None

    def set_ejection(self, link: Link) -> None:
        self.output_ports[LOCAL] = OutputPort(LOCAL, link, self.num_vcs, None, None)
        self._wiring = None

    def set_input(self, port: int, link: Link, credit_out: CreditChannel) -> None:
        self.input_links[port] = link
        self.credit_out[port] = credit_out
        self._wiring = None

    def attach_ni(self, ni) -> None:
        self.ni = ni
        self._wiring = None

    @property
    def ejection_gate(self):
        return self._gate

    @ejection_gate.setter
    def ejection_gate(self, gate) -> None:
        self._gate = gate
        self._wiring = None

    def injection_port_ids(self) -> List[int]:
        return [4 + k for k in range(self.num_injection_ports)]

    # -- helpers ------------------------------------------------------------
    def occupancy(self) -> int:
        return self._occ

    # -- fault support ----------------------------------------------------------
    def purge_front_packet(self, port_id: int, vc_index: int, now: int):
        """Remove the whole packet at the front of an input VC (fault drop).

        Used by :mod:`repro.faults` for packets that can never make
        progress (e.g. routed toward a destination cut off mid-flight).
        Only legal before the packet starts streaming downstream: the VC
        must be ROUTING with the head at the front and every flit of the
        packet resident.  Buffer credits are returned upstream flit by
        flit exactly as if the packet had traversed the switch, so credit
        conservation holds.  Returns the purged Packet, or None when the
        state does not allow a clean purge (caller retries next cycle).
        """
        port = self.input_ports[port_id]
        vc = port.vcs[vc_index]
        if vc.state != VCState.ROUTING or not vc.fifo:
            return None
        head = vc.fifo[0]
        if not head.is_head:
            return None
        pkt = head.packet
        resident = 0
        for f in vc.fifo:
            if f.packet is not pkt:
                break
            resident += 1
        if resident < pkt.size:
            return None  # tail still streaming in from upstream
        for _ in range(pkt.size):
            vc.fifo.popleft()
        port.occ -= pkt.size
        self._occ -= pkt.size
        # Per-flit credit return mirrors switch traversal in step().
        if port.is_injection:
            if self.ni is not None:
                for _ in range(pkt.size):
                    self.ni.on_credit(port_id, vc_index)
        else:
            ch = self.credit_out[port_id]
            if ch is not None:
                for _ in range(pkt.size):
                    ch.send(vc_index, now)
        # Reset route state by hand: pop() only understands flits that won
        # switch allocation, and a body front without a route would trip
        # _on_new_front's consistency check.
        vc.out_port = None
        vc.out_vc = None
        vc.candidates = None
        vc.escape = None
        vc.blocked = None
        vc.state = VCState.IDLE
        vc.wait_since = None
        if vc.fifo:
            vc._on_new_front(now)
        return pkt

    # -- the pipeline -----------------------------------------------------------
    def step(self, now: int) -> int:
        """Advance the router one cycle; returns flits switched.

        Credit delivery and flit ingestion, then one rotated sweep that
        computes routes, allocates VCs, collects each input's bids and
        makes its stage-1 switch-allocation picks, folding them into a
        running best per output (stage 2), and finally switch traversal
        of the grants.  The body is generated for this router's shape by
        :mod:`repro.noc.stepgen` on the first visit and cached in
        ``_wiring``; setting ``_wiring`` to None (done by every wiring
        setter) regenerates it on the next visit.  A head whose last VC
        allocation failed is not retried until one of its candidate
        outputs has freed something (the ``_freed`` memo).
        ``tests/noc/oracle.py`` keeps the stage-by-stage version as a
        differential oracle.
        """
        step = self._wiring
        if step is None:
            # Imported here so that building a network compiles nothing.
            from repro.noc import stepgen

            step = self._wiring = stepgen.specialize(self)
        return step(now)

    # The frozen benchmark (benchmarks/e2e) looks this name up on every router.
    step_fast = step

    # The network installs this: maps a destination node id to mesh coords.
    _dest_coords = None  # type: ignore[assignment]

    def set_dest_coords_fn(self, fn) -> None:
        self._dest_coords = fn

    def __repr__(self) -> str:  # pragma: no cover
        return f"Router(id={self.router_id}, at={self.coords})"
