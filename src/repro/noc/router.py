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
from repro.noc.buffer import InputPort, VCState, VirtualChannel
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

    def claim(self, vc: int, pid: int, size: int) -> None:
        if self.writer[vc] is not None:
            raise RuntimeError(f"output vc {vc} already claimed")
        self.writer[vc] = pid
        self.writer_left[vc] = size

    def free_credit_total(self) -> int:
        """Congestion score used by adaptive routing (bigger = freer)."""
        if self.credits is None:
            return 1 << 20
        return self.credits.total


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

        # Prefer adaptive VCs, escape VC 0 last.
        self._vc_order = tuple(range(1, num_vcs)) + (0,)
        self._adaptive_vcs = self._vc_order[:-1]
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

    # -- allocation -----------------------------------------------------------
    def _commit_allocation(
        self, vc: VirtualChannel, out: OutputPort, out_port: int, dvc: int, pkt
    ) -> None:
        vc.set_route(out_port)
        vc.set_out_vc(dvc)
        out.claim(dvc, pkt.pid, pkt.size)

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

        Credit delivery and flit ingestion, then route computation, VC
        allocation and bid collection in one rotated sweep, two-stage
        separable switch allocation, and switch traversal.  The body is
        generated for this router's shape by :mod:`repro.noc.stepgen` on
        the first visit and cached in ``_wiring``; setting ``_wiring`` to
        None (done by every wiring setter) regenerates it on the next
        visit.  A head whose last VC allocation failed is not retried
        until one of its candidate outputs has freed something (the
        ``_freed`` memo).  ``tests/noc/oracle.py`` keeps the
        stage-by-stage version as a differential oracle.
        """
        step = self._wiring
        if step is None:
            # Imported here so that building a network compiles nothing.
            from repro.noc import stepgen

            step = self._wiring = stepgen.specialize(self)
        return step(now)

    # The frozen benchmark (benchmarks/e2e) looks this name up on every router.
    step_fast = step

    def _allocate(self, bid_ports, port_bids):
        """Two-stage separable input-first switch allocation.

        Stage 1 lets each input pick up to its speedup of VCs bidding for
        distinct outputs; stage 2 lets each output grant one input.  Both
        stages prefer the higher ARI priority and break ties round-robin:
        the first requester at or after the arbiter's pointer wins, and
        the pointer moves just past the winner.  ``port_bids[p]`` holds
        that input's bids as ``(vc, out_port, prio)`` tuples, one per VC,
        in VC order.  Each stage-1 pick is one scan of those bids; stage
        2 keeps a running best per output (an input reaches each output
        at most once).  Returns winning ``(in_port, vc)`` pairs, ordered
        by each output's first stage-1 pick.
        """
        alloc = self.allocator
        in_arbs = alloc._input_arbiters
        out_arbs = alloc._output_arbiters
        speedups = alloc.speedups
        nvc = self.num_vcs
        n_in = self.num_inputs
        best: List[Optional[tuple]] = [None] * 5  # output -> (in, vc, prio)
        out_order = []
        for p in bid_ports:
            blist = port_bids[p]
            arb = in_arbs[p]
            budget = speedups.get(p, 1)
            while True:
                # -- stage 1: this input's next pick ----------------------
                if len(blist) == 1:
                    v, o, pr = blist[0]
                else:
                    # In VC order, an equal-priority bid displaces the best
                    # only to move it from before the pointer to at/after it.
                    nxt = arb._next
                    win = None
                    for t in blist:
                        pr = t[2]
                        if win is None or pr > win_pr:
                            win, win_pr, wrapped = t, pr, t[0] < nxt
                        elif wrapped and pr == win_pr and t[0] >= nxt:
                            win, wrapped = t, False
                    v, o, pr = win
                arb._next = (v + 1) % nvc
                # -- stage 2: running best at output o --------------------
                cur = best[o]
                if cur is None:
                    best[o] = (p, v, pr)
                    out_order.append(o)
                elif pr > cur[2]:
                    best[o] = (p, v, pr)
                elif pr == cur[2]:
                    onxt = out_arbs[o]._next
                    cp = cur[0]
                    if (p - onxt) % n_in < (cp - onxt) % n_in:
                        best[o] = (p, v, pr)
                budget -= 1
                if not budget:
                    break
                # The winner goes too: it bid for output o.
                blist = [t for t in blist if t[1] != o]
                if not blist:
                    break
        grants = []
        for o in out_order:
            p, v, _pr = best[o]
            out_arbs[o]._next = (p + 1) % n_in
            grants.append((p, v))
        return grants

    def _try_allocate(self, vc: VirtualChannel, pkt, vc_rule: int) -> bool:
        """Route-compute result -> claim an output VC (WPF); True on success.

        ``vc_rule`` (the generated step's :attr:`stepgen.Shape.vc_rule`)
        inlines the routing's VC legality check for XY and minimal
        adaptive routing.
        """
        candidates = vc.candidates
        outs = self.output_ports
        routing = self.routing
        if len(candidates) > 1 and routing.adaptive:
            # Freest downstream first (a stable sort by free credits).
            if len(candidates) == 2:
                a, b = candidates
                oa, ob = outs[a], outs[b]
                fa = oa.free_credit_total() if oa is not None else -1
                fb = ob.free_credit_total() if ob is not None else -1
                if fb > fa:
                    candidates = (b, a)
            else:
                candidates = sorted(
                    candidates,
                    key=lambda p: -(outs[p].free_credit_total()
                                    if outs[p] is not None else -1),
                )
        escape = vc.escape
        if escape is None:
            escape = LOCAL
        size = pkt.size
        for out_port in candidates:
            out = outs[out_port]
            if out is None:
                continue
            writer = out.writer
            if out_port == LOCAL:
                # Ejection: claim any free writer slot (infinite credits).
                for dvc in range(self.num_vcs):
                    if writer[dvc] is None:
                        self._commit_allocation(vc, out, out_port, dvc, pkt)
                        return True
                continue
            credits = out.credits
            if credits is None:
                counts = None
            else:
                if credits.total < size:
                    # counts[dvc] <= total for every dvc, so the whole
                    # packet cannot fit anywhere on this output.
                    continue
                counts = credits.counts
            if vc_rule == 1 and out_port != escape:
                dvcs = self._adaptive_vcs  # escape VC 0 is for the XY hop only
            else:
                dvcs = self._vc_order
            for dvc in dvcs:
                if writer[dvc] is not None:
                    continue
                if counts is not None and counts[dvc] < size:
                    continue
                if vc_rule == 2 and not routing.vc_allowed(
                    dvc, out_port, escape
                ):
                    continue
                self._commit_allocation(vc, out, out_port, dvc, pkt)
                return True
        return False

    # The network installs this: maps a destination node id to mesh coords.
    _dest_coords = None  # type: ignore[assignment]

    def set_dest_coords_fn(self, fn) -> None:
        self._dest_coords = fn

    def __repr__(self) -> str:  # pragma: no cover
        return f"Router(id={self.router_id}, at={self.coords})"
