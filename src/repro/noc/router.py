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
from repro.noc.routing import (
    LOCAL,
    MinimalAdaptiveRouting,
    RoutingAlgorithm,
    XYRouting,
)

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
        # Wiring tables for step(); built lazily once links exist, and
        # dropped (set to None) whenever the wiring or routing changes.
        self._wiring = None

        # Optional backpressure gate on the ejection (LOCAL) output; wired
        # by the network to the attached ejection interface's buffer state.
        self.ejection_gate = None  # type: Optional[callable]

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

    def set_ejection(self, link: Link) -> None:
        self.output_ports[LOCAL] = OutputPort(LOCAL, link, self.num_vcs, None, None)

    def set_input(self, port: int, link: Link, credit_out: CreditChannel) -> None:
        self.input_links[port] = link
        self.credit_out[port] = credit_out

    def attach_ni(self, ni) -> None:
        self.ni = ni

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
    def _build_wiring(self):
        """Precompute the wiring tables :meth:`step` iterates.

        ``credited``: (in-flight deque, credit counter, writer locks,
        output port) for output ports with a credit-return channel.
        ``inputs``: (input port, link pipe) pairs, one per wired link; a
        composite SplitNI bundle contributes each member pipe, in link
        order.  ``polls``: every deque above, checked alone while the
        router holds no flit.
        ``vc_rule``: 0 = every VC legal (XY), 1 = escape-VC-0 rule
        (minimal adaptive), 2 = ask ``routing.vc_allowed`` (anything
        else, e.g. fault-detour wrappers).  The routing class is folded
        in here, so whoever swaps ``routing`` must reset ``_wiring``.
        """
        credited = tuple(
            (out.credit_in._in_flight, out.credits, out.writer, port)
            for port, out in enumerate(self.output_ports)
            if out is not None
            and out.credit_in is not None
            and out.credits is not None
        )
        inputs = tuple(
            (self.input_ports[idx], lk._pipe)
            for idx, link in enumerate(self.input_links)
            if link is not None
            for lk in getattr(link, "links", (link,))
        )
        polls = tuple(c[0] for c in credited) + tuple(i[1] for i in inputs)
        rt = type(self.routing)
        if rt is XYRouting:
            vc_rule = 0
        elif rt is MinimalAdaptiveRouting:
            vc_rule = 1
        else:
            vc_rule = 2
        alloc = self.allocator
        wiring = (
            credited,
            inputs,
            polls,
            vc_rule,
            alloc._input_arbiters,
            alloc._output_arbiters,
        )
        self._wiring = wiring
        return wiring

    def step(self, now: int) -> int:
        """Advance the router one cycle; returns flits switched.

        Credit delivery and flit ingestion, then route computation, VC
        allocation and bid collection in one rotated sweep, two-stage
        separable switch allocation, and switch traversal.  Precomputed
        wiring tables and inlined buffer/credit/link operations keep the
        Python overhead down; conflict-free switch allocation is resolved
        without arbiter scans (the round-robin pointers are updated
        exactly as the arbiters would have).  A head whose last VC
        allocation failed is not retried until one of its candidate
        outputs has freed something (the ``_freed`` memo).
        ``tests/noc/oracle.py`` keeps the stage-by-stage version as a
        differential oracle.
        """
        wiring = self._wiring
        if wiring is None:
            wiring = self._build_wiring()
        credited, inputs, polls, vc_rule, in_arbs, out_arbs = wiring
        if self._occ == 0:
            for q in polls:
                if q and q[0][0] <= now:
                    break
            else:
                return 0
        routing_state = VCState.ROUTING
        active_state = VCState.ACTIVE
        freed = self._freed

        # -- credit delivery ----------------------------------------------
        for q, credits, writer, o in credited:
            if q and q[0][0] <= now:
                counts = credits.counts
                cap = credits.capacity
                while q and q[0][0] <= now:
                    v = q.popleft()[1]
                    if counts[v] >= cap:
                        raise RuntimeError(f"credit overflow on vc {v}")
                    counts[v] += 1
                    credits.total += 1
                    if writer[v] is None:
                        freed[o] += 1

        # -- ingest ---------------------------------------------------------
        occ_add = 0
        on_hop = self.on_hop
        for port, pipe in inputs:
            if not pipe or pipe[0][0] > now:
                continue
            vcs = port.vcs
            is_inj = port.is_injection
            cnt = 0
            while pipe and pipe[0][0] <= now:
                flit = pipe.popleft()[1]
                vc = flit.out_vc
                if vc is None:
                    raise RuntimeError("arriving flit has no VC assignment")
                if flit.is_head:
                    pkt = flit.packet
                    if not is_inj and pkt.priority > 0:
                        pkt.priority -= 1
                        self.priority_decays += 1
                    if pkt.injected_at is None:
                        pkt.injected_at = now
                    if on_hop is not None:
                        on_hop(self.router_id, pkt, now)
                flit.out_port = None
                flit.out_vc = None
                # Inlined VirtualChannel.push (same transitions/raises).
                vcq = vcs[vc]
                fifo = vcq.fifo
                if vcq.capacity - len(fifo) <= 0:
                    raise RuntimeError(f"VC {vc} overflow")
                flit.vc = vc
                # Space was reserved upstream by the credit the sender
                # consumed; the overflow raise above is an assertion,
                # not flow control.
                fifo.append(flit)  # proto: allow(proto-push-guard)
                if len(fifo) == 1:
                    vcq.wait_since = now
                    if flit.is_head:
                        if (
                            vcq.state is not active_state
                            or vcq.out_port is None
                        ):
                            vcq.state = routing_state
                    else:
                        if vcq.out_port is None:
                            raise RuntimeError(
                                "body flit at VC front without a route"
                            )
                        vcq.state = active_state
                cnt += 1
            port.occ += cnt
            occ_add += cnt
        if occ_add:
            self._occ += occ_add
        if self._occ == 0:
            return 0

        # -- route + VC allocation + bid collection, one rotated pass ------
        # The stage-by-stage oracle makes two sweeps (rotation-ordered
        # routing, then index-ordered bid collection).  One rotated sweep
        # produces the same outcome: allocation order is preserved exactly,
        # a VC allocated this cycle is ACTIVE by the time its bid is taken
        # (the single-cycle router bids newly-routed VCs immediately), and
        # the separable allocator resolves each input and each output
        # independently, so the order bids are *listed* in cannot change
        # any grant.
        ports = self.input_ports
        n_in = self.num_inputs
        start = self._va_rr
        nxt = start + 1
        self._va_rr = nxt if nxt < n_in else 0
        dest_coords = self._dest_coords
        routing = self.routing
        coords = self.coords
        prio_on = self.priority_enabled
        # Fault-aware VC legality reads fault state, which no _freed
        # counter tracks, so rule 2 retries every head every cycle.
        memo = vc_rule != 2
        gate = self.ejection_gate
        ejection_open = True if gate is None else None  # None = not asked yet
        bid_ports: List[int] = []      # ports with bids, first-bid order
        port_bids: List[Optional[list]] = [None] * n_in
        injection_bids = False
        i = start - n_in
        while i < start:
            port = ports[i]
            i += 1
            if port.occ == 0:
                continue
            blist = None
            for vcobj in port.vcs:
                st = vcobj.state
                if st is routing_state:
                    pkt = vcobj.fifo[0].packet
                    cands = vcobj.candidates
                    if cands is None:
                        dc = dest_coords(pkt.dest)
                        cands = vcobj.candidates = routing.candidates(
                            coords, dc
                        )
                        vcobj.escape = routing.escape_port(coords, dc)
                    if memo:
                        # XY and minimal adaptive give at most two.
                        key = freed[cands[0]]
                        if len(cands) > 1:
                            key += freed[cands[1]]
                        if key == vcobj.blocked:
                            continue
                    if not self._try_allocate(vcobj, pkt, vc_rule):
                        if memo:
                            vcobj.blocked = key
                        continue
                    # Allocated this cycle => ACTIVE with a head flit: bid.
                elif st is not active_state or not vcobj.fifo:
                    continue
                out_port = vcobj.out_port
                if out_port is None:
                    continue
                if out_port == LOCAL:
                    if ejection_open is None:
                        ejection_open = gate()
                    if not ejection_open:
                        continue
                prio = vcobj.fifo[0].packet.priority if prio_on else 0
                if blist is None:
                    blist = []
                    port_bids[port.port_id] = blist
                    bid_ports.append(port.port_id)
                    if port.is_injection:
                        injection_bids = True
                blist.append((vcobj.index, out_port, prio))
        if not bid_ports:
            return 0

        # Starvation demotion: only observable when an injection port
        # actually bids, so the waiting-time scan is skipped on pure
        # through-routers.
        if injection_bids and prio_on and self.starvation_threshold > 0:
            thr = self.starvation_threshold
            demote = False
            for port in ports:
                if port.is_injection:
                    continue
                for vcobj in port.vcs:
                    ws = vcobj.wait_since
                    if ws is not None and vcobj.fifo and now - ws > thr:
                        demote = True
                        break
                if demote:
                    break
            if demote:
                for p in bid_ports:
                    if ports[p].is_injection:
                        blist = port_bids[p]
                        self.starvation_demotions += len(blist)
                        port_bids[p] = [(v, o, 0) for v, o, _pr in blist]

        # Fast path: when every bidding input has exactly one bid and the
        # outputs are distinct, every bid wins and each arbiter pointer
        # just moves past its winner.
        fast = []
        omask = 0
        for p in bid_ports:
            blist = port_bids[p]
            if len(blist) != 1:
                fast = None
                break
            v, o, _pr = blist[0]
            ob = 1 << o
            if omask & ob:
                fast = None
                break
            omask |= ob
            fast.append((p, v, o))
        if fast is None:
            grants = self._allocate(bid_ports, port_bids)
        else:
            nvc = self.num_vcs
            grants = []
            for p, v, o in fast:
                nx = v + 1
                in_arbs[p]._next = nx if nx < nvc else 0
                nx = p + 1
                out_arbs[o]._next = nx if nx < n_in else 0
                grants.append((p, v))

        # -- switch traversal -----------------------------------------------
        moved = 0
        injected = 0
        idle_state = VCState.IDLE
        ni = self.ni
        credit_out = self.credit_out
        outs = self.output_ports
        for in_p, v in grants:
            port = ports[in_p]
            vcobj = port.vcs[v]
            out_port = vcobj.out_port
            out_vc = vcobj.out_vc
            out = outs[out_port]
            fifo = vcobj.fifo
            flit = fifo[0] if fifo else None
            if flit is None or out is None or out_vc is None:
                raise RuntimeError("switch grant for an empty VC")
            flit.out_port = out_port
            flit.out_vc = out_vc
            # Inlined VirtualChannel.pop (same transitions, raises).
            fifo.popleft()
            if flit.is_tail:
                vcobj.out_port = None
                vcobj.out_vc = None
                vcobj.candidates = None
                vcobj.escape = None
                vcobj.blocked = None
                vcobj.state = idle_state
            if fifo:
                front = fifo[0]
                vcobj.wait_since = now
                if front.is_head:
                    if (
                        vcobj.state is not active_state
                        or vcobj.out_port is None
                    ):
                        vcobj.state = routing_state
                else:
                    if vcobj.out_port is None:
                        raise RuntimeError(
                            "body flit at VC front without a route"
                        )
                    vcobj.state = active_state
            else:
                vcobj.wait_since = None
            port.occ -= 1
            self._occ -= 1
            credits = out.credits
            if credits is not None:
                counts = credits.counts
                if counts[out_vc] <= 0:
                    raise RuntimeError(f"credit underflow on vc {out_vc}")
                counts[out_vc] -= 1
                credits.total -= 1
            # Writer-lock bookkeeping + Link.send, inlined.
            writer = out.writer
            if writer[out_vc] != flit.packet.pid:
                raise RuntimeError(
                    "flit sent into a VC claimed by another packet"
                )
            wl = out.writer_left
            wl[out_vc] -= 1
            if wl[out_vc] == 0:
                writer[out_vc] = None
                freed[out_port] += 1
            lk = out.link
            lk._pipe.append((now + lk.latency, flit))
            lk.flits_carried += 1
            lk.busy_cycles += 1
            if port.is_injection:
                if ni is not None:
                    ni.on_credit(port.port_id, v)
                self.flits_injected += 1
                injected += 1
            else:
                ch = credit_out[in_p]
                if ch is not None:
                    ch._in_flight.append((now + ch.latency, v))
            moved += 1
        if injected > 1:
            self.speedup_extra_flits += injected - 1
        self.flits_switched += moved
        return moved

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
                nx = v + 1
                arb._next = nx if nx < nvc else 0
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
            nx = p + 1
            out_arbs[o]._next = nx if nx < n_in else 0
            grants.append((p, v))
        return grants

    def _try_allocate(self, vc: VirtualChannel, pkt, vc_rule: int) -> bool:
        """Route-compute result -> claim an output VC (WPF); True on success.

        ``vc_rule`` (from the wiring tables) inlines the routing's VC
        legality check for XY and minimal adaptive routing.
        """
        candidates = vc.candidates
        outs = self.output_ports
        routing = self.routing
        if routing.adaptive and len(candidates) > 1:
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
        escape = vc.escape if vc.escape is not None else LOCAL
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
            dvcs = self._vc_order
            if vc_rule == 1 and out_port != escape:
                dvcs = dvcs[:-1]  # escape VC 0 (last) is for the XY hop only
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
