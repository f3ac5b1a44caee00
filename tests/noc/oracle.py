"""Differential oracle: the readable router and core pipelines.

The simulator keeps one router pipeline (:meth:`Router.step`: tables built
once, stages fused into a single rotated sweep, conflict-free switch
allocation resolved without arbiter scans) and one core step
(:meth:`Core.step_core_cycle`, which memoizes dead cycles).  This module
keeps the straightforward versions they were derived from, stage by
stage, so tests can run the same network or system twice — once as
shipped, once with every router and core bound to these functions — and
compare the results byte for byte.

* :func:`router_step` — credit delivery, ingest, route computation + VC
  allocation in round-robin order, bid collection, two-stage separable
  switch allocation (:func:`allocate`), switch traversal;
* the flow-control primitives it is written in (:func:`deliver`,
  :func:`restore`, :func:`consume`, :func:`vc_claimable`,
  :func:`record_send`), which the simulator inlines into
  :meth:`Router.step`;
* :func:`core_step` — one core cycle without the dead-cycle memo;
* :func:`bind_oracle` — rebinds those on a live network or system;
* :func:`deep_state` — the in-flight state end-of-run counters can miss.

Arbitration state (the VA pointer ``_va_rr`` and the arbiters' ``_next``
pointers) lives on the same router objects either way.
"""

from __future__ import annotations

import types
from typing import Dict, Iterable, List, Optional, Sequence

from repro.noc.buffer import VCState
from repro.noc.routing import LOCAL

# -- flow-control primitives ---------------------------------------------------


def deliver(channel, now: int) -> List[int]:
    """Pop the VCs whose credits reach a credit channel's far end by ``now``."""
    q = channel._in_flight
    out: List[int] = []
    while q and q[0][0] <= now:
        out.append(q.popleft()[1])
    return out


def has_credit(credits, vc: int) -> bool:
    return credits.counts[vc] > 0


def free_space(credits, vc: int) -> int:
    """Free downstream slots in ``vc`` (the WPF admission bound)."""
    return credits.counts[vc]


def consume(credits, vc: int) -> None:
    if credits.counts[vc] <= 0:
        raise RuntimeError(f"credit underflow on vc {vc}")
    credits.counts[vc] -= 1
    credits.total -= 1


def restore(credits, vc: int) -> None:
    if credits.counts[vc] >= credits.capacity:
        raise RuntimeError(f"credit overflow on vc {vc}")
    credits.counts[vc] += 1
    credits.total += 1


def vc_claimable(out, vc: int, size: int) -> bool:
    """WPF: no writer streaming into ``vc`` and room for the whole packet."""
    if out.writer[vc] is not None:
        return False
    if out.credits is not None and free_space(out.credits, vc) < size:
        return False
    return True


def record_send(out, vc: int, pid: int) -> None:
    """One flit of packet ``pid`` sent into ``vc``; frees the lock at the tail."""
    if out.writer[vc] != pid:
        raise RuntimeError("flit sent into a VC claimed by another packet")
    out.writer_left[vc] -= 1
    if out.writer_left[vc] == 0:
        out.writer[vc] = None


# -- separable input-first switch allocation ----------------------------------


class Bid:
    """One switch-allocation request from (input port, VC) to an output."""

    __slots__ = ("in_port", "vc", "out_port", "priority")

    def __init__(self, in_port: int, vc: int, out_port: int, priority: int) -> None:
        self.in_port = in_port
        self.vc = vc
        self.out_port = out_port
        self.priority = priority

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Bid(p{self.in_port}.vc{self.vc} -> out{self.out_port}, "
            f"prio={self.priority})"
        )


def grant(arb, requests: Sequence[bool]) -> Optional[int]:
    """Grant one of the asserted requests, rotating after each grant."""
    if len(requests) != arb.size:
        raise ValueError("request vector size mismatch")
    for off in range(arb.size):
        idx = (arb._next + off) % arb.size
        if requests[idx]:
            arb._next = (idx + 1) % arb.size
            return idx
    return None


def grant_prioritized(arb, requests: Sequence[Optional[int]]) -> Optional[int]:
    """Grant among requesters carrying integer priorities.

    ``requests[i]`` is ``None`` if requester *i* is idle, otherwise its
    priority (higher wins).  Ties break round-robin from the arbiter
    pointer; the pointer only advances past the granted requester.
    """
    if len(requests) != arb.size:
        raise ValueError("request vector size mismatch")
    best_idx: Optional[int] = None
    best_prio = -1
    for off in range(arb.size):
        idx = (arb._next + off) % arb.size
        prio = requests[idx]
        if prio is None:
            continue
        if prio > best_prio:
            best_prio = prio
            best_idx = idx
    if best_idx is not None:
        arb._next = (best_idx + 1) % arb.size
    return best_idx


def allocate(alloc, bids: Iterable[Bid]) -> List[Bid]:
    """Resolve one cycle of switch allocation; returns the winning bids.

    Guarantees:
    * each input port wins at most ``speedup`` grants, on distinct
      output ports;
    * each output port grants at most one input;
    * higher :attr:`Bid.priority` wins at both stages, ties round-robin.
    """
    by_input: Dict[int, List[Bid]] = {}
    for bid in bids:
        if not (0 <= bid.in_port < alloc.num_in):
            raise ValueError(f"bad input port {bid.in_port}")
        if not (0 <= bid.out_port < alloc.num_out):
            raise ValueError(f"bad output port {bid.out_port}")
        by_input.setdefault(bid.in_port, []).append(bid)

    # -- stage 1: input selection ---------------------------------------
    stage1: List[Bid] = []
    for in_port, port_bids in by_input.items():
        budget = alloc.speedups.get(in_port, 1)
        arb = alloc._input_arbiters[in_port]
        chosen_outs: set = set()
        remaining = list(port_bids)
        for _ in range(budget):
            # Build a per-VC request vector (highest-priority bid per VC).
            vec: List[Optional[int]] = [None] * alloc.num_vcs
            vc_bid: Dict[int, Bid] = {}
            for b in remaining:
                if b.out_port in chosen_outs:
                    continue
                cur = vec[b.vc]
                if cur is None or b.priority > cur:
                    vec[b.vc] = b.priority
                    vc_bid[b.vc] = b
            win_vc = grant_prioritized(arb, vec)
            if win_vc is None:
                break
            winner = vc_bid[win_vc]
            stage1.append(winner)
            chosen_outs.add(winner.out_port)
            remaining = [b for b in remaining if b.vc != win_vc]

    # -- stage 2: output arbitration -------------------------------------
    by_output: Dict[int, List[Bid]] = {}
    for bid in stage1:
        by_output.setdefault(bid.out_port, []).append(bid)

    winners: List[Bid] = []
    for out_port, port_bids in by_output.items():
        arb = alloc._output_arbiters[out_port]
        vec = [None] * alloc.num_in
        in_bid: Dict[int, Bid] = {}
        for b in port_bids:
            cur = vec[b.in_port]
            if cur is None or b.priority > cur:
                vec[b.in_port] = b.priority
                in_bid[b.in_port] = b
        win_in = grant_prioritized(arb, vec)
        if win_in is not None:
            winners.append(in_bid[win_in])
    return winners


# -- the router pipeline, one stage per function -------------------------------


def _deliver_credits(router, now: int) -> None:
    for out in router.output_ports:
        if out is None or out.credit_in is None or out.credits is None:
            continue
        for vc in deliver(out.credit_in, now):
            restore(out.credits, vc)


def _ingest(router, now: int) -> None:
    """Pull arriving flits off input links into their target VCs."""
    for port_idx, link in enumerate(router.input_links):
        if link is None:
            continue
        # A SplitNI input bundles several links; read them in order.
        for flit in [
            f for lk in getattr(link, "links", (link,))
            for f in lk.arrivals(now)
        ]:
            vc = flit.out_vc
            if vc is None:
                raise RuntimeError("arriving flit has no VC assignment")
            port = router.input_ports[port_idx]
            if flit.is_head:
                if not port.is_injection:
                    # ARI priority decay: one level per route computation
                    # (i.e., per router entered after injection).
                    pkt = flit.packet
                    if pkt.priority > 0:
                        pkt.priority -= 1
                        router.priority_decays += 1
                if flit.packet.injected_at is None:
                    flit.packet.injected_at = now
                if router.on_hop is not None:
                    router.on_hop(router.router_id, flit.packet, now)
            # Reset transient routing state; it belongs to this router now.
            flit.out_port = None
            flit.out_vc = None
            port.vcs[vc].push(flit, now)
            port.occ += 1
            router._occ += 1


def _try_allocate(router, vc, pkt) -> bool:
    routing = router.routing
    candidates = vc.candidates or []
    if routing.adaptive and len(candidates) > 1:
        candidates = sorted(
            candidates,
            key=lambda p: -(router.output_ports[p].free_credit_total()
                            if router.output_ports[p] is not None else -1),
        )
    escape = vc.escape if vc.escape is not None else LOCAL
    for out_port in candidates:
        out = router.output_ports[out_port]
        if out is None:
            continue
        if out_port == LOCAL:
            # Ejection: claim any free writer slot (infinite credits).
            for dvc in range(router.num_vcs):
                if out.writer[dvc] is None:
                    router._commit_allocation(vc, out, out_port, dvc, pkt)
                    return True
            continue
        # Prefer adaptive VCs (leave the escape VC as a fallback).
        for dvc in router._vc_order:
            if not routing.vc_allowed(dvc, out_port, escape):
                continue
            if not vc_claimable(out, dvc, pkt.size):
                continue
            router._commit_allocation(vc, out, out_port, dvc, pkt)
            return True
    return False


def _route_and_allocate(router, now: int) -> None:
    dest_coords = router._dest_coords
    n_in = router.num_inputs
    start = router._va_rr
    router._va_rr = (router._va_rr + 1) % n_in
    for off in range(n_in):
        port = router.input_ports[(start + off) % n_in]
        if port.occ == 0:
            continue
        for vc in port.vcs:
            if vc.state != VCState.ROUTING:
                continue
            pkt = vc.fifo[0].packet
            if vc.candidates is None:
                dc = dest_coords(pkt.dest)
                vc.candidates = router.routing.candidates(router.coords, dc)
                vc.escape = router.routing.escape_port(router.coords, dc)
            _try_allocate(router, vc, pkt)


def _collect_bids(router, now: int) -> List[Bid]:
    bids: List[Bid] = []
    demote_injection = False
    if router.priority_enabled and router.starvation_threshold > 0:
        for port in router.input_ports:
            if port.is_injection:
                continue
            if port.oldest_wait(now) > router.starvation_threshold:
                demote_injection = True
                break
    gate = router.ejection_gate
    ejection_open = gate is None or gate()
    for port in router.input_ports:
        if port.occ == 0:
            continue
        for vc in port.vcs:
            if vc.state != VCState.ACTIVE or not vc.fifo:
                continue
            out_port = vc.out_port
            if out_port is None:
                continue
            if out_port == LOCAL and not ejection_open:
                continue
            prio = vc.fifo[0].packet.priority if router.priority_enabled else 0
            if demote_injection and port.is_injection:
                prio = 0
                router.starvation_demotions += 1
            bids.append(Bid(port.port_id, vc.index, out_port, prio))
    return bids


def _traverse(router, winners: List[Bid], now: int) -> int:
    moved = 0
    injected = 0
    for bid in winners:
        port = router.input_ports[bid.in_port]
        vc = port.vcs[bid.vc]
        out_port = vc.out_port
        out_vc = vc.out_vc
        out = router.output_ports[out_port]
        flit = vc.front()
        if flit is None or out is None or out_vc is None:
            raise RuntimeError("switch grant for an empty VC")
        flit.out_port = out_port
        flit.out_vc = out_vc
        vc.pop(now)
        port.occ -= 1
        router._occ -= 1
        if out.credits is not None:
            consume(out.credits, out_vc)
        record_send(out, out_vc, flit.packet.pid)
        out.link.send(flit, now)
        # Return the freed buffer slot upstream.
        if port.is_injection:
            if router.ni is not None:
                router.ni.on_credit(port.port_id, bid.vc)
            router.flits_injected += 1
            injected += 1
        else:
            ch = router.credit_out[bid.in_port]
            if ch is not None:
                ch.send(bid.vc, now)
        moved += 1
    if injected > 1:
        router.speedup_extra_flits += injected - 1
    router.flits_switched += moved
    return moved


def router_step(router, now: int) -> int:
    """Advance ``router`` one cycle, stage by stage; returns flits switched."""
    _deliver_credits(router, now)
    _ingest(router, now)
    if router._occ == 0:
        return 0
    _route_and_allocate(router, now)
    bids = _collect_bids(router, now)
    if not bids:
        return 0
    return _traverse(router, allocate(router.allocator, bids), now)


# -- the core step without the dead-cycle memo ---------------------------------


def core_step(core, now: int) -> None:
    """One core-clock cycle of issue logic (``now`` is in NoC cycles)."""
    core.stats.core_cycles += 1
    warp = core.scheduler.pick(now)
    if warp is None:
        core.stats.idle_cycles += 1
        return
    instr = core._pending_instr[warp.wid]
    if instr is None:
        instr = core.streams[warp.wid].next()
        core._pending_instr[warp.wid] = instr
    if core._try_issue(warp, instr, now):
        core._pending_instr[warp.wid] = None
    else:
        core.stats.struct_stall_cycles += 1
        core.scheduler.on_stall()


# -- binding -------------------------------------------------------------------


def bind_oracle(target) -> None:
    """Step every router (and core) of a network or system with the oracle.

    ``target`` is a :class:`~repro.noc.network.Network` or a
    :class:`~repro.gpu.system.GPGPUSystem`; mesh-less reply overlays are
    left alone.  The loops look ``router.step`` and
    ``core.step_core_cycle`` up on the instance every call, so binding
    instance attributes reroutes them.
    """
    nets = [target]
    if hasattr(target, "cores"):
        nets = [target.request_net, target.reply_net]
        for core in target.cores:
            core.step_core_cycle = types.MethodType(core_step, core)
    for net in nets:
        for router in getattr(net, "routers", ()):
            router.step = types.MethodType(router_step, router)


# -- in-flight state -------------------------------------------------------------


def deep_state(net) -> Dict[str, object]:
    """Arbitration, credit, lock and buffer state of a mesh network.

    Complements ``network_snapshot``, whose counters agree whenever two
    runs moved the same flits in total, even if a pointer, a credit or a
    buffered flit differs at the end.  Packet ids come from a
    process-wide counter, so they are relabelled in order of first
    appearance; the fault pin ``FAULT_PID`` keeps its value.
    """
    labels: Dict[int, int] = {}

    def pid(value):
        if value is None or value < 0:
            return value
        return labels.setdefault(value, len(labels))

    def flit(f):
        pkt = f.packet
        return (pid(pkt.pid), int(pkt.ptype), pkt.src, pkt.dest, pkt.priority,
                f.seq, f.is_head, f.is_tail, f.vc, f.out_port, f.out_vc)

    routers = []
    for r in net.routers:
        alloc = r.allocator
        routers.append({
            "va_rr": r._va_rr,
            "occ": [r._occ] + [port.occ for port in r.input_ports],
            "in_arb": [a._next for a in alloc._input_arbiters],
            "out_arb": [a._next for a in alloc._output_arbiters],
            "vcs": [
                [(vc.state.name, vc.out_port, vc.out_vc, vc.wait_since,
                  [flit(f) for f in vc.fifo]) for vc in port.vcs]
                for port in r.input_ports
            ],
            "outputs": [
                None if out is None else (
                    None if out.credits is None
                    else (list(out.credits.counts), out.credits.total),
                    [pid(w) for w in out.writer], list(out.writer_left),
                )
                for out in r.output_ports
            ],
            "credit_out": [
                None if ch is None else list(ch._in_flight)
                for ch in r.credit_out
            ],
        })
    return {
        "routers": routers,
        "links": [
            [(at, flit(f)) for at, f in link._pipe]
            for links in (net.mesh_links, net.injection_links,
                          net.ejection_links)
            for link in links
        ],
        "nis": [
            (
                [[flit(f) for f in q]
                 for q in getattr(ni, "queues", [getattr(ni, "queue", ())])],
                sorted(ni.credits.items()),
            )
            for ni in net.nis
        ],
    }
