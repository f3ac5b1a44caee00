"""Seeded fault injection against a live :class:`~repro.noc.network.Network`.

The injector is installed as ``network.faults`` and runs at the *start* of
``Network.step`` — before NIs and routers move anything — so a resource is
never allocated in the same cycle it dies.  Fault semantics are
"admin down": dead resources stop accepting **new** packet allocations,
while anything already streaming drains completely.  That keeps every
flow-control invariant (credits, writer locks, WPF non-interleaving)
intact across fault and repair events, which the
:class:`~repro.noc.validation.InvariantChecker` verifies during campaigns.

Mechanisms:

* **Dead links** enter :class:`FaultState`; route lookups made through
  :class:`~repro.noc.routing.FaultAwareRouting` detour around them by
  strictly-decreasing BFS distance on the live graph.  Each dead link's
  downstream VCs are fenced by pinning the output writer locks with
  :data:`~repro.noc.router.FAULT_PID` (deferred while a real packet is
  mid-stream), so the ordinary WPF claim check rejects them with no new
  hot-path code.
* **Dead NI queues** stop accepting and starting packets
  (``ni.dead_queues``); a stranded front packet is retried with
  timeout/backoff — relocated to a live split queue when the NI supports
  it, dropped after ``max_retries`` otherwise.
* **Doomed packets** (unreachable destination, or — with detours
  disabled — a deterministic route into a dead link) are purged from
  router buffers after a grace period, returning their buffer credits
  upstream; unreachable destinations are also written off at offer time
  so producers never wedge.
* **Starvation safety**: a through-traffic VC that waits *because of a
  fault* gets its wait clock refreshed, so ARI's starvation demotion
  keeps protecting against priority starvation instead of firing on
  every fault stall.

With an empty plan the injector applies no events, every scan guard
short-circuits, and :class:`FaultAwareRouting` delegates verbatim — a
network with an empty plan simulates identically to one without the
subsystem loaded (enforced by the zero-perturbation test).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.faults.model import FaultEvent, FaultKind, FaultPlan, validate_plan
from repro.noc.buffer import VCState
from repro.noc.network import Network
from repro.noc.ni import SplitNI
from repro.noc.router import FAULT_PID
from repro.noc.routing import LOCAL, FaultAwareRouting, opposite


@dataclass(frozen=True)
class RetryPolicy:
    """NI-side retry for packets stranded on a failed injection queue."""

    timeout: int = 32       # cycles before the first retry
    backoff: float = 2.0    # delay multiplier per failed attempt
    max_retries: int = 4    # relocation attempts before dropping

    def delay(self, attempt: int) -> int:
        return max(1, int(self.timeout * (self.backoff ** attempt)))


class FaultState:
    """Live-graph view shared with :class:`FaultAwareRouting`.

    ``dead_links`` holds (router, direction) pairs; per-destination BFS
    distances over the surviving links are cached and invalidated on
    every fault/repair event.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self.dead_links: Set[Tuple[int, int]] = set()
        self._dist: Dict[int, List[float]] = {}

    @property
    def active(self) -> bool:
        return bool(self.dead_links)

    def link_ok(self, router: int, direction: int) -> bool:
        return (router, direction) not in self.dead_links

    def invalidate(self) -> None:
        self._dist.clear()

    def distance(self, router: int, dest: int) -> float:
        dist = self._dist.get(dest)
        if dist is None:
            dist = self._bfs(dest)
            self._dist[dest] = dist
        return dist[router]

    def reachable(self, router: int, dest: int) -> bool:
        return self.distance(router, dest) != math.inf

    def _bfs(self, dest: int) -> List[float]:
        topo = self.topology
        dist = [math.inf] * topo.num_routers
        dist[dest] = 0.0
        frontier = [dest]
        while frontier:
            nxt: List[int] = []
            for v in frontier:
                dv = dist[v] + 1
                # Edge u -> v uses u's output facing v, i.e. opposite(d)
                # where d is v's direction toward u.
                for d, u in topo.neighbors(v).items():
                    if dist[u] <= dv or not self.link_ok(u, opposite(d)):
                        continue
                    dist[u] = dv
                    nxt.append(u)
            frontier = nxt
        return dist


class FaultStats:
    """Counters the injector maintains (``fault.*`` telemetry source)."""

    __slots__ = (
        "events_applied",
        "repairs_applied",
        "drops_source",
        "drops_purged",
        "drops_niq",
        "relocations",
        "retries",
        "route_caches_cleared",
        "wait_refreshes",
    )

    def __init__(self) -> None:
        self.events_applied = 0
        self.repairs_applied = 0
        self.drops_source = 0
        self.drops_purged = 0
        self.drops_niq = 0
        self.relocations = 0
        self.retries = 0
        self.route_caches_cleared = 0
        self.wait_refreshes = 0

    @property
    def drops_total(self) -> int:
        return self.drops_source + self.drops_purged + self.drops_niq

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class FaultInjector:
    """Applies a :class:`FaultPlan` to one network and keeps it resilient."""

    def __init__(
        self,
        network: Network,
        plan: FaultPlan,
        detour: bool = True,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        validate_plan(plan, network.topology, network.config.num_vcs)
        self.network = network
        self.plan = plan
        self.detour = detour
        self.retry = retry if retry is not None else RetryPolicy()
        self.state = FaultState(network.topology)
        self.stats = FaultStats()
        self._coords = network.topology.coords
        # Event queues: pending faults ordered by onset, repairs by due cycle.
        self._pending: List[FaultEvent] = sorted(
            plan.events, key=lambda e: e.cycle, reverse=True
        )
        self._repairs: List[Tuple[int, int, FaultEvent]] = []
        self._repair_seq = 0
        # Writer-lock pinning bookkeeping: reference counts per output VC
        # (a link fault and a VC fault may overlap), plus VCs whose pin is
        # deferred until the in-flight packet finishes streaming.
        self._pin_counts: Dict[Tuple[int, int, int], int] = {}
        self._deferred_pins: Set[Tuple[int, int, int]] = set()
        self._link_counts: Dict[Tuple[int, int], int] = {}
        # NI retry state: (node, queue) -> [next_attempt_cycle, attempts].
        self._niq_retry: Dict[Tuple[int, int], List[int]] = {}
        # Stuck-packet grace timers: (router, port, vc) -> (pid, since).
        self._stuck: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._installed = False

    # -- installation --------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Wrap routing (when detouring) and hook into the network."""
        if self._installed:
            return self
        if self.detour:
            wrapped = FaultAwareRouting(
                self.network.routing, self.network.topology, self.state
            )
            self.network.routing = wrapped
            for router in self.network.routers:
                router.routing = wrapped
                # The routing class is part of the router's generated
                # step (repro.noc.stepgen); regenerate it for the wrapper.
                router._wiring = None
        self.network.faults = self
        self._installed = True
        return self

    # -- per-cycle hook (start of Network.step) ------------------------------
    def on_cycle(self, now: int) -> None:
        changed = False
        while self._pending and self._pending[-1].cycle <= now:
            event = self._pending.pop()
            self._apply(event, now)
            changed = True
        while self._repairs and self._repairs[0][0] <= now:
            _, _, event = heapq.heappop(self._repairs)
            self._repair(event)
            changed = True
        if changed:
            self.state.invalidate()
            self._clear_route_caches()
        if self._deferred_pins:
            self._settle_deferred_pins()
        if self._niq_retry:
            self._service_dead_queues(now)
        if self.state.active:
            self._scan_stuck_packets(now)

    # -- offer-time interception --------------------------------------------
    def intercept_offer(self, node: int, packet) -> bool:
        """True when the packet should be written off at the source.

        Lost-reply semantics: the producer's send succeeds so the workload
        keeps running, and ``delivered_fraction`` records the loss.
        """
        if self.state.active and not self.state.reachable(node, packet.dest):
            self.stats.drops_source += 1
            return True
        dq = self.network.nis[node].dead_queues
        if dq is not None and len(dq) >= self._queue_count(node):
            # Every injection queue at this node is dead.
            self.stats.drops_source += 1
            return True
        return False

    # -- event application ---------------------------------------------------
    def _apply(self, e: FaultEvent, now: int) -> None:
        if e.kind == FaultKind.LINK:
            self._kill_link(e.router, e.direction)
        elif e.kind == FaultKind.PORT:
            up, out_dir = self._feeding_link(e.router, e.direction)
            self._kill_link(up, out_dir)
        elif e.kind == FaultKind.VC:
            self._pin(e.router, e.direction, e.vc)
        elif e.kind == FaultKind.NIQ:
            self._kill_niq(e.router, e.queue, now)
        self.stats.events_applied += 1
        if e.duration is not None:
            self._repair_seq += 1
            heapq.heappush(
                self._repairs, (e.repair_cycle, self._repair_seq, e)
            )

    def _repair(self, e: FaultEvent) -> None:
        if e.kind == FaultKind.LINK:
            self._revive_link(e.router, e.direction)
        elif e.kind == FaultKind.PORT:
            up, out_dir = self._feeding_link(e.router, e.direction)
            self._revive_link(up, out_dir)
        elif e.kind == FaultKind.VC:
            self._unpin(e.router, e.direction, e.vc)
        elif e.kind == FaultKind.NIQ:
            self._revive_niq(e.router, e.queue)
        self.stats.repairs_applied += 1

    def _feeding_link(self, router: int, direction: int) -> Tuple[int, int]:
        """The (upstream router, output direction) feeding an input port."""
        upstream = self.network.topology.neighbors(router)[direction]
        return upstream, opposite(direction)

    def _kill_link(self, router: int, direction: int) -> None:
        # Reference-counted: overlapping transient faults on one link are
        # legal; the link revives when the last one repairs.
        key = (router, direction)
        count = self._link_counts.get(key, 0)
        self._link_counts[key] = count + 1
        for vc in range(self.network.config.num_vcs):
            self._pin(router, direction, vc)
        if count:
            return
        self.state.dead_links.add(key)
        self.network.routers[router].output_ports[direction].link.failed = True

    def _revive_link(self, router: int, direction: int) -> None:
        key = (router, direction)
        count = self._link_counts.get(key, 0) - 1
        for vc in range(self.network.config.num_vcs):
            self._unpin(router, direction, vc)
        if count > 0:
            self._link_counts[key] = count
            return
        self._link_counts.pop(key, None)
        self.state.dead_links.discard(key)
        self.network.routers[router].output_ports[direction].link.failed = False

    def _pin(self, router: int, direction: int, vc: int) -> None:
        key = (router, direction, vc)
        count = self._pin_counts.get(key, 0)
        self._pin_counts[key] = count + 1
        if count:
            return  # already pinned (or pending) for another fault
        out = self.network.routers[router].output_ports[direction]
        if out.writer[vc] is None:
            out.writer[vc] = FAULT_PID
            out.writer_left[vc] = 1
        else:
            # A real packet is mid-stream; admin-down lets it finish.
            self._deferred_pins.add(key)

    def _unpin(self, router: int, direction: int, vc: int) -> None:
        key = (router, direction, vc)
        count = self._pin_counts.get(key, 0) - 1
        if count > 0:
            self._pin_counts[key] = count
            return
        self._pin_counts.pop(key, None)
        if key in self._deferred_pins:
            self._deferred_pins.discard(key)
            return
        r = self.network.routers[router]
        out = r.output_ports[direction]
        if out.writer[vc] == FAULT_PID:
            out.writer[vc] = None
            out.writer_left[vc] = 0
            # The VC may be claimable again: wake heads blocked on it.
            r._freed[direction] += 1

    def _settle_deferred_pins(self) -> None:
        # Runs before routers allocate, so a writer freed last cycle is
        # pinned before anything new can claim it.
        for key in list(self._deferred_pins):
            router, direction, vc = key
            out = self.network.routers[router].output_ports[direction]
            if out.writer[vc] is None:
                out.writer[vc] = FAULT_PID
                out.writer_left[vc] = 1
                self._deferred_pins.discard(key)

    def _kill_niq(self, node: int, queue: int, now: int) -> None:
        ni = self.network.nis[node]
        if queue >= self._queue_count(node):
            raise ValueError(
                f"node {node} NI has no injection queue {queue}"
            )
        if ni.dead_queues is None:
            ni.dead_queues = set()
        ni.dead_queues.add(queue)
        self._niq_retry[(node, queue)] = [now + self.retry.timeout, 0]

    def _revive_niq(self, node: int, queue: int) -> None:
        ni = self.network.nis[node]
        if ni.dead_queues is not None:
            ni.dead_queues.discard(queue)
            if not ni.dead_queues:
                ni.dead_queues = None  # restore the zero-overhead fast path
        self._niq_retry.pop((node, queue), None)

    def _queue_count(self, node: int) -> int:
        ni = self.network.nis[node]
        return ni.num_queues if isinstance(ni, SplitNI) else 1

    # -- cache hygiene -------------------------------------------------------
    def _clear_route_caches(self) -> None:
        """Drop cached route candidates computed against the old topology.

        Only detour routing reads the fault state.  Without it the cached
        candidates stay right, and a head blocked on a dead link is woken
        by the ``Router._freed`` bump in :meth:`_unpin` when it revives.
        """
        if self.detour:
            for router in self.network.routers:
                for port in router.input_ports:
                    if port.occ == 0:
                        continue
                    for vc in port.vcs:
                        if (
                            vc.state == VCState.ROUTING
                            and vc.candidates is not None
                        ):
                            vc.candidates = None
                            vc.escape = None
                            vc.blocked = None
        self.stats.route_caches_cleared += 1

    # -- NI retry/backoff ----------------------------------------------------
    def _service_dead_queues(self, now: int) -> None:
        policy = self.retry
        for (node, qi), st in list(self._niq_retry.items()):
            ni = self.network.nis[node]
            if ni.dead_queues is None or qi not in ni.dead_queues:
                self._niq_retry.pop((node, qi), None)
                continue
            depths = ni.queue_depths()
            if qi >= len(depths) or depths[qi] == 0:
                st[0], st[1] = now + policy.timeout, 0
                continue
            if now < st[0]:
                continue
            if isinstance(ni, SplitNI) and ni.relocate_queue_front(qi, now):
                self.stats.relocations += 1
                st[0], st[1] = now + policy.timeout, 0
                continue
            st[1] += 1
            self.stats.retries += 1
            if st[1] > policy.max_retries:
                pkt = ni.drop_queue_front(qi, now)
                if pkt is not None:
                    self.network.stats.on_drop(pkt)
                    self.stats.drops_niq += 1
                st[0], st[1] = now + policy.timeout, 0
            else:
                st[0] = now + policy.delay(st[1])

    # -- stuck-packet scan ---------------------------------------------------
    def _scan_stuck_packets(self, now: int) -> None:
        state = self.state
        grace = self.retry.timeout * (self.retry.max_retries + 1)
        for router in self.network.routers:
            rid = router.router_id
            for port in router.input_ports:
                if port.occ == 0:
                    continue
                for vc in port.vcs:
                    if vc.state != VCState.ROUTING or not vc.fifo:
                        continue
                    head = vc.fifo[0]
                    if not head.is_head:
                        continue
                    pkt = head.packet
                    blocked = not state.reachable(rid, pkt.dest)
                    if not blocked and not self.detour:
                        # Deterministic routing may insist on dead links.
                        cands = router.routing.candidates(
                            router.coords, self._coords(pkt.dest)
                        )
                        blocked = all(
                            c != LOCAL and not state.link_ok(rid, c)
                            for c in cands
                        )
                    key = (rid, port.port_id, vc.index)
                    if not blocked:
                        self._stuck.pop(key, None)
                        continue
                    entry = self._stuck.get(key)
                    if entry is None or entry[0] != pkt.pid:
                        self._stuck[key] = (pkt.pid, now)
                    elif now - entry[1] > grace:
                        purged = router.purge_front_packet(
                            port.port_id, vc.index, now
                        )
                        if purged is not None:
                            self.network.stats.on_drop(purged)
                            self.stats.drops_purged += 1
                            self._stuck.pop(key, None)
                            continue
                    # A fault-caused wait must not look like priority
                    # starvation to the injection-bid demotion logic.
                    if not port.is_injection and vc.wait_since is not None:
                        vc.wait_since = now
                        self.stats.wait_refreshes += 1

    # -- reporting -----------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        """Flat numeric summary for ``SimulationResult.extras``."""
        out = {f"fault_{k}": float(v) for k, v in self.stats.as_dict().items()}
        out["fault_dead_links"] = float(len(self.state.dead_links))
        return out


class FaultProbe:
    """``fault.*`` telemetry channels for one (or two) injectors."""

    def __init__(self, injectors: Sequence[FaultInjector], prefix: str = "fault"):
        self.injectors = list(injectors)
        self.prefix = prefix
        self._prev: Dict[str, int] = {}

    def _delta(self, name: str, cumulative: int) -> int:
        prev = self._prev.get(name, 0)
        self._prev[name] = cumulative
        return cumulative - prev

    def collect(self, now: int) -> Dict[str, object]:
        p = self.prefix
        dead_links = sum(len(i.state.dead_links) for i in self.injectors)
        dead_queues = sum(
            len(ni.dead_queues)
            for i in self.injectors
            for ni in i.network.nis
            if ni.dead_queues is not None
        )
        stats = [i.stats for i in self.injectors]
        return {
            f"{p}.dead_links": dead_links,
            f"{p}.dead_ni_queues": dead_queues,
            f"{p}.events_applied": sum(s.events_applied for s in stats),
            f"{p}.repairs_applied": sum(s.repairs_applied for s in stats),
            f"{p}.drops": self._delta(
                "drops", sum(s.drops_total for s in stats)
            ),
            f"{p}.relocations": self._delta(
                "reloc", sum(s.relocations for s in stats)
            ),
            f"{p}.retries": self._delta(
                "retries", sum(s.retries for s in stats)
            ),
        }


def install_faults(
    network: Network,
    plan: FaultPlan,
    detour: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> FaultInjector:
    """Create and install an injector on one network."""
    return FaultInjector(network, plan, detour=detour, retry=retry).install()


def install_system_faults(
    system,
    plan: FaultPlan,
    detour: bool = True,
    retry: Optional[RetryPolicy] = None,
) -> Dict[str, FaultInjector]:
    """Install per-network injectors on a GPGPU system.

    Events route to the physical network named by their ``net`` field.
    Returns ``{"req": injector, "rep": injector}``.  Overlay reply fabrics
    (DA2mesh) have no mesh routers to fault and are rejected.
    """
    if not isinstance(system.reply_net, Network):
        raise ValueError(
            "fault injection needs a mesh reply network; "
            f"{type(system.reply_net).__name__} is an overlay fabric"
        )
    return {
        "req": install_faults(
            system.request_net, plan.for_net("req"), detour=detour, retry=retry
        ),
        "rep": install_faults(
            system.reply_net, plan.for_net("rep"), detour=detour, retry=retry
        ),
    }
