"""Simulation kernels: pluggable per-cycle advance loops for :class:`Network`.

A :class:`SimKernel` owns the order in which a network's components are
visited each cycle.  Two backends ship:

:class:`ReferenceKernel`
    The oracle.  Visits every NI, router and ejection link every cycle, in
    index order — exactly the historical ``Network.step()`` loop.  All
    results (stats, telemetry, invariants) are defined by this kernel.

:class:`ActivityKernel`
    Byte-identical results, less work.  Only *active* components are
    visited: routers holding flits stay in a live set (their VC-allocation
    round-robin pointer must rotate every occupied cycle, so they cannot be
    skipped without changing arbitration); quiescent routers are visited
    only on scheduled wakeups — when an upstream router or NI put flits on
    a link terminating at them.  NIs are live while they hold queued or
    pending packets; ``Network.offer`` re-arms them through the kernel's
    ``on_offer`` hook.  Credit returns to an idle router need *no*
    wakeup: its next visit delivers everything due at-or-before that
    cycle, and nothing observes an idle router's credit counters in
    between.  Forced work that must happen on schedule — the
    ``sample_interval`` NI occupancy sample, telemetry's ``on_cycle``, the
    deadlock watchdog — runs every cycle in both kernels.  Once a fault
    injector or invariant auditor is installed the kernel falls back to
    full reference-order visiting for the rest of the run (those hooks may
    mutate or inspect any component on any cycle), so campaigns trade
    speed for exactness.

Selection: ``Network(cfg, kernel="activity")``, or the ``REPRO_KERNEL``
environment variable when no explicit kernel is given; the default is
``"reference"``.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Set

KERNELS = ("reference", "activity")

ENV_VAR = "REPRO_KERNEL"


def resolve_kernel(name: Optional[str] = None) -> str:
    """Resolve a kernel name: explicit argument > ``REPRO_KERNEL`` > default."""
    if name is None:
        name = os.environ.get(ENV_VAR) or "reference"
    name = str(name).strip().lower()
    if name not in KERNELS:
        raise ValueError(
            f"unknown simulation kernel {name!r}; choose one of {KERNELS}"
        )
    return name


def make_kernel(name: Optional[str] = None) -> "SimKernel":
    """Build the kernel backend for ``name`` (resolved via :func:`resolve_kernel`)."""
    resolved = resolve_kernel(name)
    if resolved == "activity":
        return ActivityKernel()
    return ReferenceKernel()


class SimKernel:
    """Backend interface: owns one network's per-cycle advance loop."""

    name = "abstract"

    def bind(self, net) -> None:
        """Called once from ``Network.__init__`` after wiring completes."""

    def cycle(self, net) -> None:
        """Advance ``net`` by one cycle (must end by incrementing ``net.now``)."""
        raise NotImplementedError

    def on_offer(self, node: int) -> None:
        """A packet was accepted by ``node``'s NI (activity re-arm hook)."""


class ReferenceKernel(SimKernel):
    """Visit everything, every cycle, in index order — the oracle loop."""

    name = "reference"

    def bind(self, net) -> None:
        self._deadlock_cycles = net.config.deadlock_cycles
        self._sample_interval = net.config.sample_interval

    def cycle(self, net) -> None:
        now = net.now
        f = net.faults
        if f is not None:
            # Apply scheduled fault/repair events *before* anything moves
            # this cycle, so routers never allocate into a freshly dead
            # resource within the same cycle.  The activity kernel falls
            # back to full reference cycles whenever faults are
            # installed, so this hook is outside the gated fast path.
            f.on_cycle(now)  # kernel: unreached
        sent = 0
        for ni in net.nis:
            sent += ni.step(now)
        moved = 0
        for router in net.routers:
            moved += router.step(now)
        ejectors = net.ejectors
        for r, link in enumerate(net.ejection_links):
            ejector = ejectors[r]
            for flit in link.arrivals(now):
                ejector.receive_flit(flit, now)
        if moved or sent:
            net._last_progress = now
        if (
            net.stats.in_flight > 0
            and now - net._last_progress > self._deadlock_cycles
        ):
            net._no_progress(now)
        if now % self._sample_interval == 0:
            for ni in net.nis:
                ni.sample()
        a = net.auditor
        if a is not None:
            # End-of-cycle audit: every router/NI has settled, so the
            # flow-control invariants must hold exactly here.  Like the
            # fault hook above, an installed auditor forces the activity
            # kernel into reference fallback.
            a.on_cycle(now)  # kernel: unreached
        t = net.telemetry
        if t is not None:
            t.on_cycle(now)
        net.now = now + 1
        net.stats.cycles = net.now


class ActivityKernel(SimKernel):
    """Activity-gated stepping: skip quiescent routers and NIs entirely.

    Activity sets and wake rules (all times in network cycles):

    * a router is **live** while it buffers any flit (``_occ > 0``) — its
      VA round-robin pointer rotates every occupied cycle, so skipping it
      would change arbitration and break byte-identity;
    * a router that switched flits wakes its four mesh neighbours at
      ``now + link_latency`` (flit ingestion must happen on the exact
      arrival cycle) and joins the ejection-drain set until its ejection
      link is empty;
    * an NI is **live** while :meth:`InjectionInterface.has_work` holds;
      an NI that sent flits wakes its router at ``now + 1`` (injection
      links have unit latency); ``Network.offer`` re-arms the NI via
      :meth:`on_offer`;
    * credit channels never schedule wakeups — delivery catches up on the
      receiver's next visit before anything reads its counters;
    * per-cycle obligations (NI occupancy sampling every
      ``sample_interval``, telemetry, the deadlock watchdog) run exactly
      as in the reference kernel.

    Once ``net.faults`` or ``net.auditor`` is installed the kernel runs
    full reference cycles (those hooks may touch any component on any
    cycle) and keeps doing so for the rest of the run, even if the hooks
    are removed again: the activity sets are not maintained across
    reference cycles, so they are never trusted after one.
    """

    name = "activity"

    def bind(self, net) -> None:
        self._deadlock_cycles = net.config.deadlock_cycles
        self._sample_interval = net.config.sample_interval
        self._lat = net.config.link_latency
        topo = net.topology
        neighbors: List[tuple] = []
        adj: Dict[int, List[int]] = {r: [] for r in range(topo.num_routers)}
        for src, _direction, dst in topo.links():
            adj[src].append(dst)
        for r in range(topo.num_routers):
            neighbors.append(tuple(sorted(adj[r])))
        self._neighbors = neighbors
        self._live: Set[int] = set()
        self._live_nis: Set[int] = set(range(len(net.nis)))
        self._eject_pending: Set[int] = set()
        self._wake: Dict[int, Set[int]] = {}
        self._fallback = False
        self._reference = ReferenceKernel()
        self._reference.bind(net)
        net._on_offer = self.on_offer

    def on_offer(self, node: int) -> None:
        self._live_nis.add(node)

    # -- the gated cycle ---------------------------------------------------
    def cycle(self, net) -> None:
        if self._fallback or net.faults is not None or net.auditor is not None:
            # Fault injectors mutate arbitrary components on schedule and
            # auditors inspect every router each cycle: both need the full
            # reference visiting order.  Correctness beats speed here.
            self._fallback = True
            self._reference.cycle(net)  # kernel: fallback
            return
        now = net.now
        wake = self._wake
        # Almost every wakeup targets the next cycle (unit link latency);
        # keep that set in a local and register it once at the end
        # instead of paying a dict lookup per scheduling site.
        nxt = now + 1
        due_next = wake.get(nxt)
        if due_next is None:
            due_next = set()

        sent = 0
        live_nis = self._live_nis
        if live_nis:
            nis = net.nis
            for i in sorted(live_nis):
                ni = nis[i]
                s = ni.step(now)
                if s:
                    sent += s
                    due_next.add(i)
                if not ni.has_work():
                    live_nis.discard(i)

        moved = 0
        live = self._live
        due = wake.pop(now, None)
        if due:
            visit = sorted(due | live)
        elif live:
            visit = sorted(live)
        else:
            visit = ()
        if visit:
            routers = net.routers
            lat = self._lat
            eject = self._eject_pending
            neighbors = self._neighbors
            for r in visit:
                router = routers[r]
                m = router.step_fast(now)
                if router._occ:
                    live.add(r)
                else:
                    live.discard(r)
                if m:
                    moved += m
                    eject.add(r)
                    if lat == 1:
                        due_next.update(neighbors[r])
                    else:
                        t = now + lat
                        w = wake.get(t)
                        if w is None:
                            wake[t] = w = set()
                        w.update(neighbors[r])
        if due_next:
            wake[nxt] = due_next

        eject = self._eject_pending
        if eject:
            links = net.ejection_links
            ejectors = net.ejectors
            for r in sorted(eject):
                link = links[r]
                for flit in link.arrivals(now):
                    ejectors[r].receive_flit(flit, now)
                if not link.in_flight:
                    eject.discard(r)

        if moved or sent:
            net._last_progress = now
        if (
            net.stats.in_flight > 0
            and now - net._last_progress > self._deadlock_cycles
        ):
            net._no_progress(now)
        if now % self._sample_interval == 0:
            for ni in net.nis:
                ni.sample()
        t = net.telemetry
        if t is not None:
            t.on_cycle(now)
        net.now = now + 1
        net.stats.cycles = net.now
