"""Runtime invariant checking for the NoC simulator.

``InvariantChecker`` audits a :class:`~repro.noc.network.Network` between
cycles and raises :class:`InvariantViolation` with a precise description
when simulator state goes inconsistent.  It exists for development and for
the test suite's failure-injection paths: when a model change breaks flow
control, these checks localize the bug to the first inconsistent cycle
instead of a deadlock thousands of cycles later.

Checked invariants:

* **occupancy** — every router's maintained flit counter equals the sum of
  its VC FIFO lengths;
* **credit conservation** — for every mesh link, the upstream credit view
  plus downstream buffered flits plus in-flight flits/credits equals the
  VC capacity; for every NI injection ``(port, vc)``, the NI's credit
  count plus the router's buffered flits in that VC plus the flits in
  flight on the NI's injection links equals the VC capacity exactly
  (injection credits return to the NI in the same cycle, with no wire);
* **writer locks** — an output VC's remaining-flit count is consistent
  (never negative, zero iff unlocked);
* **WPF safety** — no downstream VC ever interleaves flits of two packets
  (a head may only follow a tail);
* **conservation** — offered = delivered + in-network + in-NI + in-flight
  flit-accounted packets (checked at quiescence).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.noc.network import Network
from repro.noc.routing import opposite


class InvariantViolation(AssertionError):
    """A simulator invariant does not hold."""


class InvariantChecker:
    """Audits one network.

    ``context`` (e.g. ``"scheme=ada-ari seed=3"``) is prefixed into every
    violation message so a failure out of a parallel sweep is reproducible
    from the error text alone.  With ``collect=True`` violations are
    accumulated in :attr:`violations` instead of raised — the mode fault
    campaigns use to keep degrading gracefully while still counting every
    inconsistency.  Install the checker as ``network.auditor`` to audit
    every ``every``-th cycle via :meth:`on_cycle`.
    """

    def __init__(
        self,
        network: Network,
        context: str = "",
        every: int = 1,
        collect: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.network = network
        self.context = context
        self.every = every
        self.collect = collect
        self.violations: List[str] = []
        self.audits = 0

    def _fail(self, message: str) -> None:
        if self.context:
            message = f"[{self.context}] {message}"
        if self.collect:
            self.violations.append(message)
            return
        raise InvariantViolation(message)

    def _loc(self, router_id: int) -> str:
        """``r5@(5,0)`` — router id with its mesh coordinates."""
        x, y = self.network.topology.coords(router_id)
        return f"r{router_id}@({x},{y})"

    # -- network.auditor hook ----------------------------------------------
    def on_cycle(self, now: int) -> None:
        if now % self.every == 0:
            self.audit()

    # -- individual checks -------------------------------------------------
    def check_occupancy_counters(self) -> None:
        for router in self.network.routers:
            loc = self._loc(router.router_id)
            for port in router.input_ports:
                if port.occ != port.total_occupancy():
                    per_vc = ", ".join(
                        f"vc{vc.index}={vc.occupancy}" for vc in port.vcs
                    )
                    self._fail(
                        f"router {loc} port {port.port_id}: "
                        f"port counter {port.occ} != {port.total_occupancy()}"
                        f" ({per_vc})"
                    )
            actual = sum(p.total_occupancy() for p in router.input_ports)
            if router.occupancy() != actual:
                self._fail(
                    f"router {loc}: maintained occupancy "
                    f"{router.occupancy()} != actual {actual}"
                )

    def check_credit_conservation(self) -> None:
        topo = self.network.topology
        cap = self.network.config.vc_capacity
        for src, direction, dst in topo.links():
            up = self.network.routers[src].output_ports[direction]
            if up is None or up.credits is None:
                continue
            down_port = self.network.routers[dst].input_ports[
                opposite(direction)
            ]
            in_flight_flits = up.link.in_flight
            in_flight_credits = up.credit_in.pending if up.credit_in else 0
            for vc in range(self.network.config.num_vcs):
                buffered = down_port.vcs[vc].occupancy
                # Flits in flight on the link may belong to any VC; account
                # them loosely by checking the aggregate bound per VC pair.
                total = up.credits.available(vc) + buffered
                link_loc = f"link {self._loc(src)}->{self._loc(dst)}"
                if total > cap + in_flight_credits:
                    self._fail(
                        f"{link_loc} vc{vc}: credits "
                        f"{up.credits.available(vc)} + buffered {buffered} "
                        f"> capacity {cap} (+{in_flight_credits} in-flight)"
                    )
                if up.credits.available(vc) + buffered + in_flight_flits + \
                        in_flight_credits < cap:
                    self._fail(
                        f"{link_loc} vc{vc}: credit leak "
                        f"({up.credits.available(vc)} + {buffered} + "
                        f"{in_flight_flits} + {in_flight_credits} < {cap})"
                    )
        for ni in self.network.nis:
            inputs = self.network.routers[ni.node_id].input_ports
            in_flight = Counter(
                (flit.out_port, flit.out_vc)
                for link in ni.links
                for flit in link.flits_in_flight()
            )
            for (port, vc), credits in ni.credits.items():
                buffered = inputs[port].vcs[vc].occupancy
                flying = in_flight[(port, vc)]
                if credits + buffered + flying != cap:
                    self._fail(
                        f"NI {self._loc(ni.node_id)} port {port} vc{vc}: "
                        f"injection credits {credits} + buffered {buffered} "
                        f"+ in-flight {flying} != capacity {cap}"
                    )

    def check_writer_locks(self) -> None:
        for router in self.network.routers:
            loc = self._loc(router.router_id)
            for out in router.output_ports:
                if out is None:
                    continue
                for vc in range(self.network.config.num_vcs):
                    left = out.writer_left[vc]
                    locked = out.writer[vc] is not None
                    if left < 0:
                        self._fail(
                            f"router {loc} out {out.port_id} "
                            f"vc{vc}: negative writer_left {left}"
                        )
                    if locked and left == 0:
                        self._fail(
                            f"router {loc} out {out.port_id} "
                            f"vc{vc}: locked with zero flits left"
                        )
                    if not locked and left != 0:
                        self._fail(
                            f"router {loc} out {out.port_id} "
                            f"vc{vc}: unlocked with {left} flits left"
                        )

    def check_no_interleaving(self) -> None:
        for router in self.network.routers:
            loc = self._loc(router.router_id)
            for port in router.input_ports:
                for vc in port.vcs:
                    current: Optional[int] = None
                    for flit in vc.fifo:
                        if flit.is_head:
                            if current is not None:
                                self._fail(
                                    f"router {loc} port "
                                    f"{port.port_id} vc{vc.index}: head of "
                                    f"pid {flit.packet.pid} inside pid "
                                    f"{current}"
                                )
                            current = flit.packet.pid
                        else:
                            if current is not None and \
                                    flit.packet.pid != current:
                                self._fail(
                                    f"router {loc} port "
                                    f"{port.port_id} vc{vc.index}: flit of "
                                    f"pid {flit.packet.pid} interleaved "
                                    f"into pid {current}"
                                )
                            current = flit.packet.pid
                        if flit.is_tail:
                            current = None

    def check_quiescent_conservation(self) -> None:
        """At quiescence (no in-flight packets), all counters must agree."""
        stats = self.network.stats
        if stats.in_flight != 0:
            self._fail(
                f"quiescence check with {stats.in_flight} packets in flight"
            )
        holders = [
            f"{self._loc(r.router_id)}:{r.occupancy()}"
            for r in self.network.routers
            if r.occupancy()
        ]
        if holders:
            buffered = sum(r.occupancy() for r in self.network.routers)
            self._fail(
                f"quiescent network still buffers {buffered} flits "
                f"(at {', '.join(holders)})"
            )
        ni_holders = [
            f"{self._loc(node)}:{ni.queued_flits()}"
            for node, ni in enumerate(self.network.nis)
            if ni.queued_flits()
        ]
        if ni_holders:
            queued = sum(ni.queued_flits() for ni in self.network.nis)
            self._fail(
                f"quiescent network still queues {queued} NI flits "
                f"(at {', '.join(ni_holders)})"
            )

    # -- aggregate ----------------------------------------------------------
    def audit(self, quiescent: bool = False) -> None:
        """Run all applicable checks once."""
        self.audits += 1
        self.check_occupancy_counters()
        self.check_credit_conservation()
        self.check_writer_locks()
        self.check_no_interleaving()
        if quiescent:
            self.check_quiescent_conservation()

    def run_audited(self, cycles: int, every: int = 1) -> None:
        """Step the network, auditing every ``every`` cycles."""
        for i in range(cycles):
            self.network.step()
            if i % every == 0:
                self.audit()
