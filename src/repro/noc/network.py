"""Network assembly and cycle stepping.

:class:`Network` builds a mesh of :class:`~repro.noc.router.Router` objects
from a :class:`NetworkConfig`, wires inter-router links and credit channels,
attaches injection NIs and ejection interfaces to every node, and advances
everything one cycle at a time.

:class:`PerfectNetwork` is an idealized drop-in used by the ARI speedup
sizing rule (Eq. 1): it delivers every packet after its zero-load latency,
modeling "a reply network with unlimited bandwidth" so the raw (supply-
limited) packet injection rate can be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.noc.credit import CreditChannel
from repro.noc.flit import Packet
from repro.noc.kernel import resolve_kernel
from repro.noc.link import Link
from repro.noc.ni import (
    EjectionInterface,
    InjectionInterface,
    MultiPortNI,
    NIKind,
    make_ni,
)
from repro.noc.router import Router
from repro.noc.routing import LOCAL, hop_count, make_routing, opposite
from repro.noc.stats import NetworkStats, mean_link_utilization
from repro.noc.topology import MeshTopology


class DeadlockError(RuntimeError):
    """Raised when in-flight traffic makes no progress for too long."""


@dataclass
class NetworkConfig:
    """Configuration of one physical network (request or reply).

    The defaults follow Table I of the paper: 6x6 mesh, 4 VCs per port with
    one (long) packet of buffering each, 36-flit NI injection queues, XY
    routing, no ARI features.
    """

    width: int = 6
    height: int = 6
    num_vcs: int = 4
    vc_capacity: int = 9          # one long packet per VC (Table I)
    routing: str = "xy"
    ni_queue_flits: int = 36
    link_latency: int = 1

    # --- ARI / comparison-scheme knobs (apply to `accelerated_nodes`) ----
    accelerated_nodes: Set[int] = field(default_factory=set)
    ni_kind: NIKind = NIKind.ENHANCED           # NI of accelerated nodes
    num_split_queues: int = 4                   # SplitNI queue count
    injection_speedup: int = 1                  # crossbar speedup at MC-routers
    num_injection_ports: int = 1                # MultiPort scheme
    priority_enabled: bool = False
    priority_levels: int = 1                    # L; packets start at L-1
    starvation_threshold: int = 1000

    # --- ejection-side backpressure ---------------------------------------
    # node id -> ejection buffer capacity in flits; listed nodes must call
    # EjectionInterface.release() when they consume packets (MC nodes on the
    # request network use this to propagate reply-side stalls backward).
    bounded_ejectors: Dict[int, int] = field(default_factory=dict)

    # --- misc ---------------------------------------------------------------
    deadlock_cycles: int = 20000
    sample_interval: int = 16

    def validate(self) -> None:
        if self.num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if self.routing.startswith("ada") and self.num_vcs < 2:
            raise ValueError("adaptive routing needs >= 2 VCs (escape VC)")
        if (
            self.ni_kind == NIKind.SPLIT
            and self.accelerated_nodes
            and self.num_split_queues > self.num_vcs
        ):
            raise ValueError(
                "split NI queues are hard-wired one-per-VC; "
                f"{self.num_split_queues} queues > {self.num_vcs} VCs"
            )
        if self.injection_speedup > min(4, self.num_vcs):
            raise ValueError(
                "injection speedup exceeds min(N_out, N_VC) (Eq. 2 bound)"
            )
        if self.priority_levels < 1:
            raise ValueError("priority_levels must be >= 1")


class Network:
    """A single physical NoC instance (the paper uses two: request + reply)."""

    def __init__(
        self, config: NetworkConfig, kernel: Optional[str] = None
    ) -> None:
        config.validate()
        self.config = config
        self.topology = MeshTopology(config.width, config.height)
        self.routing = make_routing(config.routing)
        self.now = 0
        self.stats = NetworkStats()

        n = self.topology.num_routers
        self.routers: List[Router] = []
        for r in range(n):
            accelerated = r in config.accelerated_nodes
            self.routers.append(
                Router(
                    router_id=r,
                    coords=self.topology.coords(r),
                    routing=self.routing,
                    num_vcs=config.num_vcs,
                    vc_capacity=config.vc_capacity,
                    num_injection_ports=(
                        config.num_injection_ports if accelerated else 1
                    ),
                    injection_speedup=(
                        config.injection_speedup if accelerated else 1
                    ),
                    priority_enabled=config.priority_enabled,
                    starvation_threshold=config.starvation_threshold,
                )
            )
        coords = self.topology.coords
        for router in self.routers:
            router.set_dest_coords_fn(coords)

        self.mesh_links: List[Link] = []
        self.injection_links: List[Link] = []
        self.injection_links_by_node: Dict[int, List[Link]] = {}
        self.ejection_links: List[Link] = []
        self._wire_mesh()

        self.nis: List[InjectionInterface] = []
        self.ejectors: List[EjectionInterface] = []
        self._attach_interfaces()

        self.on_delivery: Optional[Callable[[int, Packet, int], None]] = None
        # Opt-in periodic sampling (repro.telemetry).  None keeps the hot
        # path to a single comparison per cycle — the PacketTracer contract.
        self.telemetry = None
        # Opt-in hooks following the same is-None contract: `faults` is a
        # repro.faults.FaultInjector mutating the network between cycles,
        # `auditor` a per-cycle flow-control checker (InvariantChecker).
        self.faults = None
        self.auditor = None
        self._last_progress = 0

        self._deadlock_cycles = config.deadlock_cycles
        self._sample_interval = config.sample_interval
        # Both kernel names select the one advance loop in step().
        resolve_kernel(kernel)

    # ------------------------------------------------------------------
    def _wire_mesh(self) -> None:
        cfg = self.config
        for src, direction, dst in self.topology.links():
            link = Link(
                name=f"r{src}->{direction}->r{dst}", latency=cfg.link_latency
            )
            credit = CreditChannel(latency=1)
            self.routers[src].set_output(direction, link, credit, cfg.vc_capacity)
            self.routers[dst].set_input(opposite(direction), link, credit)
            self.mesh_links.append(link)

    def _attach_interfaces(self) -> None:
        cfg = self.config
        for r, router in enumerate(self.routers):
            accelerated = r in cfg.accelerated_nodes
            kind = cfg.ni_kind if accelerated else NIKind.ENHANCED
            ni = make_ni(
                kind,
                node_id=r,
                capacity_flits=cfg.ni_queue_flits,
                num_vcs=cfg.num_vcs,
                num_split_queues=cfg.num_split_queues,
            )
            links: List[Link] = []
            targets: List[Tuple[int, int]] = []
            ports_vcs: List[Tuple[int, int]] = []
            inj_ports = router.injection_port_ids()
            if isinstance(ni, MultiPortNI):
                for idx, port in enumerate(inj_ports):
                    link = Link(name=f"ni{r}.p{port}", is_injection=True)
                    links.append(link)
                    ni.port_index[port] = idx
                    for vc in range(cfg.num_vcs):
                        ports_vcs.append((port, vc))
                # MultiPort routers need one input link per injection port.
                for idx, port in enumerate(inj_ports):
                    router.set_input(port, links[idx], None)
            elif kind == NIKind.SPLIT and accelerated:
                port = inj_ports[0]
                for q in range(cfg.num_split_queues):
                    link = Link(name=f"ni{r}.q{q}", is_injection=True)
                    links.append(link)
                    targets.append((port, q % cfg.num_vcs))
                for vc in range(cfg.num_vcs):
                    ports_vcs.append((port, vc))
                # All split links feed the same physical injection port.
                self._wire_multi_link_input(router, port, links)
            else:
                port = inj_ports[0]
                link = Link(name=f"ni{r}", is_injection=True)
                links.append(link)
                targets.append((port, 0))
                for vc in range(cfg.num_vcs):
                    ports_vcs.append((port, vc))
                router.set_input(port, link, None)
            ni.attach(links, targets, cfg.vc_capacity, ports_vcs)
            router.attach_ni(ni)
            self.nis.append(ni)
            self.injection_links.extend(links)
            self.injection_links_by_node[r] = links

            ej_link = Link(name=f"ej{r}", latency=cfg.link_latency)
            router.set_ejection(ej_link)
            self.ejection_links.append(ej_link)
            cap = cfg.bounded_ejectors.get(r)
            ejector = EjectionInterface(
                r, capacity_flits=cap, auto_release=(cap is None)
            )
            ejector.on_packet = self._make_delivery(r)
            if cap is not None:
                # Gate the router's LOCAL output on the sink's buffer state,
                # counting flits already in flight on the ejection link.
                def gate(e=ejector, l=ej_link, c=cap):
                    return e.flit_occupancy + l.in_flight < c

                router.ejection_gate = gate
            self.ejectors.append(ejector)

    def _wire_multi_link_input(
        self, router: Router, port: int, links: List[Link]
    ) -> None:
        """SplitNI: several narrow links terminate on one injection port."""
        # Router.step reads input_links[port]; store a composite.
        router.input_links[port] = _CompositeLink(links)
        router.credit_out[port] = None

    def _make_delivery(self, node: int) -> Callable[[Packet, int], None]:
        coords = self.topology.coords

        def deliver(packet: Packet, now: int) -> None:
            hops = hop_count(coords(packet.src), coords(packet.dest)) + 2
            self.stats.on_delivery(packet, hops=hops)
            self._last_progress = now
            if self.on_delivery is not None:
                self.on_delivery(node, packet, now)

        return deliver

    # -- public API ---------------------------------------------------------
    def offer(self, node: int, packet: Packet) -> bool:
        """Hand a packet to ``node``'s injection NI; False = NI full.

        On acceptance the packet's latency clock starts: per the paper's
        accounting (Sec. 7.4) the NI injection-queue wait *is* part of
        packet latency, while time stalled in the source node (e.g. reply
        data stuck in the MC, Fig. 12) is not.
        """
        f = self.faults
        if f is not None and f.intercept_offer(node, packet):
            # Destination unreachable on the live-link graph: accept the
            # packet and immediately write it off (lost-reply semantics —
            # the producer proceeds, delivered_fraction records the loss).
            packet.created_at = self.now
            self.stats.on_offer()
            self.stats.on_drop(packet)
            return True
        ok = self.nis[node].offer(packet, self.now)
        if ok:
            packet.created_at = self.now
            self.stats.on_offer()
        return ok

    def can_accept(self, node: int, packet: Packet) -> bool:
        return self.nis[node].can_accept(packet)

    def step(self) -> None:
        """Advance one cycle: every NI, router and ejection link, in index order."""
        now = self.now
        f = self.faults
        if f is not None:
            # Apply scheduled fault/repair events *before* anything moves
            # this cycle, so routers never allocate into a freshly dead
            # resource within the same cycle.
            f.on_cycle(now)
        sent = 0
        for ni in self.nis:
            sent += ni.step(now)
        moved = 0
        for router in self.routers:
            moved += router.step(now)
        ejectors = self.ejectors
        for r, link in enumerate(self.ejection_links):
            ejector = ejectors[r]
            for flit in link.arrivals(now):
                ejector.receive_flit(flit, now)
        if moved or sent:
            self._last_progress = now
        if (
            self.stats.in_flight > 0
            and now - self._last_progress > self._deadlock_cycles
        ):
            raise DeadlockError(
                f"no progress for {now - self._last_progress} cycles with "
                f"{self.stats.in_flight} packets in flight"
            )
        if now % self._sample_interval == 0:
            for ni in self.nis:
                ni.sample()
        a = self.auditor
        if a is not None:
            # End-of-cycle audit: every router/NI has settled, so the
            # flow-control invariants must hold exactly here.
            a.on_cycle(now)
        t = self.telemetry
        if t is not None:
            t.on_cycle(now)
        self.now = now + 1
        self.stats.cycles = self.now

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def set_hop_hook(
        self, fn: Optional[Callable[[int, Packet, int], None]]
    ) -> None:
        """Install (or clear) a per-router head-flit observer.

        ``fn(router_id, packet, cycle)`` fires once per route computation,
        after ARI priority decay — the PacketTracer uses this for
        ``hop`` events.
        """
        for router in self.routers:
            router.on_hop = fn

    def drain(self, max_cycles: int = 100000) -> bool:
        """Step until all offered packets are delivered (True on success)."""
        for _ in range(max_cycles):
            if self.stats.in_flight == 0:
                return True
            self.step()
        return self.stats.in_flight == 0

    # -- analysis -------------------------------------------------------------
    def injection_link_utilization(
        self, nodes: Optional[Sequence[int]] = None
    ) -> float:
        """Mean flits/cycle over injection links.

        Pass ``nodes`` to restrict to the nodes that actually inject (the
        Sec. 3 measurement is over the MC injection links of the reply
        network, not the idle CC-side NIs).
        """
        if nodes is None:
            links = self.injection_links
        else:
            links = [l for n in nodes for l in self.injection_links_by_node[n]]
        return mean_link_utilization(links, self.now)

    def mesh_link_utilization(self) -> float:
        return mean_link_utilization(self.mesh_links, self.now)

    def ni_occupancy(self, node: int) -> float:
        return self.nis[node].stats.mean_occupancy

    def zero_load_latency(self, src: int, dest: int, size: int) -> int:
        """Analytic zero-load latency matching the router model.

        1 cycle NI link, 1 cycle per hop (single-cycle router + unit link),
        1 cycle ejection link, plus serialization of the remaining flits.
        """
        hops = hop_count(self.topology.coords(src), self.topology.coords(dest))
        return 1 + hops + 1 + (size - 1)


class _CompositeLink:
    """Bundles several NI links into one router input (SplitNI wiring).

    The router reads each member link in ``links`` order.
    """

    __slots__ = ("links",)

    def __init__(self, links: List[Link]) -> None:
        self.links = links


class PerfectNetwork:
    """Infinite-bandwidth network: zero-load delivery, no contention.

    Used to measure the *ideal packet injection rate* of Eq. (1): with a
    perfect consumption side, how fast do MCs hand packets to the network?
    """

    def __init__(self, config: NetworkConfig) -> None:
        config.validate()
        self.config = config
        self.topology = MeshTopology(config.width, config.height)
        self.now = 0
        self.stats = NetworkStats()
        self.on_delivery: Optional[Callable[[int, Packet, int], None]] = None
        self.telemetry = None
        self._in_flight: List[Tuple[int, Packet]] = []
        self.injections_per_node: Dict[int, int] = {}

    def offer(self, node: int, packet: Packet) -> bool:
        packet.created_at = self.now
        self.stats.on_offer()
        hops = hop_count(
            self.topology.coords(packet.src), self.topology.coords(packet.dest)
        )
        arrival = self.now + 1 + hops + packet.size
        packet.injected_at = self.now
        self._in_flight.append((arrival, packet))
        self.injections_per_node[node] = self.injections_per_node.get(node, 0) + 1
        return True

    def can_accept(self, node: int, packet: Packet) -> bool:
        return True

    def step(self) -> None:
        now = self.now
        remaining = []
        for arrival, packet in self._in_flight:
            if arrival <= now:
                packet.received_at = now
                hops = hop_count(
                    self.topology.coords(packet.src),
                    self.topology.coords(packet.dest),
                ) + 2
                self.stats.on_delivery(packet, hops=hops)
                if self.on_delivery is not None:
                    self.on_delivery(packet.dest, packet, now)
            else:
                remaining.append((arrival, packet))
        self._in_flight = remaining
        t = self.telemetry
        if t is not None:
            t.on_cycle(now)
        self.now = now + 1
        self.stats.cycles = self.now

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def injection_rate(self, node: int) -> float:
        """Measured packets/cycle offered by ``node`` (Eq. 1 input)."""
        if self.now == 0:
            return 0.0
        return self.injections_per_node.get(node, 0) / self.now
