"""Full-system GPGPU simulator: cores ⇄ request NoC ⇄ MCs ⇄ reply NoC.

``GPGPUSystem`` assembles the whole of Figs. 1–2 for a given
(:class:`~repro.gpu.config.GPUConfig`, :class:`~repro.core.schemes.Scheme`,
:class:`~repro.workloads.profile.WorkloadProfile`) triple and advances it on
the 1 GHz interconnect clock, with cores at 1.126x and GDDR5 at 1.75x via
fractional accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.schemes import Scheme
from repro.gpu.config import GPUConfig
from repro.gpu.core import Core
from repro.gpu.mc import MemoryController
from repro.noc.flit import Packet, PacketType, packet_size_for
from repro.noc.network import Network, NetworkConfig
from repro.noc.routing import hop_count
from repro.noc.topology import default_placement
from repro.workloads.profile import WorkloadProfile


@dataclass
class SimulationResult:
    """Measured outputs of one full-system run (post-warmup window)."""

    benchmark: str
    scheme: str
    cycles: int                      # NoC cycles measured
    core_cycles: int
    instructions: int
    ipc: float                       # aggregate instructions / core cycle
    mc_stall_cycles: int             # cycles with a blocked reply head, summed
    request_latency: float           # mean request packet latency
    reply_latency: float             # mean reply packet latency
    reply_traffic_share: float       # flit-weighted reply share (Fig. 5)
    mc_stall_time: int = 0           # total data wait time in MCs
    replies_sent: int = 0            # replies injected during the window
    mc_stall_per_reply: float = 0.0  # Fig. 12 metric (equal-work normalized)
    traffic_mix: Dict[str, float] = field(default_factory=dict)
    injection_link_util: float = 0.0
    mesh_link_util: float = 0.0
    mean_ni_occupancy: float = 0.0   # packets, averaged over MC NIs (Fig. 6)
    l2_hit_rate: float = 0.0
    dram_row_hit_rate: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)


class GPGPUSystem:
    def __init__(
        self,
        config: GPUConfig,
        scheme: Scheme,
        profile: WorkloadProfile,
        seed: int = 1,
        ni_queue_flits: Optional[int] = None,
        num_vcs: Optional[int] = None,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.profile = profile
        self.seed = seed
        num_vcs = num_vcs if num_vcs is not None else config.num_vcs
        ni_flits = (
            ni_queue_flits if ni_queue_flits is not None else config.ni_queue_flits
        )

        self.mc_nodes, cc_nodes = default_placement(
            config.mesh_width,
            config.mesh_height,
            config.num_mcs,
            style=config.mc_placement,
        )
        self.cc_nodes = cc_nodes[: config.num_cores]
        self.mc_set = set(self.mc_nodes)

        # Packet geometries per network (Fig. 4 widens one network's links,
        # which shortens that network's long packets).
        req_flit_bytes = config.flit_bytes * scheme.request_width_mult
        rep_flit_bytes = config.flit_bytes * scheme.reply_width_mult
        self.req_sizes = {
            PacketType.READ_REQUEST: 1,
            PacketType.WRITE_REQUEST: packet_size_for(
                PacketType.WRITE_REQUEST, config.line_bytes, req_flit_bytes
            ),
        }
        self.rep_sizes = (
            packet_size_for(
                PacketType.READ_REPLY, config.line_bytes, rep_flit_bytes
            ),
            1,  # write reply
        )

        ari = scheme.ari
        speedup_bound = min(4, num_vcs)
        split_queues = min(ari.num_split_queues, num_vcs)

        request_cfg = NetworkConfig(
            width=config.mesh_width,
            height=config.mesh_height,
            num_vcs=num_vcs,
            vc_capacity=max(self.req_sizes.values()),
            routing=scheme.routing,
            ni_queue_flits=ni_flits,
            link_latency=config.noc_hop_latency,
            bounded_ejectors={
                mc: 4 * max(self.req_sizes.values()) for mc in self.mc_nodes
            },
        )
        if getattr(scheme, "accelerate_request", False):
            # Ablation: give the CC-side request injectors the full ARI
            # structure as well.
            request_cfg.accelerated_nodes = set(self.cc_nodes)
            request_cfg.ni_kind = ari.ni_kind
            request_cfg.num_split_queues = split_queues
            request_cfg.injection_speedup = min(
                ari.effective_speedup, speedup_bound
            )
            request_cfg.priority_enabled = ari.priority_enabled
            request_cfg.priority_levels = ari.priority_levels
        reply_cfg = NetworkConfig(
            width=config.mesh_width,
            height=config.mesh_height,
            num_vcs=num_vcs,
            vc_capacity=self.rep_sizes[0],
            routing=scheme.routing,
            ni_queue_flits=ni_flits,
            link_latency=config.noc_hop_latency,
            accelerated_nodes=self.mc_set,
            ni_kind=scheme.ni_kind,
            num_split_queues=split_queues,
            injection_speedup=min(ari.effective_speedup, speedup_bound),
            num_injection_ports=scheme.num_injection_ports,
            priority_enabled=ari.priority_enabled,
            priority_levels=ari.priority_levels,
            starvation_threshold=ari.starvation_threshold,
        )
        self.request_net = Network(request_cfg)
        if scheme.reply_overlay == "da2mesh":
            from repro.noc.da2mesh import DA2MeshReplyNetwork

            self.reply_net = DA2MeshReplyNetwork(
                mc_nodes=self.mc_nodes,
                num_nodes=config.mesh_width * config.mesh_height,
                ni_mode="split" if ari.supply else "single",
                ni_queue_flits=ni_flits,
                num_split_queues=split_queues,
            )
        else:
            self.reply_net = Network(reply_cfg)

        # Cores on CC nodes.
        self.cores: List[Core] = [
            Core(i, node, config, profile, seed=seed)
            for i, node in enumerate(self.cc_nodes)
        ]
        self._core_by_node: Dict[int, Core] = {c.node: c for c in self.cores}

        # MCs on MC nodes (reply priority = L-1 at creation, Sec. 5).
        reply_priority = ari.priority_levels - 1 if ari.priority_enabled else 0
        self.mcs: List[MemoryController] = []
        for i, node in enumerate(self.mc_nodes):
            ejector = self.request_net.ejectors[node]
            mc = MemoryController(
                i,
                node,
                config,
                reply_offer=self.reply_net.offer,
                reply_can_accept=self.reply_net.can_accept,
                reply_sizes=self.rep_sizes,
                reply_priority=reply_priority,
                request_release=ejector.release,
            )
            self.mcs.append(mc)
        self._mc_by_node: Dict[int, MemoryController] = {
            m.node: m for m in self.mcs
        }

        self.request_net.on_delivery = self._on_request_delivery
        self.reply_net.on_delivery = self._on_reply_delivery

        self._core_clock_acc = 0.0
        self.now = 0
        # Opt-in periodic sampling (repro.telemetry); None = untracked hot
        # path, a single comparison per cycle.
        self.telemetry = None
        # Work-proportional network-energy accounting: flit-hops charged at
        # request issue (request packet + its reply over the same minimal
        # path), so dynamic energy tracks issued work with no in-flight
        # bias (see repro.energy.gpuwattch).
        self.expected_flit_hops = 0
        self._coords = self.request_net.topology.coords

    # -- warm-up ------------------------------------------------------------
    def prewarm_caches(self) -> None:
        """Fill every L2 bank with its slice of the working set.

        Short simulations would otherwise spend their whole budget on cold
        compulsory misses; prewarming puts the L2s directly into the steady
        state where hit rate ~ capacity/footprint, which is what a long
        GPGPU-Sim run converges to.
        """
        cfg = self.config
        ws = self.profile.working_set_lines
        capacity = cfg.l2_size_bytes // cfg.line_bytes
        filled = [0] * len(self.mcs)
        for line in range(ws):
            mc_idx = cfg.mc_for_line(line)
            if filled[mc_idx] >= capacity:
                if all(f >= capacity for f in filled):
                    break
                continue
            self.mcs[mc_idx].l2.fill(line)
            filled[mc_idx] += 1

    # -- network callbacks ---------------------------------------------------
    def _on_request_delivery(self, node: int, packet: Packet, now: int) -> None:
        self._mc_by_node[node].on_request(packet, now)

    def _on_reply_delivery(self, node: int, packet: Packet, now: int) -> None:
        core = self._core_by_node.get(node)
        if core is None:
            return  # reply to a node without a core (can't happen normally)
        is_write, line = packet.tag
        if is_write:
            core.on_write_reply(now)
        else:
            core.on_read_reply(line, now)

    # -- per-cycle work ----------------------------------------------------
    def _drain_core_requests(self) -> None:
        cfg = self.config
        for core in self.cores:
            # One packet offered per NoC cycle per core.
            if not core.outbound:
                continue
            is_write, line = core.outbound[0]
            mc_node = self.mc_nodes[cfg.mc_for_line(line)]
            ptype = (
                PacketType.WRITE_REQUEST if is_write else PacketType.READ_REQUEST
            )
            pkt = Packet(
                ptype,
                src=core.node,
                dest=mc_node,
                size=self.req_sizes[ptype],
                created_at=self.now,
                tag=(core.node, line),
            )
            if self.request_net.offer(core.node, pkt):
                core.outbound.popleft()
                core._issue_epoch += 1
                hops = hop_count(
                    self._coords(core.node), self._coords(mc_node)
                ) + 2
                reply_size = 1 if is_write else self.rep_sizes[0]
                self.expected_flit_hops += hops * (pkt.size + reply_size)

    def step(self) -> None:
        now = self.now
        self._core_clock_acc += self.config.core_clock_ratio
        while self._core_clock_acc >= 1.0:
            self._core_clock_acc -= 1.0
            for core in self.cores:
                core.step_core_cycle(now)
        self._drain_core_requests()
        for mc in self.mcs:
            mc.step(now)
        self.request_net.step()
        self.reply_net.step()
        t = self.telemetry
        if t is not None:
            t.on_cycle(now)
        self.now = now + 1

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def attach_telemetry(self, collector) -> None:
        """Instrument this system with a
        :class:`~repro.telemetry.TelemetryCollector` (``req.*`` / ``rep.*``
        network channels plus ``sys.*`` GPU channels)."""
        collector.attach_system(self)

    def _reply_injection_util(self) -> float:
        try:
            return self.reply_net.injection_link_utilization(self.mc_nodes)
        except TypeError:  # overlay fabrics take no node filter
            return self.reply_net.injection_link_utilization()

    def _run_tolerant(self, cycles: int) -> Optional[int]:
        """Run, catching a deadlock; returns the cycle it hit, or None."""
        from repro.noc.network import DeadlockError

        try:
            self.run(cycles)
        except DeadlockError:
            return self.now
        return None

    # -- measurement ---------------------------------------------------------
    def simulate(
        self,
        cycles: int,
        warmup: int = 0,
        prewarm: bool = True,
        on_deadlock: str = "raise",
    ) -> SimulationResult:
        """Run ``warmup`` cycles, then measure over ``cycles`` cycles.

        ``on_deadlock="record"`` turns a :class:`~repro.noc.network.
        DeadlockError` into data instead of an exception: stepping stops,
        the result is assembled from the state reached, and
        ``extras["first_deadlock_cycle"]`` records when progress died —
        fault campaigns measure *how* a scheme fails, not just that it
        did.
        """
        if on_deadlock not in ("raise", "record"):
            raise ValueError("on_deadlock must be 'raise' or 'record'")
        if prewarm:
            self.prewarm_caches()
        first_deadlock: Optional[int] = None
        if warmup:
            if on_deadlock == "record":
                first_deadlock = self._run_tolerant(warmup)
            else:
                self.run(warmup)
        instr0 = sum(c.stats.instructions for c in self.cores)
        ccyc0 = sum(c.stats.core_cycles for c in self.cores)
        stall0 = sum(m.stats.stall_cycles for m in self.mcs)
        stallt0 = sum(m.stats.stall_data_time for m in self.mcs)
        replies0 = sum(m.stats.replies_sent for m in self.mcs)
        if on_deadlock == "record":
            if first_deadlock is None:
                first_deadlock = self._run_tolerant(cycles)
        else:
            self.run(cycles)
        instructions = sum(c.stats.instructions for c in self.cores) - instr0
        core_cycles = sum(c.stats.core_cycles for c in self.cores) - ccyc0
        stalls = sum(m.stats.stall_cycles for m in self.mcs) - stall0
        stall_time = sum(m.stats.stall_data_time for m in self.mcs) - stallt0
        replies = sum(m.stats.replies_sent for m in self.mcs) - replies0

        req_stats = self.request_net.stats
        rep_stats = self.reply_net.stats
        mix_req = req_stats.traffic_mix()
        mix_rep = rep_stats.traffic_mix()
        req_flits = sum(req_stats.flits_delivered.values())
        rep_flits = sum(rep_stats.flits_delivered.values())
        total_flits = req_flits + rep_flits
        mix = {}
        if total_flits:
            for t in PacketType:
                flits = (
                    req_stats.flits_delivered[t] + rep_stats.flits_delivered[t]
                )
                mix[t.name.lower()] = flits / total_flits

        l2_acc = sum(m.l2.stats.accesses for m in self.mcs)
        l2_hits = sum(m.l2.stats.hits for m in self.mcs)
        row_tot = sum(
            m.dram.row_hits + m.dram.row_misses + m.dram.row_conflicts
            for m in self.mcs
        )
        row_hits = sum(m.dram.row_hits for m in self.mcs)
        mc_ni_occ = [self.reply_net.ni_occupancy(n) for n in self.mc_nodes]
        # Warp-visible memory round-trip latency: total cycles warps spent
        # blocked on loads, per read reply received.
        blocked = sum(
            w.blocked_cycles for c in self.cores for w in c.warps
        )
        replies_recv = sum(c.stats.read_replies for c in self.cores)

        per_core_cycles = core_cycles / max(1, len(self.cores))
        return SimulationResult(
            benchmark=self.profile.name,
            scheme=self.scheme.name,
            cycles=cycles,
            core_cycles=core_cycles,
            instructions=instructions,
            ipc=instructions / per_core_cycles if per_core_cycles else 0.0,
            mc_stall_cycles=stalls,
            mc_stall_time=stall_time,
            replies_sent=replies,
            mc_stall_per_reply=(stall_time / replies) if replies else 0.0,
            request_latency=req_stats.mean_latency(
                [PacketType.READ_REQUEST, PacketType.WRITE_REQUEST]
            ),
            reply_latency=rep_stats.mean_latency(
                [PacketType.READ_REPLY, PacketType.WRITE_REPLY]
            ),
            reply_traffic_share=(rep_flits / total_flits) if total_flits else 0.0,
            traffic_mix=mix,
            injection_link_util=self._reply_injection_util(),
            mesh_link_util=self.reply_net.mesh_link_utilization(),
            mean_ni_occupancy=(
                sum(mc_ni_occ) / len(mc_ni_occ) if mc_ni_occ else 0.0
            ),
            l2_hit_rate=(l2_hits / l2_acc) if l2_acc else 0.0,
            dram_row_hit_rate=(row_hits / row_tot) if row_tot else 0.0,
            extras={
                "mean_memory_latency": (
                    blocked / replies_recv if replies_recv else 0.0
                ),
                **(
                    {"first_deadlock_cycle": float(first_deadlock)}
                    if first_deadlock is not None
                    else {}
                ),
            },
        )
