"""The sampling layer: periodic snapshots of live simulator state.

A :class:`TelemetryCollector` owns an interval ``K``, a set of *probes*
(objects that read simulator state and return a flat channel dict) and a
set of sinks.  Attachment mirrors :class:`~repro.noc.trace.PacketTracer`:

* ``collector.attach_network(net, prefix)`` registers a
  :class:`NetworkProbe` and sets ``net.telemetry = collector``; the only
  hot-path cost for an un-instrumented network stays a single
  ``is None`` check in ``Network.step``.
* ``collector.attach_system(system)`` instruments both networks (prefixes
  ``"req"`` / ``"rep"``) plus GPU-level counters (prefix ``"sys"``).

Probes are *pull*-based: no simulator component records anything extra per
cycle; at sample time the probe reads maintained state (occupancy
counters, cumulative link/router counters) and differences cumulative
values against the previous sample to get per-interval figures.  Because
probes only read state the simulator maintains anyway, sampling composes
with any simulation kernel: the activity kernel keeps all maintained
counters byte-identical to the reference loop, so a telemetry stream is
the same under either ``kernel=``.  The one
push-based channel is the rolling packet-latency window, fed by chaining
the network's existing ``on_delivery`` callback — again the
:class:`PacketTracer` contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.noc.histogram import LatencyHistogram
from repro.telemetry.profiler import HostProfiler
from repro.telemetry.sinks import (
    Channels,
    MemorySink,
    TelemetrySample,
    TelemetrySink,
)


class NetworkProbe:
    """Reads one network's state into ``{prefix}.*`` channels.

    Works with any object exposing ``stats``; mesh-level channels
    (per-router occupancy, link utilization, NI depths) appear only when
    the corresponding attributes exist, so overlay fabrics like DA2mesh
    and :class:`PerfectNetwork` degrade to throughput/latency channels.
    """

    def __init__(self, network, prefix: str = "net") -> None:
        self.network = network
        self.prefix = prefix
        self._prev_cycle: Optional[int] = None
        self._prev: Dict[str, int] = {}
        # Rolling latency window, fed by the chained delivery callback.
        self._window: List[int] = []

    # -- delivery hook -----------------------------------------------------
    def on_delivery(self, packet) -> None:
        lat = packet.latency
        if lat is not None:
            self._window.append(lat)

    # -- helpers -----------------------------------------------------------
    def _delta(self, name: str, cumulative: int) -> int:
        prev = self._prev.get(name, 0)
        self._prev[name] = cumulative
        return cumulative - prev

    @staticmethod
    def _link_flits(links) -> int:
        return sum(l.flits_carried for l in links)

    # -- sampling ----------------------------------------------------------
    def collect(self, now: int) -> Channels:
        net = self.network
        p = self.prefix
        elapsed = now - self._prev_cycle if self._prev_cycle is not None else 0
        self._prev_cycle = now

        out: Channels = {}
        stats = getattr(net, "stats", None)
        if stats is not None:
            out[f"{p}.offered"] = self._delta("offered", stats.packets_offered)
            out[f"{p}.delivered"] = self._delta(
                "delivered", stats.packets_delivered
            )
            out[f"{p}.in_flight"] = stats.in_flight

        routers = getattr(net, "routers", None)
        if routers is not None:
            out[f"{p}.router_occ"] = [r.occupancy() for r in routers]
            out[f"{p}.starvation_demotions"] = self._delta(
                "starve", sum(r.starvation_demotions for r in routers)
            )
            out[f"{p}.priority_decays"] = self._delta(
                "decay", sum(r.priority_decays for r in routers)
            )
            out[f"{p}.speedup_extra_flits"] = self._delta(
                "speedup", sum(r.speedup_extra_flits for r in routers)
            )

        nis = getattr(net, "nis", None)
        if nis is not None:
            out[f"{p}.ni_occ_flits"] = [ni.queued_flits() for ni in nis]
            out[f"{p}.ni_occ_pkts"] = [ni.queued_packets() for ni in nis]
            split = {
                str(node): depths
                for node, ni in enumerate(nis)
                for depths in [ni.queue_depths()]
                if len(depths) > 1
            }
            if split:
                out[f"{p}.split_q_depths"] = split

        mesh_links = getattr(net, "mesh_links", None)
        if mesh_links is not None:
            carried = self._delta("mesh_flits", self._link_flits(mesh_links))
            denom = len(mesh_links) * elapsed
            out[f"{p}.mesh_link_util"] = carried / denom if denom else 0.0
        inj_links = getattr(net, "injection_links", None)
        if inj_links is not None:
            carried = self._delta("inj_flits", self._link_flits(inj_links))
            denom = len(inj_links) * elapsed
            out[f"{p}.inj_link_util"] = carried / denom if denom else 0.0

        window = self._window
        out[f"{p}.lat_count"] = len(window)
        if window:
            hist = LatencyHistogram()
            hist.record_many(window)
            out[f"{p}.lat_mean"] = hist.mean
            out[f"{p}.lat_p95"] = hist.p95
            window.clear()
        else:
            out[f"{p}.lat_mean"] = 0.0
            out[f"{p}.lat_p95"] = 0.0
        return out


class SystemProbe:
    """GPU-level channels (``sys.*``): issue progress and MC reply stalls."""

    def __init__(self, system, prefix: str = "sys") -> None:
        self.system = system
        self.prefix = prefix
        self._prev: Dict[str, int] = {}

    def _delta(self, name: str, cumulative: int) -> int:
        prev = self._prev.get(name, 0)
        self._prev[name] = cumulative
        return cumulative - prev

    def collect(self, now: int) -> Channels:
        sysm = self.system
        p = self.prefix
        return {
            f"{p}.instructions": self._delta(
                "instr", sum(c.stats.instructions for c in sysm.cores)
            ),
            f"{p}.mc_stall_cycles": self._delta(
                "stall", sum(m.stats.stall_cycles for m in sysm.mcs)
            ),
            f"{p}.replies_sent": self._delta(
                "replies", sum(m.stats.replies_sent for m in sysm.mcs)
            ),
            f"{p}.mc_reply_backlog": sum(
                len(m.reply_queue) for m in sysm.mcs
            ),
        }


class TelemetryCollector:
    """Samples all registered probes every ``interval`` cycles.

    ``on_cycle(now)`` is the hook simulators call once per cycle when a
    collector is attached; it is cycle-deduplicated so a collector shared
    by several components on one clock (request net, reply net, the GPU
    system) still samples each interval exactly once.
    """

    def __init__(
        self,
        interval: int = 100,
        sinks: Optional[Sequence[TelemetrySink]] = None,
        profiler: Optional[HostProfiler] = None,
    ) -> None:
        if interval < 1:
            raise ValueError("telemetry interval must be >= 1 cycle")
        self.interval = interval
        self.sinks: List[TelemetrySink] = (
            list(sinks) if sinks is not None else [MemorySink()]
        )
        self.profiler = profiler if profiler is not None else HostProfiler()
        self.probes: List[object] = []
        # The GPGPU system attach_system() instrumented, if any.
        self.system = None
        self.samples_taken = 0
        self._last_cycle: Optional[int] = None

    # -- probe / sink management -------------------------------------------
    def add_probe(self, probe) -> None:
        """Register any object with ``collect(now) -> Channels``."""
        self.probes.append(probe)

    def add_sink(self, sink: TelemetrySink) -> None:
        self.sinks.append(sink)

    @property
    def memory(self) -> Optional[MemorySink]:
        """The first in-memory sink, if any (rendering convenience)."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink
        return None

    # -- attachment ----------------------------------------------------------
    def attach_network(
        self, network, prefix: str = "net", drive: bool = True
    ) -> NetworkProbe:
        """Instrument one network; returns the registered probe.

        ``drive=False`` registers the probe without making the network
        call :meth:`on_cycle` — used when a higher-level clock owner (the
        GPGPU system) drives sampling at its own end-of-cycle point.
        """
        probe = NetworkProbe(network, prefix)
        self.add_probe(probe)
        original = getattr(network, "on_delivery", None)

        def chained(node, packet, now, _orig=original, _probe=probe):
            _probe.on_delivery(packet)
            if _orig is not None:
                _orig(node, packet, now)

        network.on_delivery = chained
        if drive:
            network.telemetry = self
        return probe

    def attach_system(self, system) -> None:
        """Instrument a full GPGPU system: both networks + GPU counters.

        The system drives sampling (end of its ``step()``), so snapshots
        see every component after the same whole cycle.
        """
        self.attach_network(system.request_net, "req", drive=False)
        self.attach_network(system.reply_net, "rep", drive=False)
        self.add_probe(SystemProbe(system))
        system.telemetry = self
        self.system = system

    # -- sampling ------------------------------------------------------------
    def on_cycle(self, now: int) -> None:
        if now % self.interval:
            return
        if now == self._last_cycle:
            return
        self.sample(now)

    def sample(self, now: int) -> TelemetrySample:
        """Force an immediate sample at cycle ``now``."""
        self._last_cycle = now
        channels: Channels = {}
        for probe in self.probes:
            channels.update(probe.collect(now))
        sample = TelemetrySample(now, channels)
        for sink in self.sinks:
            sink.emit(sample)
        self.samples_taken += 1
        return sample

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
