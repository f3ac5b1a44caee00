"""Kernel-equivalence harness: prove the activity kernel changes nothing.

The :class:`~repro.noc.kernel.ActivityKernel` promises *byte-identical*
results to the :class:`~repro.noc.kernel.ReferenceKernel` — same stats,
same per-router counters, same arbitration state.  This module checks
that promise end to end and powers ``repro check --kernel-equiv``:

* **network cases** — a synthetic-traffic grid (uniform many-to-many and
  the paper's few-to-many reply hotspot, under XY and minimal-adaptive
  routing, across NI kinds) run once per kernel; the diff covers the
  :class:`~repro.noc.stats.NetworkStats` summary *and* internal state
  (per-router switch/injection/starvation/decay counters and VA
  round-robin pointers, NI stats, per-link counters);
* **system cases** — full :class:`~repro.gpu.system.GPGPUSystem` runs
  over every main scheme, one fault-injection campaign cell, and one
  telemetry-instrumented run; the diff covers the whole
  :class:`~repro.gpu.system.SimulationResult` except the wall-clock
  extras (``build_wall_s``, ``sim_wall_s``, ``sim_cycles_per_sec``),
  which legitimately differ between runs.

Runs always bypass the result store: cache keys deliberately exclude the
kernel (byte-identity is the contract), so a cached record would
short-circuit the very comparison this harness exists to make.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import RunSpec

#: Wall-clock extras that differ run to run and are excluded from diffs.
WALL_CLOCK_EXTRAS = ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec")

MAIN_SCHEMES = (
    "xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari",
)


@dataclasses.dataclass
class CaseResult:
    """Outcome of one reference-vs-activity comparison."""

    name: str
    ok: bool
    diffs: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class EquivalenceReport:
    cases: List[CaseResult] = dataclasses.field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = []
        for case in self.cases:
            mark = "ok  " if case.ok else "FAIL"
            lines.append(f"{mark} {case.name}")
            for d in case.diffs[:8]:
                lines.append(f"       {d}")
            if len(case.diffs) > 8:
                lines.append(f"       ... and {len(case.diffs) - 8} more")
        lines.append(
            f"{len(self.cases)} case(s), {len(self.failures)} failure(s)"
        )
        return "\n".join(lines)


def _diff(ref: Dict, act: Dict, prefix: str = "") -> List[str]:
    """Recursive dict/value diff as ``path: ref != act`` strings."""
    out: List[str] = []
    if isinstance(ref, dict) and isinstance(act, dict):
        for k in sorted(set(ref) | set(act)):
            if k not in ref:
                out.append(f"{prefix}{k}: missing in reference")
            elif k not in act:
                out.append(f"{prefix}{k}: missing in activity")
            else:
                out.extend(_diff(ref[k], act[k], f"{prefix}{k}."))
        return out
    if ref != act:
        out.append(f"{prefix[:-1]}: ref={ref!r} act={act!r}")
    return out


# -- network-level cases -----------------------------------------------------

def network_snapshot(net) -> Dict[str, object]:
    """Deep observable state of a network after a run.

    Includes arbitration pointers, so the activity kernel must call
    ``sync()`` first (done here) to fast-forward sleeping routers.
    """
    sync = getattr(net.kernel, "sync", None)
    if sync is not None:
        sync(net)
    return {
        "cycles": net.now,
        "summary": net.stats.summary(),
        "offered": net.stats.packets_offered,
        "delivered": net.stats.packets_delivered,
        "routers": {
            str(r.router_id): [
                r.flits_switched, r.flits_injected, r.starvation_demotions,
                r.priority_decays, r.speedup_extra_flits, r._va_rr,
            ]
            for r in net.routers
        },
        "nis": {
            str(i): [
                ni.stats.flits_sent, ni.stats.packets_accepted,
                ni.stats.packets_rejected, ni.stats.occupancy_sum,
                ni.stats.occupancy_max, ni.stats.occupancy_samples,
            ]
            for i, ni in enumerate(net.nis)
        },
        "links": [
            [lk.flits_carried, lk.busy_cycles]
            for r in net.routers
            for lk in r.input_links
            if lk is not None and not hasattr(lk, "links")
        ],
    }


def _run_network_case(
    kernel: str,
    traffic: str,
    routing: str,
    ni_kind: str,
    mesh: int,
    rate: float,
    cycles: int,
) -> Dict[str, object]:
    from repro.noc import Network, NetworkConfig
    from repro.noc.ni import NIKind
    from repro.noc.topology import default_placement
    from repro.workloads.traffic import (
        ReplyTrafficPattern,
        SyntheticTrafficGenerator,
    )

    mcs, ccs = default_placement(mesh, mesh, max(2, mesh * mesh // 4))
    if traffic == "uniform":
        from repro.noc.flit import Packet, PacketType, packet_size_for

        srcs = list(range(mesh * mesh))

        class _Uniform(ReplyTrafficPattern):
            # Every node sends to every *other* node uniformly.
            def make_packet(self, src, now, priority=0):
                dest = self.rng.choice(self.cc_nodes)
                while dest == src:
                    dest = self.rng.choice(self.cc_nodes)
                if self.rng.random() < self.read_reply_fraction:
                    ptype = PacketType.READ_REPLY
                else:
                    ptype = PacketType.WRITE_REPLY
                size = packet_size_for(ptype, self.line_bytes, self.flit_bytes)
                return Packet(
                    ptype, src, dest, size, created_at=now, priority=priority
                )

        pattern = _Uniform(srcs, srcs, seed=2)
        accelerated = set(srcs)
    else:  # "hotspot": the paper's few-to-many reply pattern
        pattern = ReplyTrafficPattern(mcs, ccs, seed=2)
        accelerated = set(mcs)
    cfg = NetworkConfig(
        width=mesh,
        height=mesh,
        routing=routing,
        ni_kind=NIKind(ni_kind),
        accelerated_nodes=accelerated,
        priority_enabled=True,
        priority_levels=4,
        starvation_threshold=200,
        injection_speedup=2,
    )
    net = Network(cfg, kernel=kernel)
    gen = SyntheticTrafficGenerator(net, pattern, rate=rate, seed=3)
    gen.run(cycles)
    snap = network_snapshot(net)
    snap["gen"] = [gen.offered, gen.blocked, gen.stall_cycles]
    return snap


def network_cases(quick: bool = True) -> List[Tuple[str, Dict[str, object]]]:
    """(name, kwargs) grid for the network-level comparisons."""
    mesh = 4 if quick else 6
    cycles = 400 if quick else 1200
    ni_kinds = (
        ("enhanced", "multiport") if quick
        else ("baseline-narrow", "enhanced", "split", "multiport")
    )
    cases = []
    for traffic in ("uniform", "hotspot"):
        for routing in ("xy", "adaptive"):
            for ni_kind in ni_kinds:
                name = f"net/{traffic}/{routing}/{ni_kind}"
                cases.append((name, dict(
                    traffic=traffic, routing=routing, ni_kind=ni_kind,
                    mesh=mesh, rate=0.25, cycles=cycles,
                )))
    return cases


# -- system-level cases ------------------------------------------------------

def result_payload(result) -> Dict[str, object]:
    """A SimulationResult as a diffable dict, wall-clock extras removed."""
    payload = dataclasses.asdict(result)
    extras = dict(payload.get("extras", {}))
    for key in WALL_CLOCK_EXTRAS:
        extras.pop(key, None)
    payload["extras"] = extras
    return payload


def _run_system_case(spec: RunSpec, kernel: str, telemetry: bool) -> Dict[str, object]:
    from repro.experiments.executor import simulate_spec

    collector = None
    if telemetry:
        from repro.telemetry import TelemetryCollector

        collector = TelemetryCollector(interval=50)
    result = simulate_spec(replace(spec, kernel=kernel), collector=collector)
    payload = result_payload(result)
    if collector is not None:
        payload["telemetry_samples"] = collector.samples_taken
    return payload


def system_cases(quick: bool = True) -> List[Tuple[str, RunSpec, bool]]:
    """(name, spec, telemetry) triples for the system-level comparisons."""
    cycles = 240 if quick else 800
    mesh = 4 if quick else 6
    base = RunSpec(
        benchmark="bfs", scheme="ada-ari",
        cycles=cycles, warmup=cycles // 4, mesh=mesh,
    )
    schemes = ("xy-baseline", "ada-ari") if quick else MAIN_SCHEMES
    cases: List[Tuple[str, RunSpec, bool]] = [
        (f"sys/{sch}/bfs", replace(base, scheme=sch), False)
        for sch in schemes
    ]
    # One fault-campaign cell: the activity kernel must fall back to
    # reference-order visiting and still match exactly.
    cases.append((
        "sys/ada-ari/bfs+faults",
        replace(base, faults="link:r1.E@40", fault_detour=True),
        False,
    ))
    # One telemetry-instrumented run: per-cycle sampling obligations must
    # fire on schedule in both kernels.
    cases.append(("sys/ada-ari/bfs+telemetry", base, True))
    return cases


# -- driver ------------------------------------------------------------------

def run_equivalence(
    quick: bool = True,
    progress=None,
) -> EquivalenceReport:
    """Run the full grid under both kernels and diff every observable."""
    report = EquivalenceReport()

    def record(name: str, ref: Dict, act: Dict) -> None:
        diffs = _diff(ref, act)
        report.cases.append(CaseResult(name=name, ok=not diffs, diffs=diffs))
        if progress is not None:
            progress(report.cases[-1])

    for name, kwargs in network_cases(quick):
        ref = _run_network_case("reference", **kwargs)
        act = _run_network_case("activity", **kwargs)
        record(name, ref, act)

    for name, spec, telemetry in system_cases(quick):
        ref = _run_system_case(spec, "reference", telemetry)
        act = _run_system_case(spec, "activity", telemetry)
        record(name, ref, act)

    return report
