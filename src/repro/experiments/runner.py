"""Run specification and system construction, plus aggregation helpers.

:class:`RunSpec` captures everything that determines one simulation run
(its ``key()`` content-addresses the result store), and
:func:`build_system` turns a spec into a ready-to-run
:class:`~repro.gpu.system.GPGPUSystem`.

Execution lives in :mod:`repro.experiments.api` (cached single runs,
live telemetry runs, parallel batches, design-space sweeps), which runs
every spec through :func:`repro.experiments.executor.simulate_spec` and
caches in the per-run-file
:class:`~repro.experiments.store.ResultStore`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.schemes import Scheme, scheme as get_scheme
from repro.gpu.config import GPUConfig
from repro.gpu.system import GPGPUSystem, SimulationResult
from repro.workloads.suite import benchmark as get_benchmark


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one simulation run."""

    benchmark: str
    scheme: str
    cycles: int = 1500
    warmup: int = 400
    seed: int = 3
    mesh: int = 6
    num_vcs: Optional[int] = None
    ni_queue_flits: Optional[int] = None
    priority_levels: Optional[int] = None
    injection_speedup: Optional[int] = None
    num_split_queues: Optional[int] = None
    starvation_threshold: Optional[int] = None
    warps_per_core: Optional[int] = None
    mc_placement: Optional[str] = None
    warp_scheduler: Optional[str] = None
    noc_hop_latency: Optional[int] = None
    # Fault-injection plan in the repro.faults DSL (None = subsystem not
    # loaded at all); fault_detour toggles detour routing for faulted runs.
    faults: Optional[str] = None
    fault_detour: Optional[bool] = None
    # Simulation kernel backend ("reference"/"activity", see
    # repro.noc.kernel); None defers to the REPRO_KERNEL env var.
    kernel: Optional[str] = None
    # Telemetry sampling interval in cycles.  A set value routes
    # api.run() through run_live() — the run is live and never cached.
    telemetry: Optional[int] = None

    def key(self) -> str:
        payload = dataclasses.asdict(self)
        # Fields introduced after the store went content-addressed are
        # dropped while unset, so every pre-existing cache key survives.
        for name in ("faults", "fault_detour", "telemetry"):
            if payload[name] is None:
                del payload[name]
        # Kernels are byte-identical by contract (the kernel-equivalence
        # suite enforces it), so the backend never partitions the cache.
        del payload["kernel"]
        blob = json.dumps(payload, sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:20]


def _build_scheme(spec: RunSpec) -> Scheme:
    sch = get_scheme(spec.scheme)
    if spec.priority_levels is not None:
        sch = sch.with_priority_levels(spec.priority_levels)
    if spec.injection_speedup is not None:
        sch = sch.with_speedup(spec.injection_speedup)
    if spec.num_split_queues is not None:
        sch = sch.with_split_queues(spec.num_split_queues)
    if spec.starvation_threshold is not None:
        sch = sch.with_starvation_threshold(spec.starvation_threshold)
    return sch


def build_system(spec: RunSpec) -> GPGPUSystem:
    """Construct (but do not run) the system a spec describes."""
    overrides = {}
    if spec.warps_per_core is not None:
        overrides["warps_per_core"] = spec.warps_per_core
    if spec.mc_placement is not None:
        overrides["mc_placement"] = spec.mc_placement
    if spec.warp_scheduler is not None:
        overrides["warp_scheduler"] = spec.warp_scheduler
    if spec.noc_hop_latency is not None:
        overrides["noc_hop_latency"] = spec.noc_hop_latency
    config = GPUConfig.scaled(spec.mesh, **overrides)
    return GPGPUSystem(
        config,
        _build_scheme(spec),
        get_benchmark(spec.benchmark),
        seed=spec.seed,
        ni_queue_flits=spec.ni_queue_flits,
        num_vcs=spec.num_vcs,
        # Key-irrelevant by construction: kernel selection is proven
        # byte-equivalent by the kernellint rules plus the kernel
        # equivalence suite, so the cached payload cannot depend on it.
        kernel=spec.kernel,  # taint: sanitize(spec.kernel)
    )


# -- cache control (over the default ResultStore) ---------------------------

def clear_cache(disk: bool = False) -> None:
    """Drop the default store's memory layer (and files with ``disk=True``)."""
    from repro.experiments.store import default_store

    default_store().clear(disk=disk)


def cache_info() -> Dict[str, object]:
    """Entry count and location of the default result store."""
    from repro.experiments.store import default_store

    return default_store().info()


# -- aggregation ------------------------------------------------------------

def geometric_mean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalized(
    grid: Dict[str, Dict[str, SimulationResult]],
    metric: str,
    baseline: str,
) -> Dict[str, Dict[str, float]]:
    """Per-benchmark metric normalized to ``baseline``'s value."""
    out: Dict[str, Dict[str, float]] = {}
    for bm, row in grid.items():
        base = getattr(row[baseline], metric)
        out[bm] = {}
        for sch, res in row.items():
            val = getattr(res, metric)
            out[bm][sch] = (val / base) if base else 0.0
    return out
