"""The benchmark's four workloads, their correctness gate and their metrics.

A workload object runs one *kernel run* — every simulation the workload
makes, under one simulation kernel — and returns a :class:`KernelRun`
with one result digest per *part* (a part is one simulation run: the
whole run, one injection rate, or one grid spec).  An operation is one
part of one kernel run; it fails when the run raises, when its digest
differs between the runs of a round, or, at the golden seed, when it
differs from ``golden.json``.

:func:`run_workload` repeats rounds until the time budget is spent and
turns them into metrics.  Every round runs the default kernel and the
other kernel, in alternating order; each metric is the median over
rounds.  With ``trace=True`` each round instead pairs an untraced and a
traced activity-kernel run and the metrics are per layer.

Run it through ``run.py``; this module only adds ``src/`` to the path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import tracer as tracing  # noqa: E402
from repro.core.schemes import scheme as get_scheme  # noqa: E402
from repro.experiments import api, executor  # noqa: E402
from repro.experiments.equivalence import network_snapshot  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    RunSpec,
    build_system,
    geometric_mean,
)
from repro.experiments.store import ResultStore  # noqa: E402
from repro.gpu.config import GPUConfig  # noqa: E402
from repro.noc import Network, NetworkConfig  # noqa: E402
from repro.noc.flit import PacketType, packet_size_for  # noqa: E402
from repro.noc.kernel import KERNELS, resolve_kernel  # noqa: E402
from repro.noc.topology import default_placement  # noqa: E402
from repro.staticcheck.runner import (  # noqa: E402
    clear_validation_cache,
    validate_spec,
)
from repro.workloads.traffic import (  # noqa: E402
    ReplyTrafficPattern,
    SyntheticTrafficGenerator,
)

CHUNK = 50              # simulated cycles per host-time sample
SETUP_PROBES = 11       # fresh interpreters timed for setup_s
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 3         # RunSpec's default seed; seed 4 is held out for claims
WORK = HERE / ".work"   # scratch result stores, inside the checkout

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "sim_cycles_per_s_ref": "cycles/s",
    "host_us_per_cycle_p50": "us",
    "runs_per_s": "runs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "noc.router.self_us_per_cycle": "us",
    "noc.router.visits_per_cycle": "visits/cycle",
    "noc.router.us_per_visit": "us",
    "noc.router.flits_per_cycle": "flits/cycle",
    "noc.router.moving_visit_frac": "ratio",
    "noc.kernel.self_us_per_cycle": "us",
    "noc.ni.self_us_per_cycle": "us",
    "noc.ni.flits_per_cycle": "flits/cycle",
    "noc.ni.offer_refused_frac": "ratio",
    "noc.ni.eject_us_per_cycle": "us",
    "gpu.core.self_us_per_cycle": "us",
    "gpu.core.us_per_call": "us",
    "gpu.core.instr_per_cycle": "instr/cycle",
    "gpu.mc.self_us_per_cycle": "us",
    "gpu.mc.stall_cycle_frac": "ratio",
    "gpu.dram.self_us_per_cycle": "us",
    "gpu.dram.row_hit_rate": "ratio",
    "gpu.cache.l2_hit_rate": "ratio",
    "gpu.system.self_us_per_cycle": "us",
    "workloads.traffic.self_us_per_cycle": "us",
    "experiments.runner.build_ms": "ms",
    "experiments.executor.simulate_s_per_run": "s",
    "experiments.executor.orchestration_frac": "ratio",
    "experiments.store.get_ms": "ms",
    "experiments.store.put_ms": "ms",
    "staticcheck.validate_ms": "ms",
    "energy.per_run_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.wrapper_ns": "ns",
}

_perf = time.perf_counter


@dataclass
class KernelRun:
    """One kernel run of a workload: digests plus host timings."""

    kernel: str                          # resolved kernel name
    digests: Dict[str, str]              # part -> result digest
    wall_s: float = 0.0                  # the whole run, as a user waits
    cycles: int = 0                      # simulated cycles in the timed window
    busy_s: float = 0.0                  # host time spent stepping them
    us_per_cycle: List[float] = field(default_factory=list)  # host samples
    sim: Dict[str, float] = field(default_factory=dict)       # simulated facts
    counters: Dict[str, int] = field(default_factory=dict)    # traced runs only
    error: Optional[str] = None          # set => every part of the run failed


def digest(payload) -> str:
    """Digest of a result with its host-only extras stripped."""
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    extras = payload.get("extras")
    if extras:
        payload["extras"] = {
            k: v for k, v in extras.items()
            if not k.endswith("_wall_s") and k != "sim_cycles_per_sec"
        }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def _timed_steps(step_n: Callable[[int], None], cycles: int, samples: List[float]) -> float:
    """Step ``cycles`` cycles in CHUNK-cycle pieces; returns host seconds."""
    busy = 0.0
    done = 0
    while done < cycles:
        n = min(CHUNK, cycles - done)
        t0 = _perf()
        step_n(n)
        dt = _perf() - t0
        busy += dt
        samples.append(dt * 1e6 / n)
        done += n
    return busy


class ChunkTimer:
    """Replaces a system's ``run`` so the measured window is timed in chunks."""

    def __init__(self, warmup: int) -> None:
        self.warmup = warmup
        self.samples: List[float] = []
        self.busy_s = 0.0

    def attach(self, system) -> None:
        def step_n(n: int) -> None:
            step = system.step  # looked up late: a tracer may wrap it
            for _ in range(n):
                step()

        def run(cycles: int) -> None:
            if system.now < self.warmup:
                step_n(cycles)
            else:
                self.busy_s += _timed_steps(step_n, cycles, self.samples)

        system.run = run


@contextlib.contextmanager
def _build_hook(timer: Optional[ChunkTimer], tracer, systems: list):
    """Patch the pipeline's ``build_system`` to time and trace new systems."""
    original = executor.build_system

    def build(spec):
        system = original(spec)
        if timer is not None:
            timer.attach(system)
        if tracer is not None:
            tracer.instrument_system(system)
            systems.append(system)
        return system

    executor.build_system = build
    try:
        yield
    finally:
        executor.build_system = original


@contextlib.contextmanager
def _scratch_store(tracer):
    """A fresh, empty result store under the benchmark directory."""
    WORK.mkdir(exist_ok=True)
    root = tempfile.mkdtemp(dir=WORK)
    try:
        store = ResultStore(root, migrate=False)
        if tracer is not None:
            tracer.instrument_store(store)
        yield store
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _pipeline_span(tracer):
    return tracer.span("bench:pipeline") if tracer else contextlib.nullcontext()


def _setup_spec(spec: RunSpec) -> None:
    validate_spec(spec)
    build_system(spec).prewarm_caches()


def _gpu_counters(systems) -> Dict[str, int]:
    """Simulated GPU-side counts summed over traced systems."""
    out = dict.fromkeys(
        ("instructions", "mc_stall_cycles", "mc_cycles", "row_hits",
         "row_total", "l2_hits", "l2_accesses"), 0
    )
    for s in systems:
        out["instructions"] += sum(c.stats.instructions for c in s.cores)
        for mc in s.mcs:
            out["mc_stall_cycles"] += mc.stats.stall_cycles
            out["mc_cycles"] += s.now
            out["row_hits"] += mc.dram.row_hits
            out["row_total"] += (
                mc.dram.row_hits + mc.dram.row_misses + mc.dram.row_conflicts
            )
            out["l2_hits"] += mc.l2.stats.hits
            out["l2_accesses"] += mc.l2.stats.accesses
    return out


# -- the four workloads -------------------------------------------------------

@dataclass(frozen=True)
class FullSystem:
    """One closed-loop full-system run (warps block on their replies),
    through the same ``api.run`` path as ``repro run`` with a cold store."""

    benchmark: str
    scheme: str
    warmup: int
    cycles: int

    def parts(self) -> Tuple[str, ...]:
        return ("run",)

    def spec(self, seed: int, kernel: Optional[str]) -> RunSpec:
        return RunSpec(
            self.benchmark, self.scheme, cycles=self.cycles,
            warmup=self.warmup, seed=seed, kernel=kernel,
        )

    def setup(self, seed: int) -> None:
        _setup_spec(self.spec(seed, None))

    def run(self, seed: int, kernel: Optional[str], tracer=None) -> KernelRun:
        spec = self.spec(seed, kernel)
        timer = ChunkTimer(spec.warmup)
        systems: list = []
        with _scratch_store(tracer) as store, _build_hook(timer, tracer, systems):
            t0 = _perf()
            with _pipeline_span(tracer):
                result = api.run(spec, store=store)
            wall = _perf() - t0
        return KernelRun(
            kernel=resolve_kernel(kernel),
            digests={"run": digest(result)},
            wall_s=wall,
            cycles=spec.cycles,
            busy_s=timer.busy_s,
            us_per_cycle=timer.samples,
            sim={"ipc": result.ipc, "reply_latency": result.reply_latency},
            counters=_gpu_counters(systems),
        )


@dataclass(frozen=True)
class NocRamp:
    """Open-loop Bernoulli reply traffic on the reply network of a scheme,
    one fresh network per injection rate (packets per MC per cycle)."""

    scheme: str
    rates: Tuple[float, ...]
    cycles: int

    def parts(self) -> Tuple[str, ...]:
        return tuple(f"rate={r}" for r in self.rates)

    def build(self, seed: int, rate: float, kernel: Optional[str]):
        """The reply network as GPGPUSystem configures it for the scheme."""
        gpu = GPUConfig()
        sch = get_scheme(self.scheme)
        ari = sch.ari
        mcs, ccs = default_placement(gpu.mesh_width, gpu.mesh_height, gpu.num_mcs)
        cfg = NetworkConfig(
            width=gpu.mesh_width,
            height=gpu.mesh_height,
            num_vcs=gpu.num_vcs,
            vc_capacity=packet_size_for(
                PacketType.READ_REPLY, gpu.line_bytes, gpu.flit_bytes
            ),
            routing=sch.routing,
            ni_queue_flits=gpu.ni_queue_flits,
            accelerated_nodes=set(mcs),
            ni_kind=sch.ni_kind,
            num_split_queues=min(ari.num_split_queues, gpu.num_vcs),
            injection_speedup=min(ari.effective_speedup, 4, gpu.num_vcs),
            num_injection_ports=sch.num_injection_ports,
            priority_enabled=ari.priority_enabled,
            priority_levels=ari.priority_levels,
            starvation_threshold=ari.starvation_threshold,
        )
        net = Network(cfg, kernel=kernel)
        gen = SyntheticTrafficGenerator(
            net,
            ReplyTrafficPattern(
                mcs, ccs, line_bytes=gpu.line_bytes,
                flit_bytes=gpu.flit_bytes, seed=seed,
            ),
            rate=rate,
            priority_levels=ari.priority_levels,
            seed=seed + 1,
        )
        return net, gen

    def setup(self, seed: int) -> None:
        self.build(seed, self.rates[0], None)

    def run(self, seed: int, kernel: Optional[str], tracer=None) -> KernelRun:
        out = KernelRun(kernel=resolve_kernel(kernel), digests={})
        t0 = _perf()
        for rate, part in zip(self.rates, self.parts()):
            net, gen = self.build(seed, rate, kernel)
            if tracer is not None:
                tracer.instrument_network(net, fold=True)
                tracer.patch(gen, "step", "workloads.traffic:step")
            out.busy_s += _timed_steps(gen.run, self.cycles, out.us_per_cycle)
            out.cycles += self.cycles
            snap = network_snapshot(net)
            snap["generator"] = [
                gen.offered, gen.blocked, gen.stall_cycles, gen.backlog_packets,
            ]
            out.digests[part] = digest(snap)
            # How far the open-loop source fell behind its schedule.
            out.sim[f"backlog_packets@{rate}"] = gen.backlog_packets
        out.wall_s = _perf() - t0
        return out


@dataclass(frozen=True)
class Fig11Grid:
    """A cold ``api.grid`` over benchmarks x schemes: validate, pool,
    build, simulate, energy and store write, as every figure pays."""

    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    warmup: int
    cycles: int
    workers: int

    #: Fig. 11 IPC ratios the paper reports (geomean over benchmarks).
    PAPER = {
        ("ada-ari", "ada-baseline"): 1.154,
        ("xy-ari", "xy-baseline"): 1.08,
        ("ada-multiport", "ada-baseline"): 1.02,
    }

    def parts(self) -> Tuple[str, ...]:
        return tuple(f"{b}/{s}" for b in self.benchmarks for s in self.schemes)

    def setup(self, seed: int) -> None:
        _setup_spec(RunSpec(
            self.benchmarks[0], self.schemes[0], cycles=self.cycles,
            warmup=self.warmup, seed=seed,
        ))

    def run(self, seed: int, kernel: Optional[str], tracer=None) -> KernelRun:
        clear_validation_cache()  # a cold gate, as in a fresh process
        systems: list = []
        hook = (
            _build_hook(None, tracer, systems) if tracer is not None
            else contextlib.nullcontext()
        )
        with _scratch_store(tracer) as store, hook:
            t0 = _perf()
            with _pipeline_span(tracer):
                grid = api.grid(
                    list(self.benchmarks), list(self.schemes),
                    workers=self.workers, store=store, cycles=self.cycles,
                    warmup=self.warmup, seed=seed, kernel=kernel,
                )
            wall = _perf() - t0
        out = KernelRun(
            kernel=resolve_kernel(kernel), digests={}, wall_s=wall,
            counters=_gpu_counters(systems),
        )
        per_run = self.warmup + self.cycles
        for b in self.benchmarks:
            for s in self.schemes:
                res = grid[b][s]
                out.digests[f"{b}/{s}"] = digest(res)
                out.cycles += per_run
                out.busy_s += res.extras["sim_wall_s"]
                out.us_per_cycle.append(res.extras["sim_wall_s"] * 1e6 / per_run)
        errors = []
        for (num, den), paper in self.PAPER.items():
            ratio = geometric_mean(
                grid[b][num].ipc / grid[b][den].ipc for b in self.benchmarks
            )
            out.sim[f"{num}/{den}"] = ratio
            errors.append(abs(ratio - paper))
        # Mean |simulated - paper| over the three ratios.  The model was
        # calibrated against the paper, so this is not held-out accuracy.
        out.sim["paper_err"] = sum(errors) / len(errors)
        if out.sim["ada-ari/ada-baseline"] <= 1.0:
            out.error = "geomean IPC of ada-ari is not above ada-baseline"
        return out


FIG11_SCHEMES = ("xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari")

WORKLOADS = {
    "fullsys-bfs-ari": FullSystem("bfs", "ada-ari", warmup=300, cycles=1500),
    "fullsys-myocyte-xy": FullSystem(
        "myocyte", "xy-baseline", warmup=300, cycles=5000
    ),
    "noc-reply-ramp": NocRamp("ada-ari", rates=(0.05, 0.15, 0.30), cycles=1500),
    "fig11-smoke": Fig11Grid(
        ("bfs", "blackScholes", "scalarProd"), FIG11_SCHEMES,
        warmup=150, cycles=400, workers=2,
    ),
}


def tiny(workload):
    """The same workload at a cycle count that finishes in seconds."""
    small = dataclasses.replace(workload, cycles=4 * CHUNK)
    if isinstance(workload, FullSystem):
        small = dataclasses.replace(small, warmup=2 * CHUNK)
    return small


# -- running, checking, measuring ---------------------------------------------

def safe_run(workload, seed: int, kernel: Optional[str], tracer=None) -> KernelRun:
    """Run one kernel run; an exception becomes a failed run."""
    # Earlier runs' systems are reference cycles; collect them now so the
    # collector does not walk them inside this run's timed window.
    gc.collect()
    try:
        return workload.run(seed, kernel, tracer=tracer)
    except Exception as exc:  # noqa: BLE001 - every failure is reported
        traceback.print_exc(file=sys.stderr)
        return KernelRun(
            kernel=resolve_kernel(kernel), digests={},
            error=f"{type(exc).__name__}: {exc}",
        )


def load_golden(name: str) -> Dict[str, str]:
    with open(GOLDEN) as fh:
        return json.load(fh)["workloads"].get(name, {})


def check(parts, runs: List[KernelRun], golden: Optional[Dict[str, str]]) -> List[str]:
    """One message per failed operation (a part of one kernel run)."""
    failures = []
    for run in runs:
        for part in parts:
            mine = run.digests.get(part)
            others = {
                o.digests.get(part) for o in runs if o is not run and not o.error
            } - {None}
            if run.error:
                why = run.error
            elif mine is None:
                why = "no result"
            elif others - {mine}:
                why = "digest differs between the runs of one round"
            elif golden is not None and golden.get(part) != mine:
                why = f"digest differs from {GOLDEN.name}"
            else:
                continue
            failures.append(f"{run.kernel} {part}: {why}")
    return failures


def repeat(seconds: float, body: Callable[[int], list]) -> List[list]:
    """Call ``body(i)`` for rounds 0, 1, ... until the next would overrun.

    At least one round runs; on a loaded host that one may overrun.
    """
    t0 = _perf()
    rounds: List[list] = []
    while True:
        rounds.append(body(len(rounds)))
        n = len(rounds)
        if (_perf() - t0) * (n + 1) / n > seconds:
            return rounds


def measure_setup(name: str, seed: int, probes: int) -> List[float]:
    """Fresh interpreter -> import -> first system built, per probe (s)."""
    values = []
    for _ in range(probes):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        ready = int(proc.stdout.split()[-1])
        values.append((ready - t0) / 1e9)
    return values


def peak_rss_mb() -> float:
    """Max resident set of this process and its children.

    Pool workers exit asynchronously after their grid; they are joined
    first, so every one of them has been reaped and counts.
    """
    for child in multiprocessing.active_children():
        child.join()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10)[-1]


def _record(name, seed, trace, rounds, parts, golden, metrics, samples, counts):
    runs = [run for rnd in rounds for run in rnd]
    failures = [f for rnd in rounds for f in check(parts, rnd, golden)]
    clean = next((r for r in runs if not r.error), None)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "rounds": len(rounds),
        "correct": not failures,
        "attempted": len(parts) * len(runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "sample_counts": counts,
        "digests": clean.digests if clean else {},
        "sim": clean.sim if clean else {},
    }


def run_workload(
    name: str, seed: int, seconds: float, *, trace: bool = False,
    small: bool = False,
) -> dict:
    """Measure one workload; returns its record (metrics, checks, samples).

    ``small`` runs the :func:`tiny` variant with one setup probe and
    skips the golden comparison (the pins are full size).
    """
    workload = WORKLOADS[name]
    if small:
        workload = tiny(workload)
    golden = load_golden(name) if seed == GOLDEN_SEED and not small else None
    if trace:
        if isinstance(workload, Fig11Grid):
            # Serial, so every span stays in the traced process.
            workload = dataclasses.replace(workload, workers=1)
        return _run_traced(name, workload, seed, seconds, golden)

    setup = measure_setup(name, seed, 1 if small else SETUP_PROBES)
    default = resolve_kernel(None)
    other = next(k for k in KERNELS if k != default)

    def body(i: int) -> list:
        order = (None, other) if i % 2 == 0 else (other, None)
        return [safe_run(workload, seed, k) for k in order]

    rounds = repeat(seconds, body)
    ok = [run for rnd in rounds for run in rnd if not run.error]
    act = [r for r in ok if r.kernel == "activity"]
    ref = [r for r in ok if r.kernel == "reference"]
    chunks = [x for r in act for x in r.us_per_cycle]
    n_parts = len(workload.parts())
    samples = {
        "setup_s": setup,
        "sim_cycles_per_s": [r.cycles / r.busy_s for r in act],
        "sim_cycles_per_s_ref": [r.cycles / r.busy_s for r in ref],
        "host_us_per_cycle_p50": [_median(r.us_per_cycle) for r in act],
        "runs_per_s": [n_parts / r.wall_s for r in ok if r.kernel == default],
        "peak_rss_mb": [peak_rss_mb()],
    }
    values = {k: _median(v) for k, v in samples.items()}
    # The median pools every chunk of every round, not round medians.
    values["host_us_per_cycle_p50"] = _median(chunks)
    counts = {k: len(v) for k, v in samples.items()}
    counts["host_us_per_cycle_p50"] = len(chunks)
    metrics = {
        k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()
    }
    record = _record(
        name, seed, False, rounds, workload.parts(), golden, metrics, samples, counts
    )
    # Printed with the metrics but not gated: host interference inflates
    # the tail far more than the median (see README.md).
    record["tail"] = {"host_us_per_cycle_p90": {
        "value": _p90(chunks), "unit": "us", "n": len(chunks),
    }}
    return record


def _run_traced(name, workload, seed, seconds, golden) -> dict:
    """Pairs of untraced and traced activity-kernel runs, alternating."""
    traced: List[Tuple[tracing.Tracer, KernelRun]] = []
    overheads: List[float] = []

    def one(with_tracer: bool) -> KernelRun:
        if not with_tracer:
            return safe_run(workload, seed, "activity")
        tr = tracing.Tracer()
        tr.instrument_pipeline()
        try:
            with tr.span("bench:op"):
                run = safe_run(workload, seed, "activity", tracer=tr)
        finally:
            tr.restore()
        traced.append((tr, run))
        return run

    def body(i: int) -> list:
        order = (False, True) if i % 2 == 0 else (True, False)
        runs = dict(zip(order, (one(t) for t in order)))
        if not (runs[False].error or runs[True].error):
            overheads.append(runs[True].wall_s / runs[False].wall_s - 1.0)
        return [runs[False], runs[True]]

    rounds = repeat(seconds, body)
    tracers = [tr for tr, _ in traced]
    counters: Dict[str, int] = {}
    for _, run in traced:
        for k, v in run.counters.items():
            counters[k] = counters.get(k, 0) + v
    values = layer_metrics(tracers, counters, _median(overheads))
    metrics = {
        k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()
    }
    record = _record(
        name, seed, True, rounds, workload.parts(), golden, metrics,
        {"trace.overhead_frac": overheads},
        {"trace.overhead_frac": len(overheads), "traced_cycles": values["cycles"]},
    )
    record["layers"] = layer_table(tracers)
    record["trace_json"] = {
        "workload": name,
        "seed": seed,
        "kernel": "activity",
        "runs": [
            {**tr.to_json(), "digests": run.digests} for tr, run in traced
        ],
    }
    return record


def _sum_stats(tracers, name: str) -> tracing.Stat:
    total = tracing.Stat()
    for tr in tracers:
        st = tr.stats.get(name)
        if st is not None:
            for k in tracing.Stat.__slots__:
                setattr(total, k, getattr(total, k) + getattr(st, k))
    return total


def _layer_ns(tracers) -> Dict[str, float]:
    """Self time per layer summed over traced runs, in ns."""
    total: Dict[str, float] = {}
    for tr in tracers:
        for layer, ns in tr.layer_self_ns().items():
            total[layer] = total.get(layer, 0.0) + ns
    return total


def layer_table(tracers) -> Dict[str, float]:
    """Self time per layer as a share of the traced wall time.

    ``unattributed`` is the rest: the benchmark's own glue between
    layer calls plus the estimated cost of the wrappers themselves.
    """
    wall = sum(tr.wall_ns() for tr in tracers)
    shares = _layer_ns(tracers)
    shares.pop("bench", None)
    attributed = sum(shares.values())
    out = {k: v / wall for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}
    out["unattributed"] = (wall - attributed) / wall if wall else 0.0
    return out


def layer_metrics(tracers, counters: Dict[str, int], overhead: float) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from traced runs."""
    cycles = sum(tr.cycles for tr in tracers)
    layer_ns = _layer_ns(tracers)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def per_cycle(layer: str) -> float:
        return ratio(layer_ns.get(layer, 0.0) / 1e3, cycles)

    def mean_ms(name: str) -> float:
        st = _sum_stats(tracers, name)
        return ratio(st.ns / 1e6, st.calls)

    router = _sum_stats(tracers, "noc.router:step")
    inject = _sum_stats(tracers, "noc.ni:inject")
    offer = _sum_stats(tracers, "noc.ni:offer")
    eject = _sum_stats(tracers, "noc.ni:eject")
    core = _sum_stats(tracers, "gpu.core:step")
    simulate = _sum_stats(tracers, "experiments.executor:simulate")
    pipeline = _sum_stats(tracers, "bench:pipeline")
    c = counters
    return {
        "cycles": cycles,
        "noc.router.self_us_per_cycle": per_cycle("noc.router"),
        "noc.router.visits_per_cycle": ratio(router.calls, cycles),
        "noc.router.us_per_visit": ratio(router.self_ns / 1e3, router.calls),
        "noc.router.flits_per_cycle": ratio(router.work, cycles),
        "noc.router.moving_visit_frac": ratio(router.hits, router.calls),
        "noc.kernel.self_us_per_cycle": per_cycle("noc.kernel"),
        "noc.ni.self_us_per_cycle": per_cycle("noc.ni"),
        "noc.ni.flits_per_cycle": ratio(inject.work, cycles),
        "noc.ni.offer_refused_frac": ratio(offer.calls - offer.hits, offer.calls),
        "noc.ni.eject_us_per_cycle": ratio(eject.self_ns / 1e3, cycles),
        "gpu.core.self_us_per_cycle": per_cycle("gpu.core"),
        "gpu.core.us_per_call": ratio(core.self_ns / 1e3, core.calls),
        "gpu.core.instr_per_cycle": ratio(c.get("instructions", 0), cycles),
        "gpu.mc.self_us_per_cycle": per_cycle("gpu.mc"),
        "gpu.mc.stall_cycle_frac": ratio(
            c.get("mc_stall_cycles", 0), c.get("mc_cycles", 0)
        ),
        "gpu.dram.self_us_per_cycle": per_cycle("gpu.dram"),
        "gpu.dram.row_hit_rate": ratio(c.get("row_hits", 0), c.get("row_total", 0)),
        "gpu.cache.l2_hit_rate": ratio(c.get("l2_hits", 0), c.get("l2_accesses", 0)),
        "gpu.system.self_us_per_cycle": per_cycle("gpu.system"),
        "workloads.traffic.self_us_per_cycle": per_cycle("workloads.traffic"),
        "experiments.runner.build_ms": mean_ms("experiments.runner:build"),
        "experiments.executor.simulate_s_per_run": mean_ms(
            "experiments.executor:simulate"
        ) / 1e3,
        "experiments.executor.orchestration_frac": ratio(
            pipeline.ns - simulate.ns, pipeline.ns
        ) if simulate.calls else 0.0,
        "experiments.store.get_ms": mean_ms("experiments.store:get"),
        "experiments.store.put_ms": mean_ms("experiments.store:put"),
        "staticcheck.validate_ms": mean_ms("staticcheck:validate"),
        "energy.per_run_ms": mean_ms("energy:per_run"),
        "trace.overhead_frac": overhead,
        "trace.wrapper_ns": _median(
            [tr.outer_ns + tr.inner_ns for tr in tracers]
        ),
    }


def update_golden() -> Dict[str, Dict[str, str]]:
    """Reference-kernel digests of every workload at the golden seed."""
    pins = {}
    for name, workload in WORKLOADS.items():
        run = workload.run(GOLDEN_SEED, "reference")
        if run.error:
            raise RuntimeError(f"{name}: {run.error}")
        pins[name] = run.digests
    with open(GOLDEN, "w") as fh:
        json.dump({"seed": GOLDEN_SEED, "workloads": pins}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return pins
