"""Drivers that regenerate every table and figure of the paper.

Every driver returns a dict with at least:

* ``"table"`` — rendered ASCII table (the figure's underlying series);
* ``"summary"`` — the headline number(s) the paper quotes in prose;
* ``"paper"`` — what the paper reports, for EXPERIMENTS.md side-by-sides.

``scale`` selects the simulation budget: ``"smoke"`` (seconds, CI benches),
``"quick"`` (a stratified 9-benchmark subset), ``"paper"`` (all 30
benchmarks, longer windows).  ``workers`` shards each driver's run grid
across processes via :func:`repro.experiments.api.run_many` (default:
``REPRO_WORKERS`` env, serial otherwise); results are identical at any
worker count.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.energy.area import AreaModel
from repro.experiments.api import grid, run_many
from repro.experiments.report import render_grid, render_kv
from repro.experiments.runner import RunSpec, geometric_mean, normalized
from repro.noc.flit import PacketType
from repro.workloads.suite import (
    PAPER_FIG15_BENCHMARKS,
    PAPER_FIG6_BENCHMARKS,
    PAPER_FIG9_BENCHMARKS,
    benchmark_names,
)

SCALES: Dict[str, Dict[str, int]] = {
    "smoke": {"cycles": 400, "warmup": 150},
    "quick": {"cycles": 1000, "warmup": 300},
    "paper": {"cycles": 1500, "warmup": 400},
}

# Stratified subsets (3 high / 3 medium / 3 low etc.) for the cheap scales.
_SMOKE_BMS = ["bfs", "blackScholes", "scalarProd"]
_QUICK_BMS = [
    "bfs", "hotspot", "mummerGPU",
    "backprop", "blackScholes", "lavaMD",
    "scalarProd", "monteCarlo", "nn",
]


def _budget(scale: str) -> Dict[str, int]:
    try:
        return dict(SCALES[scale])
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; pick from {sorted(SCALES)}")


def _bms(scale: str, override: Optional[Sequence[str]]) -> List[str]:
    if override is not None:
        return list(override)
    if scale == "smoke":
        return list(_SMOKE_BMS)
    if scale == "quick":
        return list(_QUICK_BMS)
    return benchmark_names()


def _run_indexed(specs: Dict[object, RunSpec], workers: Optional[int]):
    """Run a labelled batch in one sharded call; returns ``label -> result``."""
    labels = list(specs)
    results = run_many([specs[l] for l in labels], workers=workers)
    return dict(zip(labels, results))


# ---------------------------------------------------------------------------
# Section 3 — understanding the bottleneck
# ---------------------------------------------------------------------------

def fig3_request_vs_reply_latency(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 3: request packets see much higher latency than reply packets
    under the 128-bit baseline (paper: 5.6x on average)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, ["xy-baseline"], workers=workers, **budget)
    rows = {}
    ratios = []
    for bm in bms:
        r = out[bm]["xy-baseline"]
        ratio = r.request_latency / r.reply_latency if r.reply_latency else 0.0
        rows[bm] = {
            "request": r.request_latency,
            "reply": r.reply_latency,
            "ratio": ratio,
        }
        if ratio > 0:
            ratios.append(ratio)
    mean_ratio = geometric_mean(ratios)
    return {
        "rows": rows,
        "summary": {"mean_request_to_reply_ratio": mean_ratio},
        "paper": {"mean_request_to_reply_ratio": 5.6},
        "table": render_grid(rows, ["request", "reply", "ratio"]),
    }


def fig4_link_width_sweep(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 4: doubling reply links helps a lot (+25.6% IPC), doubling
    request links barely (+0.8%) — the reply network is the limiter."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    schemes = ["xy-baseline", "xy-baseline-256req", "xy-baseline-256rep"]
    out = grid(bms, schemes, workers=workers, **budget)
    norm = normalized(out, "ipc", "xy-baseline")
    summary = {
        sch: geometric_mean([norm[bm][sch] for bm in bms]) for sch in schemes
    }
    return {
        "rows": norm,
        "summary": {
            "ipc_256bit_request": summary["xy-baseline-256req"],
            "ipc_256bit_reply": summary["xy-baseline-256rep"],
        },
        "paper": {"ipc_256bit_request": 1.008, "ipc_256bit_reply": 1.256},
        "table": render_grid(norm, schemes, summary=summary),
    }


def fig5_packet_type_mix(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 5: flit-weighted packet mix; reply traffic dominates (72.7%)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, ["xy-baseline"], workers=workers, **budget)
    kinds = [t.name.lower() for t in PacketType]
    rows = {}
    reply_shares = []
    for bm in bms:
        r = out[bm]["xy-baseline"]
        rows[bm] = {k: r.traffic_mix.get(k, 0.0) for k in kinds}
        reply_shares.append(r.reply_traffic_share)
    mean_reply = sum(reply_shares) / len(reply_shares) if reply_shares else 0.0
    return {
        "rows": rows,
        "summary": {"mean_reply_flit_share": mean_reply},
        "paper": {"mean_reply_flit_share": 0.727},
        "table": render_grid(rows, kinds),
    }


def fig6_queue_occupancy(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    capacities_pkts: Sequence[int] = (4, 8, 16, 32, 48, 64, 80),
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 6: NI injection queue occupancy tracks its capacity — proof that
    the injection point, not the network interior, is the bottleneck."""
    budget = _budget(scale)
    bms = list(benchmarks) if benchmarks is not None else list(PAPER_FIG6_BENCHMARKS)
    if scale == "smoke":
        bms = bms[:2]
    long_pkt = 9
    results = _run_indexed(
        {
            (bm, cap): RunSpec(
                benchmark=bm,
                scheme="xy-baseline",
                ni_queue_flits=cap * long_pkt,
                **budget,
            )
            for bm in bms
            for cap in capacities_pkts
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {
        bm: {
            str(cap): results[(bm, cap)].mean_ni_occupancy
            for cap in capacities_pkts
        }
        for bm in bms
    }
    # Tracking score: occupancy/capacity at the largest capacity.
    largest = str(max(capacities_pkts))
    tracking = {
        bm: rows[bm][largest] / max(capacities_pkts) for bm in bms
    }
    return {
        "rows": rows,
        "summary": {
            "mean_occupancy_over_capacity": sum(tracking.values()) / len(tracking)
        },
        "paper": {
            "mean_occupancy_over_capacity": "close to 1 (occupancy tracks capacity)"
        },
        "table": render_grid(rows, [str(c) for c in capacities_pkts]),
    }


def sec3_link_utilization(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Sec. 3: injection links ~4.5x busier than in-network reply links
    (paper: 0.39 vs 0.084 flits/cycle)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, ["xy-baseline"], workers=workers, **budget)
    inj = [out[bm]["xy-baseline"].injection_link_util for bm in bms]
    mesh = [out[bm]["xy-baseline"].mesh_link_util for bm in bms]
    mean_inj = sum(inj) / len(inj)
    mean_mesh = sum(mesh) / len(mesh)
    return {
        "rows": {
            bm: {"injection": i, "in_network": m}
            for bm, i, m in zip(bms, inj, mesh)
        },
        "summary": {
            "mean_injection_util": mean_inj,
            "mean_in_network_util": mean_mesh,
            "ratio": mean_inj / mean_mesh if mean_mesh else 0.0,
        },
        "paper": {
            "mean_injection_util": 0.39,
            "mean_in_network_util": 0.084,
            "ratio": 4.5,
        },
        "table": render_grid(
            {bm: {"injection": i, "in_network": m} for bm, i, m in zip(bms, inj, mesh)},
            ["injection", "in_network"],
        ),
    }


# ---------------------------------------------------------------------------
# Section 5 / 7 — ARI evaluation
# ---------------------------------------------------------------------------

def fig9_priority_levels(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    levels: Sequence[int] = (1, 2, 3, 4, 5, 6),
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 9: IPC improvement vs. number of priority levels; two levels
    capture most of the benefit."""
    budget = _budget(scale)
    bms = list(benchmarks) if benchmarks is not None else list(PAPER_FIG9_BENCHMARKS)
    results = _run_indexed(
        {
            (bm, lv): RunSpec(
                benchmark=bm, scheme="ada-ari", priority_levels=lv, **budget
            )
            for bm in bms
            for lv in levels
        },
        workers,
    )
    bases = _run_indexed(
        {
            bm: RunSpec(
                benchmark=bm, scheme="ada-ari", priority_levels=1, **budget
            )
            for bm in bms
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {
        bm: {
            str(lv): results[(bm, lv)].ipc / bases[bm].ipc - 1.0
            for lv in levels
        }
        for bm in bms
    }
    two_level = {bm: rows[bm]["2"] for bm in bms}
    return {
        "rows": rows,
        "summary": {"two_level_improvement": two_level},
        "paper": {
            "two_level_improvement": "most of the benefit at 2 levels (bfs ~+9%)"
        },
        "table": render_grid(rows, [str(l) for l in levels]),
    }


_FIG10_SCHEMES = [
    "ada-baseline", "acc-supply", "acc-consume", "acc-both", "ada-ari",
]


def fig10_supply_consume_ablation(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 10: supply-only and consume-only barely help (supply-only can
    hurt); both together give ~13.5%; priority adds the rest (ARI)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, _FIG10_SCHEMES, workers=workers, **budget)
    norm = normalized(out, "ipc", "ada-baseline")
    summary = {
        sch: geometric_mean([norm[bm][sch] for bm in bms])
        for sch in _FIG10_SCHEMES
    }
    return {
        "rows": norm,
        "summary": summary,
        "paper": {
            "acc-supply": "~1.0 or below (can hurt)",
            "acc-consume": "~1.0",
            "acc-both": 1.135,
            "ada-ari": "higher than acc-both",
        },
        "table": render_grid(norm, _FIG10_SCHEMES, summary=summary),
    }


_FIG11_SCHEMES = [
    "xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari",
]


def fig11_scheme_comparison(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 11: the headline comparison.  Paper: XY-ARI +8% over XY-Base;
    Ada-Base slightly below XY-Base; MultiPort +2% over Ada-Base;
    Ada-ARI +15.4% over Ada-Base (~1/3 of benchmarks near 1.4x)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, _FIG11_SCHEMES, workers=workers, **budget)
    norm = normalized(out, "ipc", "xy-baseline")
    summary = {
        sch: geometric_mean([norm[bm][sch] for bm in bms])
        for sch in _FIG11_SCHEMES
    }
    ada_ari_vs_ada = geometric_mean(
        [norm[bm]["ada-ari"] / norm[bm]["ada-baseline"] for bm in bms]
    )
    multiport_vs_ada = geometric_mean(
        [norm[bm]["ada-multiport"] / norm[bm]["ada-baseline"] for bm in bms]
    )
    return {
        "rows": norm,
        "summary": {
            **summary,
            "ada-ari_vs_ada-baseline": ada_ari_vs_ada,
            "ada-multiport_vs_ada-baseline": multiport_vs_ada,
        },
        "paper": {
            "xy-ari": 1.08,
            "ada-ari_vs_ada-baseline": 1.154,
            "ada-multiport_vs_ada-baseline": 1.02,
            "ada-baseline": "slightly below 1.0",
        },
        "table": render_grid(norm, _FIG11_SCHEMES, summary=summary),
    }


def fig12_mc_stall_time(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 12: data stall time in MCs (per reply, equal-work normalized).
    Paper: -47.5% (XY-ARI vs XY-Base), -67.8% (Ada-ARI vs Ada-Base)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, _FIG11_SCHEMES, workers=workers, **budget)
    norm = normalized(out, "mc_stall_per_reply", "xy-baseline")
    xy_red = []
    ada_red = []
    for bm in bms:
        row = out[bm]
        b = row["xy-baseline"].mc_stall_per_reply
        ab = row["ada-baseline"].mc_stall_per_reply
        if b > 1.0:
            xy_red.append(1.0 - row["xy-ari"].mc_stall_per_reply / b)
        if ab > 1.0:
            ada_red.append(1.0 - row["ada-ari"].mc_stall_per_reply / ab)
    summary = {
        "xy_ari_stall_reduction": sum(xy_red) / len(xy_red) if xy_red else 0.0,
        "ada_ari_stall_reduction": sum(ada_red) / len(ada_red) if ada_red else 0.0,
    }
    return {
        "rows": norm,
        "summary": summary,
        "paper": {
            "xy_ari_stall_reduction": 0.475,
            "ada_ari_stall_reduction": 0.678,
        },
        "table": render_grid(norm, _FIG11_SCHEMES),
    }


def fig13_latency_decomposition(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 13: request + reply latency per scheme.  ARI cuts the *request*
    latency too, although it changes nothing in the request network —
    confirming the bottleneck is on the reply side."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, _FIG11_SCHEMES, workers=workers, **budget)
    rows: Dict[str, Dict[str, float]] = {}
    for bm in bms:
        rows[bm] = {}
        for sch in _FIG11_SCHEMES:
            r = out[bm][sch]
            rows[bm][f"{sch}.req"] = r.request_latency
            rows[bm][f"{sch}.rep"] = r.reply_latency
    req_drop = geometric_mean(
        [
            out[bm]["ada-baseline"].request_latency
            / max(1e-9, out[bm]["ada-ari"].request_latency)
            for bm in bms
        ]
    )
    return {
        "rows": rows,
        "summary": {"request_latency_drop_ada_ari": req_drop},
        "paper": {
            "request_latency_drop_ada_ari": "considerable (ARI untouched request net)"
        },
        "table": render_grid(
            rows, [f"{s}.{p}" for s in _FIG11_SCHEMES for p in ("req", "rep")]
        ),
    }


def fig14_energy(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 14: overall energy down ~4% with ARI, driven by the static
    share of the shortened execution (equal-work: energy/instruction)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, ["ada-baseline", "ada-ari"], workers=workers, **budget)
    rows: Dict[str, Dict[str, float]] = {}
    ratios = []
    for bm in bms:
        e_base = out[bm]["ada-baseline"].extras["energy_per_instr"]
        e_ari = out[bm]["ada-ari"].extras["energy_per_instr"]
        rows[bm] = {
            "baseline": 1.0,
            "ari": e_ari / e_base if e_base else 0.0,
        }
        if e_base:
            ratios.append(e_ari / e_base)
    mean = geometric_mean(ratios)
    return {
        "rows": rows,
        "summary": {"mean_normalized_energy_ari": mean},
        "paper": {"mean_normalized_energy_ari": 0.96},
        "table": render_grid(rows, ["baseline", "ari"]),
    }


def fig15_vc_sensitivity(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 15: 2 vs 4 VCs, baseline vs ARI (speedup = VC count).  ARI
    exploits added VCs far better than the baseline."""
    budget = _budget(scale)
    bms = list(benchmarks) if benchmarks is not None else list(PAPER_FIG15_BENCHMARKS)
    if scale == "smoke":
        bms = bms[:2]
    cell_specs = [
        ("2VC-base", "ada-baseline", 2),
        ("4VC-base", "ada-baseline", 4),
        ("2VC-ARI", "ada-ari", 2),
        ("4VC-ARI", "ada-ari", 4),
    ]
    results = _run_indexed(
        {
            (bm, label): RunSpec(
                benchmark=bm,
                scheme=sch,
                num_vcs=vcs,
                injection_speedup=(vcs if "ari" in sch else None),
                num_split_queues=(vcs if "ari" in sch else None),
                **budget,
            )
            for bm in bms
            for label, sch, vcs in cell_specs
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {}
    gains = {"baseline": [], "ari": []}
    for bm in bms:
        cells = {label: results[(bm, label)].ipc for label, _, _ in cell_specs}
        base = cells["2VC-base"]
        rows[bm] = {k: v / base for k, v in cells.items()}
        gains["baseline"].append(rows[bm]["4VC-base"] / rows[bm]["2VC-base"])
        gains["ari"].append(rows[bm]["4VC-ARI"] / rows[bm]["2VC-ARI"])
    summary = {
        "vc_gain_baseline": geometric_mean(gains["baseline"]),
        "vc_gain_ari": geometric_mean(gains["ari"]),
    }
    return {
        "rows": rows,
        "summary": summary,
        "paper": {"note": "2->4 VC gain is considerably larger with ARI"},
        "table": render_grid(rows, ["2VC-base", "4VC-base", "2VC-ARI", "4VC-ARI"]),
    }


def fig16_da2mesh(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Fig. 16: ARI composes with DA2mesh (paper: +16.4% on top)."""
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(bms, ["da2mesh", "da2mesh-ari"], workers=workers, **budget)
    norm = normalized(out, "ipc", "da2mesh")
    summary = {
        "da2mesh+ari_vs_da2mesh": geometric_mean(
            [norm[bm]["da2mesh-ari"] for bm in bms]
        )
    }
    return {
        "rows": norm,
        "summary": summary,
        "paper": {"da2mesh+ari_vs_da2mesh": 1.164},
        "table": render_grid(norm, ["da2mesh", "da2mesh-ari"]),
    }


def sec75_scalability(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Sec. 7.5(2): ARI's improvement grows with mesh size
    (paper: +3.7% / +15.4% / +24.7% at 4x4 / 6x6 / 8x8).

    Reported per sensitivity class as well: in this reproduction the
    growing-with-size trend holds for the medium/low classes (whose demand
    only crosses the injection capacity on bigger meshes), while the
    high-sensitivity synthetic workloads saturate *every* mesh size and so
    show a roughly constant (capacity-ratio) gain — see EXPERIMENTS.md for
    the discussion of this deviation.
    """
    budget = _budget(scale)
    bms = _bms("smoke" if scale == "smoke" else "quick", benchmarks)
    from repro.workloads.suite import SUITE

    meshes = (4, 6, 8)
    results = _run_indexed(
        {
            (mesh, bm, sch): RunSpec(
                benchmark=bm, scheme=sch, mesh=mesh, **budget
            )
            for mesh in meshes
            for bm in bms
            for sch in ("ada-baseline", "ada-ari")
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {}
    for mesh in meshes:
        per_class: Dict[str, List[float]] = {"high": [], "medium": [], "low": []}
        for bm in bms:
            base = results[(mesh, bm, "ada-baseline")]
            ari = results[(mesh, bm, "ada-ari")]
            if base.ipc > 0:
                per_class[SUITE[bm].sensitivity].append(ari.ipc / base.ipc)
        all_vals = [v for vs in per_class.values() for v in vs]
        rows[f"{mesh}x{mesh}"] = {
            "all": geometric_mean(all_vals),
            **{
                cls: geometric_mean(vs)
                for cls, vs in per_class.items()
                if vs
            },
        }
    return {
        "rows": rows,
        "summary": {k: v["all"] for k, v in rows.items()},
        "paper": {"4x4": 1.037, "6x6": 1.154, "8x8": 1.247},
        "table": render_grid(
            rows,
            [
                c for c in ("all", "high", "medium", "low")
                if c in next(iter(rows.values()))
            ],
            row_label="mesh",
        ),
    }


def sec61_area() -> Dict:
    """Sec. 6.1: RTL area overheads (5.4% per pair, 0.7% network-wide)."""
    model = AreaModel()
    pair = model.pair_overhead()
    network = model.network_overhead()
    base = model.baseline_tile()
    ari = model.ari_tile()
    rows = {
        "baseline": base.as_dict(),
        "ari": ari.as_dict(),
    }
    return {
        "rows": rows,
        "summary": {"pair_overhead": pair, "network_overhead": network},
        "paper": {"pair_overhead": 0.054, "network_overhead": 0.007},
        "table": render_kv(
            {
                "pair_overhead": pair,
                "network_overhead": network,
                "baseline_tile_area": base.total,
                "ari_tile_area": ari.total,
            }
        ),
    }


def ext_intensity_sweep(
    scale: str = "quick",
    base_benchmark: str = "hotspot",
    multipliers: Sequence[float] = (0.05, 0.15, 0.3, 0.6, 1.0),
    workers: Optional[int] = None,
) -> Dict:
    """Extension: ARI gain vs. memory-traffic intensity.

    The paper notes (Sec. 2.2) that techniques like cache bypassing or
    WarpPool change NoC traffic intensity, and that it approximates their
    effect by evaluating benchmarks of varying NoC sensitivity.  This sweep
    makes the relationship explicit: scale one benchmark's memory rate and
    plot the ARI speedup, exposing the crossover where the injection
    bottleneck starts to bind.

    The scaled profiles exist only in this process, so this driver runs
    in-process systems directly (no spec, no cache, no pool).
    """
    from dataclasses import replace as _replace

    from repro.core.schemes import scheme as _scheme
    from repro.gpu.config import GPUConfig
    from repro.gpu.system import GPGPUSystem
    from repro.workloads.suite import benchmark as _benchmark

    budget = _budget(scale)
    base_prof = _benchmark(base_benchmark)
    rows: Dict[str, Dict[str, float]] = {}
    for mult in multipliers:
        prof = _replace(
            base_prof,
            name=f"{base_benchmark}x{mult}",
            mem_rate=min(1.0, base_prof.mem_rate * mult),
        )
        ipcs = {}
        for sch in ("ada-baseline", "ada-ari"):
            system = GPGPUSystem(GPUConfig(), _scheme(sch), prof, seed=3)
            res = system.simulate(cycles=budget["cycles"], warmup=budget["warmup"])
            ipcs[sch] = res.ipc
        rows[f"x{mult}"] = {
            "ada-baseline": ipcs["ada-baseline"],
            "ada-ari": ipcs["ada-ari"],
            "gain": (
                ipcs["ada-ari"] / ipcs["ada-baseline"]
                if ipcs["ada-baseline"]
                else 0.0
            ),
        }
    return {
        "rows": rows,
        "summary": {k: v["gain"] for k, v in rows.items()},
        "paper": {
            "note": "not a paper figure; extension probing the Sec. 2.2 "
            "traffic-intensity approximation"
        },
        "table": render_grid(
            rows, ["ada-baseline", "ada-ari", "gain"], row_label="intensity"
        ),
    }


def ext_mc_placement(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Extension: MC placement study (Table I's "diamond" choice).

    The paper adopts the diamond placement of [Abts ISCA'09] "to make a
    competitive baseline".  This study compares it with the GPGPU-Sim-style
    top/bottom-edge layout and a deliberately concentrated center-column
    layout, under the XY baseline and under ARI — showing both that diamond
    is the strongest baseline and that ARI's win is not a placement
    artifact.
    """
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    placements = ["diamond", "edge", "column"]
    results = _run_indexed(
        {
            (pl, bm, sch): RunSpec(
                benchmark=bm, scheme=sch, mc_placement=pl, **budget
            )
            for pl in placements
            for bm in bms
            for sch in ("xy-baseline", "xy-ari")
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {}
    for pl in placements:
        base_vals = [results[(pl, bm, "xy-baseline")].ipc for bm in bms]
        ari_vals = [results[(pl, bm, "xy-ari")].ipc for bm in bms]
        rows[pl] = {
            "baseline_ipc": geometric_mean(base_vals),
            "ari_ipc": geometric_mean(ari_vals),
            "ari_gain": geometric_mean(
                [a / b for a, b in zip(ari_vals, base_vals) if b > 0]
            ),
        }
    return {
        "rows": rows,
        "summary": {pl: rows[pl]["ari_gain"] for pl in placements},
        "paper": {
            "note": "Table I uses diamond placement [Abts ISCA'09] for a "
            "competitive baseline; not a paper figure"
        },
        "table": render_grid(
            rows, ["baseline_ipc", "ari_ipc", "ari_gain"], row_label="placement"
        ),
    }


def ext_hop_latency(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    latencies: Sequence[int] = (1, 2, 3),
    workers: Optional[int] = None,
) -> Dict:
    """Extension: ARI's gain vs. router pipeline depth.

    The main model uses a single-cycle router (1 cycle/hop).  Deeper
    pipelines raise zero-load latency but do not change the injection
    bandwidth mismatch, so ARI's gain should persist — this sweep checks
    that the headline result is not an artifact of the 1-cycle router.
    """
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    results = _run_indexed(
        {
            (lat, bm, sch): RunSpec(
                benchmark=bm, scheme=sch, noc_hop_latency=lat, **budget
            )
            for lat in latencies
            for bm in bms
            for sch in ("ada-baseline", "ada-ari")
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {}
    for lat in latencies:
        gains = []
        for bm in bms:
            base = results[(lat, bm, "ada-baseline")]
            ari = results[(lat, bm, "ada-ari")]
            if base.ipc:
                gains.append(ari.ipc / base.ipc)
        rows[f"{lat}cyc/hop"] = {"ada-ari_gain": geometric_mean(gains)}
    return {
        "rows": rows,
        "summary": {k: v["ada-ari_gain"] for k, v in rows.items()},
        "paper": {"note": "not a paper figure; router-depth robustness check"},
        "table": render_grid(rows, ["ada-ari_gain"], row_label="hop latency"),
    }


def ext_warp_scheduler(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Extension: ARI under GTO vs. loose-round-robin warp scheduling.

    Table I fixes greedy-then-oldest; this sweep confirms the injection
    bottleneck (and ARI's fix) is not specific to that scheduler.
    """
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    results = _run_indexed(
        {
            (sched, bm, sch): RunSpec(
                benchmark=bm, scheme=sch, warp_scheduler=sched, **budget
            )
            for sched in ("gto", "lrr")
            for bm in bms
            for sch in ("ada-baseline", "ada-ari")
        },
        workers,
    )
    rows: Dict[str, Dict[str, float]] = {}
    for sched in ("gto", "lrr"):
        gains = []
        for bm in bms:
            base = results[(sched, bm, "ada-baseline")]
            ari = results[(sched, bm, "ada-ari")]
            if base.ipc:
                gains.append(ari.ipc / base.ipc)
        rows[sched] = {"ada-ari_gain": geometric_mean(gains)}
    return {
        "rows": rows,
        "summary": {k: v["ada-ari_gain"] for k, v in rows.items()},
        "paper": {"note": "not a paper figure; scheduler robustness check"},
        "table": render_grid(rows, ["ada-ari_gain"], row_label="scheduler"),
    }


def ext_request_side_ari(
    scale: str = "quick",
    benchmarks: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
) -> Dict:
    """Extension: does ARI on the *request* network help too?

    The paper applies ARI only to the reply side and leaves the request
    network untouched.  This ablation applies the full ARI structure to
    the CC-side request injectors as well — the expected (and measured)
    answer is "no further gain": request injection is dominated by
    single-flit read packets that a 1-flit/cycle link already sustains.
    """
    budget = _budget(scale)
    bms = _bms(scale, benchmarks)
    out = grid(
        bms, ["ada-baseline", "ada-ari", "ada-ari-both"], workers=workers, **budget
    )
    norm = normalized(out, "ipc", "ada-baseline")
    summary = {
        sch: geometric_mean([norm[bm][sch] for bm in bms])
        for sch in ("ada-ari", "ada-ari-both")
    }
    return {
        "rows": norm,
        "summary": summary,
        "paper": {
            "note": "implicit in the paper: only reply-side injection is "
            "the bottleneck; request-side ARI should add ~nothing"
        },
        "table": render_grid(norm, ["ada-baseline", "ada-ari", "ada-ari-both"]),
    }


ALL_FIGURES = {
    "fig3": fig3_request_vs_reply_latency,
    "fig4": fig4_link_width_sweep,
    "fig5": fig5_packet_type_mix,
    "fig6": fig6_queue_occupancy,
    "sec3_util": sec3_link_utilization,
    "fig9": fig9_priority_levels,
    "fig10": fig10_supply_consume_ablation,
    "fig11": fig11_scheme_comparison,
    "fig12": fig12_mc_stall_time,
    "fig13": fig13_latency_decomposition,
    "fig14": fig14_energy,
    "fig15": fig15_vc_sensitivity,
    "fig16": fig16_da2mesh,
    "sec75_scalability": sec75_scalability,
    "sec61_area": sec61_area,
    "ext_intensity": ext_intensity_sweep,
    "ext_placement": ext_mc_placement,
    "ext_hop_latency": ext_hop_latency,
    "ext_scheduler": ext_warp_scheduler,
    "ext_request_ari": ext_request_side_ari,
}
