"""Command-line interface.

Usage::

    python -m repro list                         # benchmarks + schemes
    python -m repro run bfs ada-ari [--cycles N] [--mesh 6] [--seed S]
    python -m repro compare bfs [--cycles N]     # all 5 main schemes
    python -m repro figure fig11 [--scale quick] [--workers N]
    python -m repro sweep bfs ada-ari --axis num_vcs=2,4 \\
        --axis injection_speedup=1,2 --workers 4 # parallel design-space sweep
    python -m repro search bfs ada-ari --strategy hillclimb --budget 32 \\
        --objective min:reply_latency            # design-space exploration
    python -m repro cache [--clear]              # result-store info
    python -m repro area                         # Sec. 6.1 overheads
    python -m repro viz bfs ada-ari [--cycles N] # congestion heatmaps
    python -m repro telemetry --benchmark bfs --scheme ari \\
        --interval 100 --out out.jsonl           # time-series telemetry
    python -m repro faults --benchmark bfs --dead-links 0,1,2 \\
        --workers 2 [--json report.json]         # degradation campaign
    python -m repro check --all-schemes          # pre-run static checks
    python -m repro check --scheme ada-ari --faults link:r7.E@100 \\
        --json - [--strict] [--rule cdg-cycle]   # one config, JSON out
    python -m repro check --code src/repro       # determinism lint

The simulator's host cost is gated outside the CLI: ``make cost`` runs
``benchmarks/bench_cost.py``, which compares exact per-layer opcode
counts with a pinned table.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core.schemes import scheme_names
from repro.experiments import figures
from repro.experiments.api import run, run_live, run_many, sweep
from repro.experiments.runner import RunSpec, cache_info, clear_cache
from repro.workloads.suite import benchmark_names, by_sensitivity

MAIN_SCHEMES = [
    "xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari",
]


def _cmd_list(args: argparse.Namespace) -> int:
    print("benchmarks (by NoC sensitivity):")
    for cls, names in by_sensitivity().items():
        print(f"  {cls:7s}: {', '.join(names)}")
    print("\nschemes:")
    for name in scheme_names():
        print(f"  {name}")
    print("\nfigures:")
    print("  " + ", ".join(figures.ALL_FIGURES))
    return 0


def _print_result(res) -> None:
    print(f"benchmark   : {res.benchmark}")
    print(f"scheme      : {res.scheme}")
    print(f"IPC         : {res.ipc:.3f}")
    print(f"MC stall/rep: {res.mc_stall_per_reply:.1f} cycles")
    print(f"request lat : {res.request_latency:.1f}")
    print(f"reply lat   : {res.reply_latency:.1f}")
    print(f"reply share : {res.reply_traffic_share:.2f}")
    print(f"L2 hit rate : {res.l2_hit_rate:.2f}")


def _cmd_run(args: argparse.Namespace) -> int:
    spec = RunSpec(
        benchmark=args.benchmark,
        scheme=args.scheme,
        cycles=args.cycles,
        warmup=args.cycles // 4,
        seed=args.seed,
        mesh=args.mesh,
    )
    res = run(spec, use_cache=not args.no_cache)
    _print_result(res)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    specs = [
        RunSpec(
            benchmark=args.benchmark,
            scheme=sch,
            cycles=args.cycles,
            warmup=args.cycles // 4,
            seed=args.seed,
            mesh=args.mesh,
            )
        for sch in MAIN_SCHEMES
    ]
    results = run_many(
        specs, workers=args.workers, use_cache=not args.no_cache
    )
    base_ipc = results[0].ipc or 1.0
    print(f"{'scheme':16s}{'ipc':>8s}{'vs base':>9s}{'stall/rep':>11s}")
    for sch, res in zip(MAIN_SCHEMES, results):
        print(
            f"{sch:16s}{res.ipc:>8.3f}{res.ipc / base_ipc:>8.2f}x"
            f"{res.mc_stall_per_reply:>11.1f}"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    driver = figures.ALL_FIGURES.get(args.name)
    if driver is None:
        print(f"unknown figure {args.name!r}; options: "
              f"{', '.join(figures.ALL_FIGURES)}", file=sys.stderr)
        return 2
    kwargs = (
        {}
        if args.name == "sec61_area"
        else {"scale": args.scale, "workers": args.workers}
    )
    result = driver(**kwargs)
    print(result["table"])
    print(f"\nsummary : {result['summary']}")
    print(f"paper   : {result['paper']}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.specgrid import SpecGridError, parse_axes
    from repro.experiments.sweeps import best_by, records_to_csv

    try:
        axes = parse_axes(args.axis)
    except SpecGridError as exc:
        raise SystemExit(str(exc))
    base = RunSpec(
        benchmark=args.benchmark,
        scheme=args.scheme,
        cycles=args.cycles,
        warmup=args.cycles // 4,
        seed=args.seed,
        mesh=args.mesh,
    )
    total = 1
    for values in axes.values():
        total *= len(values)
    print(
        f"sweeping {args.benchmark}/{args.scheme}: "
        f"{' x '.join(f'{n}[{len(v)}]' for n, v in axes.items()) or 'base only'}"
        f" = {total} runs, workers={args.workers or 'auto'}"
    )

    def progress(done, n, spec, source):
        marker = {"cache": "cached", "run": "ran", "retry": "retrying"}[source]
        print(f"  [{done}/{n}] {marker}: "
              + " ".join(f"{k}={getattr(spec, k)}" for k in axes),
              flush=True)

    reports = []
    records = sweep(
        base,
        axes,
        workers=args.workers,
        use_cache=not args.no_cache,
        progress=progress if not args.quiet else None,
        on_report=reports.append,
    )
    csv = records_to_csv(records)
    print()
    print(csv)
    for rep in reports:
        print(
            f"\ncache   : {rep.cache_hits} hit(s), {rep.cache_misses} "
            f"miss(es) ({rep.cache_hit_fraction():.0%} of unique runs "
            "served from the result store)"
        )
    best = best_by(records, args.best_metric)
    if best is not None:
        print(f"\nbest by {args.best_metric}: "
              + " ".join(f"{k}={v}" for k, v in best.items()))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(csv + "\n")
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.store import default_store

    if args.clear:
        clear_cache(disk=True)
        print("cleared result store")
    info = cache_info()
    for k, v in info.items():
        print(f"{k:12s}: {v}")
    legacy = default_store().scan_legacy()
    if legacy:
        print(
            f"warning: {len(legacy)} legacy-format entr"
            f"{'y' if len(legacy) == 1 else 'ies'} no longer match the "
            "result schema and will be re-simulated on use "
            "(--clear purges them):",
            file=sys.stderr,
        )
        for key in legacy[:10]:
            print(f"  {key}", file=sys.stderr)
        if len(legacy) > 10:
            print(f"  ... and {len(legacy) - 10} more", file=sys.stderr)
    return 0


def _cmd_viz(args: argparse.Namespace) -> int:
    from repro.experiments.runner import build_system
    from repro.noc.visual import MeshRenderer

    system = build_system(
        RunSpec(
            benchmark=args.benchmark,
            scheme=args.scheme,
            cycles=args.cycles,
            seed=args.seed,
            mesh=args.mesh,
        )
    )
    system.prewarm_caches()
    system.run(args.cycles)
    print(f"benchmark={args.benchmark} scheme={args.scheme}")
    print("\n--- request network ---")
    print(MeshRenderer(system.request_net, system.mc_nodes).snapshot())
    reply = system.reply_net
    if hasattr(reply, "routers"):
        print("\n--- reply network ---")
        print(MeshRenderer(reply, system.mc_nodes).snapshot())
    else:
        print("\n--- reply overlay (DA2mesh): no mesh to render ---")
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    result = figures.sec61_area()
    print(result["table"])
    return 0


def _resolve_scheme(name: str) -> str:
    """Accept short scheme aliases: ``ari`` -> ``ada-ari`` etc."""
    names = scheme_names()
    if name in names:
        return name
    for prefix in ("ada", "xy"):
        candidate = f"{prefix}-{name}"
        if candidate in names:
            return candidate
    raise SystemExit(
        f"unknown scheme {name!r}; available: {', '.join(names)}"
    )


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import occupancy_heatmap, summary_table

    if args.interval < 1:
        raise SystemExit("--interval must be >= 1 cycle")
    spec = RunSpec(
        benchmark=args.benchmark,
        scheme=_resolve_scheme(args.scheme),
        cycles=args.cycles,
        warmup=args.cycles // 4,
        seed=args.seed,
        mesh=args.mesh,
    )
    live = run_live(
        spec,
        interval=args.interval,
        jsonl_path=args.out,
        csv_path=args.csv,
    )
    result, collector, system = live.result, live.collector, live.system
    mem = collector.memory
    print(
        f"benchmark={result.benchmark} scheme={result.scheme} "
        f"cycles={args.cycles} interval={collector.interval} "
        f"samples={collector.samples_taken}"
    )
    print("\n--- channel summaries ---")
    key_channels = [
        "rep.ni_occ_flits", "rep.inj_link_util", "rep.mesh_link_util",
        "rep.in_flight", "rep.lat_mean", "rep.lat_p95",
        "rep.speedup_extra_flits", "rep.starvation_demotions",
        "rep.priority_decays", "req.in_flight",
        "sys.mc_reply_backlog", "sys.instructions",
    ]
    present = set()
    for s in mem.samples:
        present.update(s.channels)
    print(summary_table(mem, [c for c in key_channels if c in present]))
    print("\n--- reply NI queue occupancy over time (Fig. 6 dynamic) ---")
    print(occupancy_heatmap(mem, "rep.ni_occ_flits", mc_nodes=system.mc_nodes))
    if "rep.router_occ" in present:
        print("\n--- reply router occupancy over time (hot region) ---")
        print(
            occupancy_heatmap(mem, "rep.router_occ", mc_nodes=system.mc_nodes)
        )
    print("\n--- host profiling ---")
    print(collector.profiler.format())
    if args.out:
        print(f"\nwrote JSONL telemetry to {args.out}")
    if args.csv:
        print(f"wrote CSV telemetry to {args.csv}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.specgrid import (
        SpecGridError,
        parse_axes,
        parse_ints,
    )
    from repro.faults import (
        CampaignConfig,
        FaultPlan,
        describe,
        run_campaign,
    )

    schemes = tuple(
        _resolve_scheme(s) for s in args.schemes.split(",") if s
    )
    try:
        axes = tuple(
            (name, tuple(values))
            for name, values in parse_axes(args.axis).items()
        )
        cfg = CampaignConfig(
            benchmark=args.benchmark,
            schemes=schemes,
            dead_links=parse_ints(args.dead_links),
            seeds=parse_ints(args.seeds),
            cycles=args.cycles,
            warmup=args.cycles // 3,
            mesh=args.mesh,
            fault_seed=args.fault_seed,
            fault_cycle=args.fault_cycle,
            duration=args.duration,
            detour=not args.no_detour,
            check_invariants=(
                None if args.invariants == "off" else args.invariants
            ),
                axes=axes,
        )
    except SpecGridError as exc:
        raise SystemExit(str(exc))
    if args.describe is not None:
        for line in describe(FaultPlan.parse(args.describe)):
            print(line)
        return 0
    for n in cfg.dead_links:
        plan = cfg.plan_for(n)
        if not plan.empty:
            print(f"dead_links={n}: {plan.format()}")

    def progress(done, total, spec, source):
        marker = {"cache": "cached", "run": "ran", "retry": "retrying"}[source]
        faults = spec.faults or "-"
        print(f"  [{done}/{total}] {marker}: {spec.scheme} faults={faults}",
              flush=True)

    report = run_campaign(
        cfg,
        workers=args.workers,
        use_cache=not args.no_cache,
        progress=progress if not args.quiet else None,
    )
    print()
    print(report.render())
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.staticcheck import CheckRunner, ModelInputs, Severity
    from repro.staticcheck.runner import RULES

    if args.list_rules:
        width = max(len(rid) for rid in RULES)
        for rid, (family, desc) in sorted(RULES.items()):
            print(f"{rid:{width}s}  [{family:5s}] {desc}")
        return 0

    rules = list(args.rule)
    try:
        runner = CheckRunner(rules=rules or None, strict=args.strict)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    report = None
    selected = False
    if args.all_schemes or args.scheme:
        selected = True
        names = (
            scheme_names()
            if args.all_schemes
            else [
                _resolve_scheme(s)
                for group in args.scheme
                for s in group.split(",")
                if s
            ]
        )
        kwargs = dict(
            mesh=args.mesh,
            cycles=args.cycles,
            num_vcs=args.num_vcs,
            priority_levels=args.priority_levels,
            injection_speedup=args.injection_speedup,
            num_split_queues=args.num_split_queues,
            starvation_threshold=args.starvation_threshold,
            mc_placement=args.mc_placement,
            noc_hop_latency=args.noc_hop_latency,
            faults=args.faults,
            fault_detour=not args.no_detour,
        )
        from repro.staticcheck.diagnostics import CheckReport

        report = CheckReport()
        for name in names:
            report.extend(runner.check_inputs(
                ModelInputs(scheme=name, **kwargs)
            ))
        report = report.filter(rules or None)
    if args.code:
        from repro.staticcheck import baseline as baseline_mod

        selected = True
        code_report = runner.check_paths(args.code)
        if args.update_baseline:
            target = args.baseline or baseline_mod.DEFAULT_BASELINE
            count, pruned = baseline_mod.update(target, code_report)
            print(f"wrote {target} with {count} grandfathered finding(s)")
            if pruned:
                print(f"pruned {len(pruned)} stale fingerprint(s):")
                for fp in pruned:
                    print(f"  {fp}")
            code_report = code_report.__class__()
        elif not args.no_baseline:
            source = args.baseline or baseline_mod.DEFAULT_BASELINE
            if args.baseline or os.path.exists(source):
                try:
                    grandfathered = baseline_mod.load(source)
                except ValueError as exc:
                    print(str(exc), file=sys.stderr)
                    return 2
                code_report, matched, stale = baseline_mod.apply(
                    code_report, grandfathered
                )
                if matched and not args.quiet:
                    print(
                        f"baseline {source}: {matched} grandfathered "
                        "finding(s) suppressed",
                        file=sys.stderr,
                    )
                for fp in stale:
                    print(
                        f"baseline {source}: stale entry {fp!r} no longer "
                        "matches (run --update-baseline)",
                        file=sys.stderr,
                    )
        if report is None:
            report = code_report
        else:
            report.extend(code_report)
    elif args.update_baseline:
        print("--update-baseline requires --code", file=sys.stderr)
        return 2
    if not selected:
        print(
            "nothing to check: pass --scheme/--all-schemes and/or --code "
            "(see also --list-rules)",
            file=sys.stderr,
        )
        return 2

    failed = runner.failed(report)
    if args.json is not None:
        payload = report.to_dict()
        payload["failed"] = failed
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
            print(report.summary())
    else:
        min_severity = Severity.WARNING if args.quiet else Severity.INFO
        print(report.render(min_severity))
    return 1 if failed else 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.search.cli import cmd_search

    return cmd_search(args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="ARI GPGPU-NoC reproduction (Li & Chen, IPPS 2020)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, schemes and figures")

    run_ = sub.add_parser("run", help="simulate one benchmark under one scheme")
    run_.add_argument("benchmark", choices=benchmark_names(), metavar="benchmark")
    run_.add_argument("scheme", choices=scheme_names(), metavar="scheme")

    cmp_ = sub.add_parser("compare", help="compare the five main schemes")
    cmp_.add_argument("benchmark", choices=benchmark_names(), metavar="benchmark")
    cmp_.add_argument("--workers", type=int, default=None,
                      help="parallel workers (0 = all cores)")

    swp = sub.add_parser(
        "sweep",
        help="cartesian design-space sweep over RunSpec axes, "
             "sharded across worker processes",
    )
    swp.add_argument("benchmark", choices=benchmark_names(), metavar="benchmark")
    swp.add_argument("scheme", choices=scheme_names(), metavar="scheme")
    swp.add_argument(
        "--axis", action="append", default=[], metavar="name=v1,v2",
        help="RunSpec field and values; repeatable (cartesian product)",
    )
    swp.add_argument("--workers", type=int, default=None,
                     help="parallel workers (0 = all cores)")
    swp.add_argument("--csv", default=None, help="also write records as CSV")
    swp.add_argument("--best-metric", default="ipc",
                     help="metric highlighted as the best record")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines")

    for sp in (run_, cmp_, swp):
        sp.add_argument("--cycles", type=int, default=1500)
        sp.add_argument("--mesh", type=int, default=6, choices=(4, 6, 8))
        sp.add_argument("--seed", type=int, default=3)
        sp.add_argument("--no-cache", action="store_true")

    cache = sub.add_parser("cache", help="result-store info")
    cache.add_argument("--clear", action="store_true",
                       help="delete every stored run record")

    viz = sub.add_parser("viz", help="render congestion heatmaps after a run")
    viz.add_argument("benchmark", choices=benchmark_names(), metavar="benchmark")
    viz.add_argument("scheme", choices=scheme_names(), metavar="scheme")
    viz.add_argument("--cycles", type=int, default=800)
    viz.add_argument("--mesh", type=int, default=6, choices=(4, 6, 8))
    viz.add_argument("--seed", type=int, default=3)

    fig = sub.add_parser("figure", help="regenerate one paper figure")
    fig.add_argument("name")
    fig.add_argument("--scale", default="quick", choices=sorted(figures.SCALES))
    fig.add_argument("--workers", type=int, default=None,
                     help="parallel workers (0 = all cores)")

    sub.add_parser("area", help="Sec. 6.1 area overheads")

    tel = sub.add_parser(
        "telemetry",
        help="run one benchmark with periodic telemetry sampling and "
             "render time-series summaries + occupancy heatmaps",
    )
    tel.add_argument(
        "--benchmark", required=True, choices=benchmark_names(),
        metavar="benchmark",
    )
    tel.add_argument(
        "--scheme", default="ada-ari", metavar="scheme",
        help="scheme name; short aliases allowed (ari -> ada-ari)",
    )
    tel.add_argument("--interval", type=int, default=100,
                     help="cycles between samples")
    tel.add_argument("--cycles", type=int, default=1500)
    tel.add_argument("--mesh", type=int, default=6, choices=(4, 6, 8))
    tel.add_argument("--seed", type=int, default=3)
    tel.add_argument("--out", default=None,
                     help="write the sample stream as JSONL")
    tel.add_argument("--csv", default=None,
                     help="write the sample stream as CSV")

    flt = sub.add_parser(
        "faults",
        help="fault-injection degradation campaign: kill reply-mesh links "
             "and compare how gracefully each scheme degrades",
    )
    flt.add_argument(
        "--benchmark", default="bfs", choices=benchmark_names(),
        metavar="benchmark",
    )
    flt.add_argument(
        "--schemes", default="xy-baseline,ada-ari",
        help="comma-separated scheme names (short aliases allowed)",
    )
    flt.add_argument("--dead-links", default="0,1,2", metavar="N1,N2",
                     help="fault intensities: dead reply-mesh links per cell")
    flt.add_argument("--seeds", default="3", metavar="S1,S2",
                     help="workload seeds averaged per cell")
    flt.add_argument("--cycles", type=int, default=600)
    flt.add_argument("--mesh", type=int, default=4, choices=(4, 6, 8))
    flt.add_argument("--fault-seed", type=int, default=7,
                     help="seed picking which links die (same for all schemes)")
    flt.add_argument("--fault-cycle", type=int, default=0,
                     help="onset cycle of every link fault")
    flt.add_argument("--duration", type=int, default=None,
                     help="repair faults after this many cycles (default: "
                          "permanent)")
    flt.add_argument("--no-detour", action="store_true",
                     help="disable fault-aware detour routing")
    flt.add_argument("--invariants", default="collect",
                     choices=("off", "collect", "raise"),
                     help="per-cycle flow-control auditing mode")
    flt.add_argument("--workers", type=int, default=None,
                     help="parallel workers (0 = all cores)")
    flt.add_argument("--no-cache", action="store_true")
    flt.add_argument("--json", default=None,
                     help="also write the degradation report as JSON")
    flt.add_argument("--quiet", action="store_true",
                     help="suppress per-run progress lines")
    flt.add_argument("--describe", default=None, metavar="PLAN",
                     help="explain a fault-plan DSL string and exit")
    flt.add_argument(
        "--axis", action="append", default=[], metavar="name=v1,v2",
        help="extra RunSpec axis applied to every cell (cartesian, "
             "aggregated per row like extra seeds); repeatable — same "
             "syntax as `repro sweep --axis`",
    )

    chk = sub.add_parser(
        "check",
        help="pre-simulation static checks: escape-network deadlock "
             "freedom (CDG), Eq. 1/2 sizing, queue/credit sanity, plus "
             "AST code lints (determinism, unit inference) over "
             "simulator sources",
    )
    chk.add_argument(
        "--scheme", action="append", default=[], metavar="NAME[,NAME]",
        help="scheme(s) to model-check; repeatable, aliases allowed",
    )
    chk.add_argument("--all-schemes", action="store_true",
                     help="model-check every registered scheme")
    chk.add_argument("--mesh", type=int, default=6, choices=(4, 6, 8))
    chk.add_argument("--cycles", type=int, default=1500,
                     help="run horizon used by threshold sanity rules")
    chk.add_argument("--num-vcs", type=int, default=None)
    chk.add_argument("--injection-speedup", type=int, default=None)
    chk.add_argument("--num-split-queues", type=int, default=None)
    chk.add_argument("--priority-levels", type=int, default=None)
    chk.add_argument("--starvation-threshold", type=int, default=None)
    chk.add_argument("--mc-placement", default=None,
                     choices=("diamond", "edge", "column"))
    chk.add_argument("--noc-hop-latency", type=int, default=None)
    chk.add_argument("--faults", default=None, metavar="PLAN",
                     help="fault-plan DSL to analyze per fault epoch")
    chk.add_argument("--no-detour", action="store_true",
                     help="analyze faulted epochs without detour routing")
    chk.add_argument(
        "--code", action="append", default=[], metavar="PATH",
        help="run the code lints (det/unit) over these "
             "files/dirs; repeatable",
    )
    chk.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="grandfathered-findings file for --code (default: "
             "staticcheck-baseline.json when present)",
    )
    chk.add_argument("--no-baseline", action="store_true",
                     help="ignore any baseline file; report every finding")
    chk.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from the current --code findings "
             "and treat them all as grandfathered",
    )
    chk.add_argument("--rule", action="append", default=[], metavar="ID",
                     help="only report these rule ids; repeatable")
    chk.add_argument("--strict", action="store_true",
                     help="exit non-zero on warnings too")
    chk.add_argument("--json", default=None, metavar="FILE",
                     help="write the report as JSON ('-' for stdout)")
    chk.add_argument("--quiet", action="store_true",
                     help="hide info-severity findings in text output")
    chk.add_argument("--list-rules", action="store_true",
                     help="print the rule catalog and exit")

    from repro.search.cli import add_search_parser

    add_search_parser(sub)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "cache": _cmd_cache,
        "figure": _cmd_figure,
        "area": _cmd_area,
        "viz": _cmd_viz,
        "telemetry": _cmd_telemetry,
        "faults": _cmd_faults,
        "check": _cmd_check,
        "search": _cmd_search,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
