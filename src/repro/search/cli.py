"""The ``repro search`` subcommand: design-space exploration.

Wired into :mod:`repro.cli` as one subparser::

    repro search bfs ada-ari --budget 32 --strategy hillclimb
    repro search bfs ada-ari --space injection_speedup=1..6 \\
        --space starvation_threshold=16,64,250,1000 \\
        --objective min:reply_latency --workers 4
    repro search bfs ada-ari --resume --budget 64   # extend a prior run

Every run persists a JSONL trial ledger (header + one line per trial)
under ``results/search/`` keyed by the search fingerprint; ``--resume``
replays it trial-for-trial before spending fresh budget.
"""

from __future__ import annotations

import json
import sys

from repro.experiments.runner import RunSpec
from repro.search.objectives import (
    OBJECTIVE_EXAMPLES,
    ObjectiveError,
    parse_objective,
)
from repro.search.optimizer import (
    Optimizer,
    SearchConfig,
    SearchError,
    TrialLedger,
)
from repro.search.space import SearchSpace, SearchSpaceError
from repro.search.strategy import STRATEGIES

#: Where trial ledgers live unless ``--ledger`` overrides.
DEFAULT_LEDGER_DIR = "results/search"


def add_search_parser(sub) -> None:
    """Register the ``search`` subparser on the main CLI."""
    from repro.core.schemes import scheme_names
    from repro.workloads.suite import benchmark_names

    se = sub.add_parser(
        "search",
        help="design-space exploration over the ARI knob space: seeded "
             "strategies (random/grid/hillclimb/surrogate), first-class "
             "objectives, static-check pruning, resumable trial ledger",
    )
    se.add_argument(
        "benchmark", choices=benchmark_names(), metavar="benchmark"
    )
    se.add_argument("scheme", choices=scheme_names(), metavar="scheme")
    se.add_argument(
        "--space", action="append", default=[], metavar="name=v1,v2",
        help="search axis (same grammar as sweep --axis, plus "
             "lo..hi[:step] ranges); repeatable; default: the ARI "
             "tuning triple (injection_speedup, num_split_queues, "
             "starvation_threshold)",
    )
    se.add_argument(
        "--strategy", default="random", choices=sorted(STRATEGIES),
        help="proposal strategy (default: random)",
    )
    se.add_argument(
        "--budget", type=int, default=32, metavar="N",
        help="evaluated-trial budget; pruned candidates are free "
             "(default: 32)",
    )
    se.add_argument(
        "--batch", type=int, default=8, metavar="N",
        help="candidates evaluated per round (default: 8)",
    )
    se.add_argument(
        "--objective", default="max:ipc", metavar="SPEC",
        help="what to optimize (default: max:ipc); e.g. "
             + ", ".join(repr(e) for e in OBJECTIVE_EXAMPLES[1:4]),
    )
    se.add_argument(
        "--patience", type=int, default=None, metavar="N",
        help="stop after N evaluated trials without improvement",
    )
    se.add_argument(
        "--search-seed", type=int, default=0, metavar="N",
        help="strategy RNG seed (default: 0); the full trial sequence "
             "is a pure function of space+objective+strategy+seed+batch",
    )
    se.add_argument("--workers", type=int, default=None,
                    help="parallel simulation workers (0 = all cores)")
    se.add_argument(
        "--ledger", default=None, metavar="FILE",
        help="trial-ledger path (default: "
             f"{DEFAULT_LEDGER_DIR}/search-<fingerprint>.jsonl)",
    )
    se.add_argument(
        "--resume", action="store_true",
        help="replay the ledger's recorded trials, then continue "
             "spending any remaining budget",
    )
    se.add_argument(
        "--no-baseline", action="store_true",
        help="skip the unbudgeted base-spec reference evaluation",
    )
    se.add_argument("--json", default=None, metavar="FILE",
                    help="write the full report as JSON ('-' for stdout)")
    se.add_argument("--quiet", action="store_true",
                    help="suppress per-trial progress lines")
    se.add_argument("--cycles", type=int, default=1500)
    se.add_argument("--mesh", type=int, default=6, choices=(4, 6, 8))
    se.add_argument("--seed", type=int, default=3,
                    help="simulation seed baked into every spec")
    se.add_argument("--no-cache", action="store_true")


def cmd_search(args) -> int:
    from repro.experiments.specgrid import SpecGridError

    base = RunSpec(
        benchmark=args.benchmark,
        scheme=args.scheme,
        cycles=args.cycles,
        warmup=args.cycles // 4,
        seed=args.seed,
        mesh=args.mesh,
    )
    try:
        space = (
            SearchSpace.parse(base, args.space)
            if args.space
            else SearchSpace.default(base)
        )
        objective = parse_objective(args.objective)
        config = SearchConfig(
            space=space,
            objective=objective,
            strategy=args.strategy,
            seed=args.search_seed,
            budget=args.budget,
            batch=args.batch,
            patience=args.patience,
            workers=args.workers,
            use_cache=not args.no_cache,
        )
    except (SpecGridError, SearchSpaceError, ObjectiveError, SearchError) as exc:
        raise SystemExit(str(exc))

    ledger_path = args.ledger or (
        f"{DEFAULT_LEDGER_DIR}/search-{config.fingerprint()[:12]}.jsonl"
    )
    print(
        f"searching {args.benchmark}/{args.scheme} with "
        f"{args.strategy}, objective {objective.name}, "
        f"budget {args.budget} over {space.size} points:"
    )
    for line in space.describe():
        print(f"  {line}")
    print(f"ledger  : {ledger_path}")

    def on_trial(trial, best_score):
        if args.quiet:
            return
        knobs = " ".join(f"{k}={v}" for k, v in sorted(trial.point.items()))
        if trial.status == "pruned":
            print(
                f"  [{trial.index:3d}] pruned ({', '.join(trial.pruned_rules)}): "
                f"{knobs}",
                flush=True,
            )
        else:
            tag = " (replayed)" if trial.replayed else ""
            print(
                f"  [{trial.index:3d}] score {trial.score:.6g} "
                f"(best {best_score:.6g}){tag}: {knobs}",
                flush=True,
            )

    try:
        optimizer = Optimizer(
            config,
            ledger=TrialLedger(ledger_path),
            resume=args.resume,
            on_trial=on_trial,
        )
        report = optimizer.run(baseline=not args.no_baseline)
    except SearchError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    print()
    print(report.render())
    if args.json is not None:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
    return 0
