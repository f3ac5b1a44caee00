#!/usr/bin/env python
"""Design-space exploration demo: find a better ARI config than the paper's.

Runs the same budgeted search three ways over the default ARI knob
triple (injection speedup x split-queue count x starvation threshold):

1. ``random`` — the honest baseline strategy,
2. ``hillclimb`` — (mu+lambda) evolutionary search,
3. ``surrogate`` — the lightweight model-guided strategy,

each scored on reply latency (the paper's central bottleneck metric)
against the paper-default configuration, with infeasible candidates
(Eq. 2 violations, split-queue/VC mismatches) pruned by the static
checker before they cost any simulation.  All three strategies share the
content-addressed result store, so overlapping proposals are free, and
the hillclimb run persists a trial ledger which is then *resumed* to
show the replay machinery: same trajectory, zero new simulations.

Run:  PYTHONPATH=src python examples/search_demo.py
"""

import os
import shutil
import tempfile

from repro.experiments.runner import RunSpec
from repro.search import (
    Optimizer,
    SearchConfig,
    SearchSpace,
    TrialLedger,
    parse_objective,
)

BASE = RunSpec("bfs", "ada-ari", cycles=300, warmup=75, mesh=4)
BUDGET = 16
OBJECTIVE = "min:reply_latency"


def config(strategy: str) -> SearchConfig:
    return SearchConfig(
        space=SearchSpace.default(BASE),
        objective=parse_objective(OBJECTIVE),
        strategy=strategy,
        seed=0,
        budget=BUDGET,
        batch=8,
    )


def main() -> None:
    space = SearchSpace.default(BASE)
    print(f"space   : {space.size} points over")
    for line in space.describe():
        print(f"          {line}")
    print(f"objective: {OBJECTIVE}, budget {BUDGET} per strategy\n")

    workdir = tempfile.mkdtemp(prefix="search_demo_")
    ledger_path = os.path.join(workdir, "hillclimb.jsonl")
    try:
        for strategy in ("random", "hillclimb", "surrogate"):
            ledger = (
                TrialLedger(ledger_path) if strategy == "hillclimb" else None
            )
            report = Optimizer(config(strategy), ledger=ledger).run()
            verdict = "beats" if report.improved_on_baseline() else "ties"
            knobs = ", ".join(
                f"{k}={v}" for k, v in sorted(report.best_point.items())
            )
            print(f"{strategy:9s}: best {report.best_score:8.4g} "
                  f"(baseline {report.baseline_score:.4g}, {verdict}) "
                  f"[{report.pruned} pruned free] {knobs}")

        print("\nresuming the hillclimb ledger (nothing re-simulates):")
        resumed = Optimizer(
            config("hillclimb"),
            ledger=TrialLedger(ledger_path),
            resume=True,
        ).run()
        print(resumed.render())
        assert resumed.executed == 0, "replay must not re-simulate"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
