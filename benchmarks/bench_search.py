"""Performance benchmark: the design-space search service end to end.

Not a paper figure — measures `repro.search` throughput on a fixed
hillclimb search (budget 24 over the default ARI knob triple, activity
kernel) and writes trials/sec, the cache-hit fraction of a warm re-run,
and the best-objective-vs-budget curve into
``results/host_timings/BENCH_search.json`` (git-ignored: the rates are
this host's wall clock) so the optimizer's speed and its search
*quality* can be checked on any host.

The cold pass simulates everything; the warm pass replays the identical
trial sequence against the now-populated ResultStore, so its hit
fraction must be 1.0 and its scores byte-identical — determinism and
cache accounting are asserted, not assumed.
"""

import _emit
from repro.experiments.runner import RunSpec
from repro.search import Optimizer, SearchConfig, SearchSpace, parse_objective

BUDGET = 24
BATCH = 8
BASE = dict(cycles=300, warmup=75, mesh=4, kernel="activity")
MILESTONES = (8, 16, 24)


def _config():
    base = RunSpec("bfs", "ada-ari", **BASE)
    return SearchConfig(
        space=SearchSpace.default(base),
        objective=parse_objective("min:reply_latency"),
        strategy="hillclimb",
        seed=0,
        budget=BUDGET,
        batch=BATCH,
    )


def _run():
    return Optimizer(_config()).run(baseline=True)


def _phase(report):
    trials = report.evaluated + report.pruned
    return {
        "wall_s": report.wall_s,
        "trials_per_sec": trials / report.wall_s if report.wall_s else 0.0,
        "cache_hit_fraction": (
            report.cache_hits / (report.cache_hits + report.cache_misses)
            if report.cache_hits + report.cache_misses
            else 0.0
        ),
        "executed": report.executed,
    }


def _best_curve(report):
    """Best objective score after each budget milestone."""
    curve = {}
    for stop in MILESTONES:
        best = None
        for rank, (_, score) in enumerate(report.trajectory):
            if rank < stop:
                best = score
        curve[f"best_at_{stop}"] = best
    return curve


def test_search_throughput(benchmark, save_table):
    cold = _run()
    warm = benchmark.pedantic(_run, rounds=1, iterations=1)

    # Determinism: the warm pass replays the identical search.
    assert [(t.index, t.status, t.score) for t in warm.trials] == [
        (t.index, t.status, t.score) for t in cold.trials
    ]
    assert warm.trajectory == cold.trajectory
    # And every simulation was served from the store.
    assert warm.executed == 0
    assert warm.cache_misses == 0

    cold_phase, warm_phase = _phase(cold), _phase(warm)
    payload = {
        "config": {**BASE, "batch": BATCH, "strategy": "hillclimb",
                   "objective": "min:reply_latency"},
        "budget": BUDGET,
        "space_points": _config().space.size,
        "evaluated": cold.evaluated,
        "pruned": cold.pruned,
        "cold": cold_phase,
        "warm": warm_phase,
        "best_objective": cold.best_score,
        "baseline_objective": cold.baseline_score,
        **_best_curve(cold),
    }
    _emit.write_bench_json("search", payload, _emit.HOST_DIR)

    save_table(
        "search",
        {
            "table": "\n".join(
                f"{k:6s}: {v['wall_s']:.2f}s wall, "
                f"{v['trials_per_sec']:.1f} trials/s, "
                f"{v['cache_hit_fraction']:.0%} cached"
                for k, v in (("cold", cold_phase), ("warm", warm_phase))
            )
            + f"\nbest  : {cold.best_score:.4g} vs baseline "
            f"{cold.baseline_score:.4g} "
            f"({cold.pruned} pruned of {len(cold.trials)} proposals)",
            "summary": {
                "best_objective": cold.best_score,
                "warm_trials_per_sec": warm_phase["trials_per_sec"],
            },
            "paper": "search infrastructure, not a paper figure",
        },
        _emit.HOST_DIR,
    )

    assert warm_phase["cache_hit_fraction"] == 1.0
    assert cold.evaluated == BUDGET
    assert cold.pruned > 0  # the default space exercises the pruning gate
    # Search quality: the found config must beat the paper-default base.
    assert cold.improved_on_baseline() is True
