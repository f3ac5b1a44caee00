"""Resilience benchmark: graceful degradation under dead reply-mesh links.

Not a paper figure — exercises the :mod:`repro.faults` subsystem end to
end.  A small campaign kills 0/1/2 reply-mesh links (the same seeded cut
for every scheme) under baseline XY and full ARI, with detour routing
and per-cycle invariant auditing on, and records the degradation surface
to ``results/bench_tables/BENCH_fault_degradation.json``: delivered
fraction, latency inflation, drops, first-deadlock cycles, and audit
violations per (scheme, intensity) cell.

Assertions pin the resilience contract rather than exact numbers: zero
faults deliver everything at baseline latency, faulted cells stay
deadlock-free and violation-free with detour routing, and latency never
*improves* when links die.
"""

import _emit
from repro.faults import CampaignConfig, run_campaign

CONFIG = CampaignConfig(
    benchmark="bfs",
    schemes=("xy-baseline", "ada-ari"),
    dead_links=(0, 1, 2),
    seeds=(3,),
    cycles=400,
    warmup=150,
    mesh=4,
    fault_seed=7,
    detour=True,
    check_invariants="collect",
)


def test_fault_degradation_campaign(benchmark, save_table):
    report = benchmark.pedantic(
        lambda: run_campaign(CONFIG, use_cache=False), rounds=1, iterations=1
    )

    _emit.write_bench_json("fault_degradation", report.to_dict())

    zero_cells = [r for r in report.rows if r["dead_links"] == 0]
    fault_cells = [r for r in report.rows if r["dead_links"] > 0]
    save_table(
        "fault_degradation",
        {
            "table": report.render(),
            "summary": {
                "min_delivered": min(
                    r["delivered_fraction"] for r in report.rows
                ),
                "max_inflation": max(
                    r["latency_inflation"] for r in fault_cells
                ),
                "deadlocks": sum(
                    r["first_deadlock_cycle"] is not None for r in report.rows
                ),
            },
            "paper": "resilience infrastructure, not a paper figure",
        },
    )

    assert len(report.rows) == len(CONFIG.schemes) * len(CONFIG.dead_links)
    # Zero faults: everything delivered, inflation is 1.0 by construction.
    for row in zero_cells:
        assert row["delivered_fraction"] == 1.0, row
        assert row["dropped"] == 0, row
        assert row["latency_inflation"] == 1.0, row
    # Faulted cells: detour routing keeps the mesh alive and honest —
    # deadlock-free, audit-clean, still delivering traffic.
    for row in fault_cells:
        assert row["delivered_fraction"] > 0.0, row
        assert row["first_deadlock_cycle"] is None, row
        assert row["invariant_violations"] == 0, row
        # Detours can only lengthen paths (tolerance for latency noise
        # from packets that never met a dead link).
        assert row["latency_inflation"] >= 0.95, row
