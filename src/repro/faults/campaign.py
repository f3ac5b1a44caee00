"""Degradation campaigns: how gracefully does each scheme lose links?

A campaign fans a grid of fault intensities (numbers of dead reply-mesh
links) across schemes and seeds, running every cell through
:func:`repro.experiments.api.run_many` — so cells run in parallel across
workers and land in the shared result cache exactly like any sweep.  Per
intensity the same seeded link cut is used for every scheme (a fair
comparison: ARI and the baseline lose the *same* links).

The output is a :class:`DegradationReport`: delivered fraction, reply
latency and its inflation over the scheme's own zero-fault cell, drop
counts, first-deadlock cycles, and invariant violations caught by the
per-cycle :class:`~repro.noc.validation.InvariantChecker` audit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import render_table
from repro.experiments.runner import RunSpec
from repro.faults.model import FaultPlan


@dataclass(frozen=True)
class CampaignConfig:
    """One degradation campaign: schemes x fault intensities x seeds."""

    benchmark: str = "bfs"
    schemes: Sequence[str] = ("xy-baseline", "ada-ari")
    dead_links: Sequence[int] = (0, 1, 2)
    seeds: Sequence[int] = (3,)
    cycles: int = 600
    warmup: int = 200
    mesh: int = 4
    fault_seed: int = 7          # picks *which* links die (same for all schemes)
    fault_cycle: int = 0         # onset cycle of every link fault
    duration: Optional[int] = None  # None = permanent faults
    detour: bool = True
    check_invariants: Optional[str] = "collect"
    # Extra RunSpec axes (name, values) applied as a cartesian product to
    # every cell; axis points aggregate into their (scheme, dead_links)
    # row exactly like extra seeds.  Parsed from repeated ``--axis``
    # options by repro.experiments.specgrid.
    axes: Sequence[Tuple[str, Sequence[object]]] = ()

    def plan_for(self, n_dead: int) -> FaultPlan:
        if n_dead == 0:
            return FaultPlan()
        return FaultPlan.random_links(
            n_dead,
            self.mesh,
            self.mesh,
            seed=self.fault_seed,
            cycle=self.fault_cycle,
            duration=self.duration,
        )


@dataclass
class DegradationReport:
    """Aggregated campaign outcome; one row per (scheme, dead links)."""

    benchmark: str
    config: Dict[str, object]
    rows: List[Dict[str, object]] = field(default_factory=list)

    COLUMNS = (
        "scheme",
        "dead_links",
        "delivered_fraction",
        "reply_latency",
        "latency_inflation",
        "dropped",
        "first_deadlock_cycle",
        "invariant_violations",
    )

    def row(self, scheme: str, dead_links: int) -> Optional[Dict[str, object]]:
        for r in self.rows:
            if r["scheme"] == scheme and r["dead_links"] == dead_links:
                return r
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "config": self.config,
            "rows": self.rows,
        }

    def render(self) -> str:
        body = [[r.get(c, "") for c in self.COLUMNS] for r in self.rows]
        for row in body:
            if row[6] is None:
                row[6] = "-"  # never deadlocked
        return render_table(list(self.COLUMNS), body)


class CampaignRunner:
    """Builds the spec grid for a :class:`CampaignConfig` and runs it."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config

    # -- spec construction ---------------------------------------------------
    def specs(self) -> List[Tuple[str, int, int, RunSpec]]:
        """(scheme, n_dead, seed, spec) per cell, in report order.

        Zero-fault cells use ``faults=None`` (not an empty plan), so their
        records — and cache keys — are exactly those of an ordinary run.
        """
        cfg = self.config
        overrides: List[Dict[str, object]] = [{}]
        for name, values in cfg.axes:
            overrides = [
                {**combo, name: v} for combo in overrides for v in values
            ]
        out: List[Tuple[str, int, int, RunSpec]] = []
        for scheme in cfg.schemes:
            for n_dead in cfg.dead_links:
                plan = cfg.plan_for(n_dead)
                faults = plan.format() if not plan.empty else None
                for seed in cfg.seeds:
                    for combo in overrides:
                        kwargs: Dict[str, object] = dict(
                            benchmark=cfg.benchmark,
                            scheme=scheme,
                            cycles=cfg.cycles,
                            warmup=cfg.warmup,
                            seed=seed,
                            mesh=cfg.mesh,
                            faults=faults,
                            fault_detour=(
                                cfg.detour if faults is not None else None
                            ),
                        )
                        kwargs.update(combo)  # axis values win
                        out.append((scheme, n_dead, seed, RunSpec(**kwargs)))
        return out

    # -- execution -----------------------------------------------------------
    def run(
        self,
        *,
        workers: Optional[int] = None,
        store=None,
        use_cache: bool = True,
        progress=None,
    ) -> DegradationReport:
        from repro.experiments import api

        cfg = self.config
        cells = self.specs()
        results = api.run_many(
            [spec for (_, _, _, spec) in cells],
            workers=workers,
            store=store,
            use_cache=use_cache,
            progress=progress,
            check_invariants=cfg.check_invariants,
        )

        # Group cells (scheme, n_dead) -> list of results over seeds.
        grouped: Dict[Tuple[str, int], List] = {}
        for (scheme, n_dead, _seed, _spec), result in zip(cells, results):
            grouped.setdefault((scheme, n_dead), []).append(result)

        def mean(values: Sequence[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        report = DegradationReport(
            benchmark=cfg.benchmark,
            config={
                **dataclasses.asdict(cfg),
                "schemes": list(cfg.schemes),
                "dead_links": list(cfg.dead_links),
                "seeds": list(cfg.seeds),
            },
        )
        base_latency: Dict[str, float] = {}
        for scheme in cfg.schemes:
            for n_dead in cfg.dead_links:
                batch = grouped.get((scheme, n_dead), [])
                delivered = mean(
                    [r.extras.get("delivered_fraction", 1.0) for r in batch]
                )
                latency = mean([r.reply_latency for r in batch])
                if n_dead == 0 or scheme not in base_latency:
                    base_latency.setdefault(scheme, latency)
                base = base_latency[scheme]
                deadlocks = [
                    int(r.extras["first_deadlock_cycle"])
                    for r in batch
                    if "first_deadlock_cycle" in r.extras
                ]
                report.rows.append(
                    {
                        "scheme": scheme,
                        "dead_links": n_dead,
                        "delivered_fraction": delivered,
                        "reply_latency": latency,
                        "latency_inflation": (latency / base) if base else 0.0,
                        "dropped": int(
                            sum(r.extras.get("fault_drops_total", 0.0) for r in batch)
                        ),
                        "first_deadlock_cycle": (
                            min(deadlocks) if deadlocks else None
                        ),
                        "invariant_violations": int(
                            sum(
                                r.extras.get("invariant_violations", 0.0)
                                for r in batch
                            )
                        ),
                        "ipc": mean([r.ipc for r in batch]),
                    }
                )
        return report


def run_campaign(
    config: CampaignConfig,
    *,
    workers: Optional[int] = None,
    store=None,
    use_cache: bool = True,
    progress=None,
) -> DegradationReport:
    """One-call convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(config).run(
        workers=workers, store=store, use_cache=use_cache, progress=progress
    )
