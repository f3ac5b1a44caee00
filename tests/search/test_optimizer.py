"""Optimizer loop: determinism, pruning, budget, ledger resume, caching.

These tests run real (tiny) simulations — 80 cycles on a 4x4 mesh — so
the full propose/prune/evaluate/score path is
exercised, not a mock of it.
"""

import json

import pytest

from repro.experiments.runner import RunSpec
from repro.search.objectives import parse_objective
from repro.search.optimizer import (
    Optimizer,
    SearchConfig,
    SearchError,
    Trial,
    TrialLedger,
)
from repro.search.space import SearchSpace

BASE = RunSpec("bfs", "ada-ari", cycles=80, warmup=20, mesh=4)


def config(**over):
    defaults = dict(
        space=SearchSpace.default(BASE),
        objective=parse_objective("max:ipc"),
        strategy="hillclimb",
        seed=0,
        budget=6,
        batch=3,
    )
    defaults.update(over)
    return SearchConfig(**defaults)


def trail(report):
    """The comparable essence of a run: per-trial tuples + trajectory."""
    return (
        [
            (t.index, t.status, json.dumps(t.point, sort_keys=True),
             t.score, t.pruned_rules)
            for t in report.trials
        ],
        report.trajectory,
    )


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        a = Optimizer(config()).run(baseline=False)
        b = Optimizer(config()).run(baseline=False)
        assert trail(a) == trail(b)
        assert a.best_point == b.best_point

    def test_parallel_equals_serial(self):
        serial = Optimizer(config()).run(baseline=False)
        parallel = Optimizer(config(workers=2)).run(baseline=False)
        assert trail(serial) == trail(parallel)

    @pytest.mark.parametrize("strategy", ["random", "evolutionary"])
    def test_seeded_strategies_replay(self, strategy):
        a = Optimizer(config(strategy=strategy, seed=11)).run(baseline=False)
        b = Optimizer(config(strategy=strategy, seed=11)).run(baseline=False)
        assert trail(a) == trail(b)


class TestPruning:
    def test_invalid_candidates_cost_no_budget(self):
        # The default space deliberately includes speedup=6 (beyond the
        # Eq. 2 bound) and split_queues=6 (beyond the VC count); in grid
        # order the first split_queues=6 block sits at proposals 12-15.
        report = Optimizer(config(strategy="grid", budget=14, batch=7)).run(
            baseline=False
        )
        assert report.evaluated == 14
        assert report.pruned > 0
        ok = [t for t in report.trials if t.status == "ok"]
        pruned = [t for t in report.trials if t.status == "pruned"]
        assert len(ok) == 14
        assert len(report.trials) == 14 + len(pruned)
        for t in pruned:
            assert t.score is None
            assert t.pruned_rules  # names the violated rule(s)
            assert t.spec_keys == []  # never reached the executor

    def test_pruned_rules_are_the_staticcheck_ids(self):
        report = Optimizer(config(strategy="grid", budget=14, batch=7)).run(
            baseline=False
        )
        rules = set()
        for t in report.trials:
            rules.update(t.pruned_rules)
        assert rules <= {"eq2-bound", "split-queues", "mc-degree"}
        assert rules


class TestBudgetAndTrajectory:
    def test_trajectory_is_monotone_and_indexed(self):
        report = Optimizer(config(budget=8, batch=4)).run(baseline=False)
        scores = [s for _, s in report.trajectory]
        assert scores == sorted(scores) or all(
            b >= a for a, b in zip(scores, scores[1:])
        )
        assert len(report.trajectory) == report.evaluated
        indices = [i for i, _ in report.trajectory]
        assert indices == sorted(indices)

    def test_patience_stops_early(self):
        report = Optimizer(
            config(strategy="grid", budget=40, batch=4, patience=6)
        ).run(baseline=False)
        assert report.stop_reason == "patience"
        assert report.evaluated < 40

    def test_space_exhaustion_stops_cleanly(self):
        space = SearchSpace.from_axes(BASE, {"injection_speedup": [1, 2]})
        report = Optimizer(
            config(space=space, strategy="grid", budget=10, batch=4)
        ).run(baseline=False)
        assert report.stop_reason == "exhausted"
        assert report.evaluated == 2


class TestCaching:
    def test_second_run_is_served_from_the_store(self):
        first = Optimizer(config()).run(baseline=False)
        second = Optimizer(config()).run(baseline=False)
        assert first.cache_misses > 0
        assert second.cache_hits == first.cache_hits + first.cache_misses
        assert second.cache_misses == 0
        assert second.executed == 0
        ok = [t for t in second.trials if t.status == "ok"]
        assert all(t.cache_hits == len(t.spec_keys) for t in ok)


class TestLedgerResume:
    def test_resume_replays_identically(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        first = Optimizer(config(), ledger=TrialLedger(path)).run(
            baseline=False
        )
        resumed = Optimizer(
            config(), ledger=TrialLedger(path), resume=True
        ).run(baseline=False)
        assert trail(first) == trail(resumed)
        assert resumed.replayed == len(first.trials)
        assert resumed.executed == 0  # nothing re-simulated from replay

    def test_resume_extends_the_budget(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        first = Optimizer(
            config(budget=6, batch=3), ledger=TrialLedger(path)
        ).run(baseline=False)
        extended = Optimizer(
            config(budget=12, batch=3), ledger=TrialLedger(path), resume=True
        ).run(baseline=False)
        assert trail(first)[0] == trail(extended)[0][: len(first.trials)]
        assert extended.evaluated == 12
        # One straight budget-12 run proposes the identical sequence.
        straight = Optimizer(config(budget=12, batch=3)).run(baseline=False)
        assert trail(straight) == trail(extended)
        # The extended ledger now replays the full 12-trial run.
        again = Optimizer(
            config(budget=12, batch=3), ledger=TrialLedger(path), resume=True
        ).run(baseline=False)
        assert trail(again) == trail(extended)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        Optimizer(config(seed=0), ledger=TrialLedger(path)).run(
            baseline=False
        )
        with pytest.raises(SearchError, match="different search"):
            Optimizer(
                config(seed=1), ledger=TrialLedger(path), resume=True
            ).run(baseline=False)

    def test_resume_without_ledger_file_fails(self, tmp_path):
        with pytest.raises(SearchError, match="no ledger"):
            Optimizer(
                config(),
                ledger=TrialLedger(str(tmp_path / "missing.jsonl")),
                resume=True,
            )

    def test_ledger_lines_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        report = Optimizer(config(), ledger=TrialLedger(path)).run(
            baseline=False
        )
        trials = TrialLedger(path).load(config())
        assert [t.index for t in trials] == [t.index for t in report.trials]
        assert all(isinstance(t, Trial) for t in trials)


class TestBaselineAndReport:
    def test_search_beats_the_paper_default_baseline(self):
        # Acceptance: on a fixed seed with budget <= 64, the search must
        # find a config beating the paper-default ARI spec on the chosen
        # objective (reply latency here; at this tiny scale several
        # configs tie the baseline on IPC but strictly beat its latency).
        report = Optimizer(
            config(objective=parse_objective("min:reply_latency"),
                   strategy="hillclimb", budget=24, batch=8)
        ).run(baseline=True)
        assert report.baseline_score is not None
        assert report.improved_on_baseline() is True

    def test_report_serializes_and_renders(self):
        report = Optimizer(config()).run(baseline=True)
        payload = report.to_dict()
        json.dumps(payload)  # must be JSON-clean
        assert payload["evaluated"] == report.evaluated
        text = report.render()
        assert "best" in text and "baseline" in text
