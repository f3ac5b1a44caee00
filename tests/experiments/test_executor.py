"""Tests for the process-pool sweep executor.

The simulation budget is tiny (one run ~30ms) so the parallel paths are
exercised for real — actual ProcessPoolExecutor workers — without
slowing the suite down.
"""

import dataclasses

import pytest

from repro.experiments.executor import (
    ExecutorError,
    SweepExecutor,
    resolve_workers,
    simulate_spec,
)
from repro.experiments.runner import RunSpec
from repro.experiments.store import ResultStore

BASE = dict(cycles=80, warmup=20, mesh=4, warps_per_core=4)


def _specs(n=4, scheme="xy-baseline"):
    return [
        RunSpec("binomialOptions", scheme, seed=s, **BASE)
        for s in range(1, n + 1)
    ]


def _strip_wall(result):
    d = dataclasses.asdict(result)
    for k in ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec"):
        d["extras"].pop(k, None)
    return d


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 1

    def test_zero_means_all_cores(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers(None) == 1


class TestDeterminism:
    def test_parallel_identical_to_serial(self, tmp_path):
        """Same grid, workers=1 vs workers=4: record-for-record identical."""
        specs = _specs(8)
        serial = SweepExecutor(
            workers=1, store=ResultStore(str(tmp_path / "serial"))
        ).run_many(specs)
        parallel = SweepExecutor(
            workers=4, store=ResultStore(str(tmp_path / "parallel"))
        ).run_many(specs)
        assert [_strip_wall(r) for r in serial] == [
            _strip_wall(r) for r in parallel
        ]

    def test_results_in_input_order(self, tmp_path):
        specs = _specs(6)
        results = SweepExecutor(
            workers=3, store=ResultStore(str(tmp_path / "s")), chunk_size=1
        ).run_many(list(reversed(specs)))
        # seed is the only varying field; order must match the input.
        assert [r.extras is not None for r in results] == [True] * 6
        direct = [simulate_spec(s) for s in reversed(specs)]
        assert [_strip_wall(r) for r in results] == [
            _strip_wall(r) for r in direct
        ]


class TestCacheAndDedup:
    def test_cache_hits_on_second_batch(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        specs = _specs(3)
        first = SweepExecutor(workers=1, store=store)
        first.run_many(specs)
        assert first.report.executed == 3
        second = SweepExecutor(workers=1, store=store)
        second.run_many(specs)
        assert second.report.cache_hits == 3
        assert second.report.executed == 0

    def test_cache_misses_and_hit_fraction(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        specs = _specs(4)
        first = SweepExecutor(workers=1, store=store)
        first.run_many(specs)
        assert first.report.cache_misses == 4
        assert first.report.cache_hit_fraction() == 0.0
        second = SweepExecutor(workers=1, store=store)
        second.run_many(specs + _specs(6)[4:])
        assert second.report.cache_hits == 4
        assert second.report.cache_misses == 2
        assert second.report.cache_hit_fraction() == pytest.approx(4 / 6)
        summary = second.report.summary()
        assert summary["cache_misses"] == 2
        assert summary["cache_hit_fraction"] == pytest.approx(4 / 6)

    def test_duplicate_specs_run_once(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        spec = _specs(1)[0]
        ex = SweepExecutor(workers=1, store=store)
        results = ex.run_many([spec, spec, spec])
        assert len(results) == 3
        assert ex.report.executed == 1
        assert ex.report.deduplicated == 2
        assert _strip_wall(results[0]) == _strip_wall(results[2])

    def test_use_cache_false_never_touches_store(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        ex = SweepExecutor(workers=1, store=store, use_cache=False)
        ex.run_many(_specs(2))
        assert len(store) == 0

    def test_raise_mode_audits_despite_warm_cache(self, tmp_path):
        # A cached record proves nothing about invariants: a batch asked
        # to raise on violations re-simulates under audit.
        from repro.experiments import api

        store = ResultStore(str(tmp_path / "s"))
        spec = _specs(1)[0]
        api.run_many([spec], store=store)
        assert spec.key() in store
        (result,) = api.run_many([spec], store=store, check_invariants=True)
        assert "invariant_violations" in result.extras


class TestRetry:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_crash_is_retried(self, tmp_path, monkeypatch, workers):
        """Every spec's first attempt raises; retries recover all of them."""
        fault_dir = tmp_path / "faults"
        fault_dir.mkdir()
        monkeypatch.setenv("REPRO_EXECUTOR_FAULT_DIR", str(fault_dir))
        specs = _specs(3)
        ex = SweepExecutor(
            workers=workers, store=ResultStore(str(tmp_path / "s")), retries=2
        )
        results = ex.run_many(specs)
        assert len(results) == 3
        assert all(r.instructions > 0 for r in results)
        assert ex.report.retried >= 1
        # Recovered output matches an unfaulted serial run.
        monkeypatch.delenv("REPRO_EXECUTOR_FAULT_DIR")
        clean = [simulate_spec(s) for s in specs]
        assert [_strip_wall(r) for r in results] == [
            _strip_wall(r) for r in clean
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_permanent_failure_raises_with_spec(self, tmp_path, workers):
        bad = RunSpec("no-such-benchmark", "ada-ari", **BASE)
        ex = SweepExecutor(
            workers=workers, store=ResultStore(str(tmp_path / "s")), retries=1
        )
        with pytest.raises(ExecutorError) as excinfo:
            ex.run_many([bad] + _specs(1))
        assert excinfo.value.spec.benchmark == "no-such-benchmark"


class TestObservability:
    def test_progress_callback_sources(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        specs = _specs(2)
        SweepExecutor(workers=1, store=store).run_many(specs[:1])
        seen = []
        SweepExecutor(
            workers=1,
            store=store,
            progress=lambda done, total, spec, source: seen.append(
                (done, total, source)
            ),
        ).run_many(specs)
        assert (1, 2, "cache") in seen
        assert (2, 2, "run") in seen

    def test_profiler_and_report(self, tmp_path):
        ex = SweepExecutor(workers=1, store=ResultStore(str(tmp_path / "s")))
        ex.run_many(_specs(2))
        summary = ex.report.summary()
        assert summary["total"] == 2
        assert summary["executed"] == 2
        assert summary["sim_cycles"] == 2 * (80 + 20)
        assert summary["cycles_per_sec"] > 0
        assert ex.profiler.phase_seconds("sweep") > 0
        assert ex.profiler.counters["runs"] == 2

    def test_telemetry_sink_receives_exec_channels(self, tmp_path):
        from repro.telemetry import MemorySink

        sink = MemorySink()
        SweepExecutor(
            workers=1, store=ResultStore(str(tmp_path / "s")), sink=sink
        ).run_many(_specs(2))
        assert len(sink.samples) == 2
        last = sink.samples[-1].channels
        assert last["exec.done"] == 2
        assert last["exec.total"] == 2

    def test_empty_batch(self, tmp_path):
        ex = SweepExecutor(workers=4, store=ResultStore(str(tmp_path / "s")))
        assert ex.run_many([]) == []
        assert ex.report.total == 0
