"""Tests for the experiment runner and cache."""

import dataclasses

import pytest

from repro.experiments.runner import (
    RunSpec,
    build_system,
    cache_info,
    clear_cache,
    geometric_mean,
    normalized,
)


class TestRunSpec:
    def test_key_stable(self):
        a = RunSpec("bfs", "xy-baseline")
        b = RunSpec("bfs", "xy-baseline")
        assert a.key() == b.key()

    def test_key_differs_on_any_field(self):
        # Every field but the kernel name (validated only; both names run
        # the same loop) must reach the key, or the store would serve one
        # run's result for another.
        base = RunSpec("bfs", "xy-baseline")
        keys = {base.key()}
        for field in dataclasses.fields(RunSpec):
            if field.name == "kernel":
                continue
            value = getattr(base, field.name)
            if "bool" in str(field.type):
                changed = value is None or not value
            elif "int" in str(field.type):
                changed = (value or 0) + 1
            else:
                changed = f"{value}-changed"
            spec = dataclasses.replace(base, **{field.name: changed})
            assert spec.key() not in keys, field.name
            keys.add(spec.key())
        assert len(keys) == len(dataclasses.fields(RunSpec))


class TestBuildSystem:
    def test_spec_overrides_applied(self):
        spec = RunSpec(
            "bfs", "ada-ari", mesh=4, num_vcs=2, ni_queue_flits=18,
            priority_levels=3, injection_speedup=2, warps_per_core=4,
        )
        sys_ = build_system(spec)
        assert sys_.config.mesh_width == 4
        assert sys_.config.warps_per_core == 4
        assert sys_.reply_net.config.num_vcs == 2
        assert sys_.reply_net.config.ni_queue_flits == 18
        assert sys_.reply_net.config.priority_levels == 3
        assert sys_.reply_net.config.injection_speedup == 2

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            build_system(RunSpec("quake", "xy-baseline"))


class TestRunAndCache:
    # The default store is isolated per-test by the autouse
    # ``_isolated_result_store`` fixture in conftest.py.

    def test_result_cached(self):
        from repro.experiments.api import run
        from repro.experiments.store import default_store

        spec = RunSpec("binomialOptions", "xy-baseline", cycles=120, warmup=30,
                       mesh=4, warps_per_core=4)
        r1 = run(spec)
        store = default_store()
        import os

        assert os.path.exists(
            os.path.join(store.root, spec.key()[:2], spec.key() + ".json")
        )
        r2 = run(spec)
        assert r1.instructions == r2.instructions
        assert r1.extras == r2.extras

    def test_cache_bypass(self):
        from repro.experiments.api import run
        from repro.experiments.store import default_store

        spec = RunSpec("binomialOptions", "xy-baseline", cycles=120, warmup=30,
                       mesh=4, warps_per_core=4)
        r1 = run(spec, use_cache=False)
        assert len(default_store()) == 0
        assert r1.instructions > 0

    def test_cache_info_and_clear(self):
        from repro.experiments.api import run

        spec = RunSpec("binomialOptions", "xy-baseline", cycles=120, warmup=30,
                       mesh=4, warps_per_core=4)
        run(spec)
        info = cache_info()
        assert info["entries"] == 1
        clear_cache(disk=True)
        assert cache_info()["entries"] == 0


class TestAggregation:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1.0, 1.0]) == 1.0

    def test_geometric_mean_skips_nonpositive(self):
        assert geometric_mean([0.0, 4.0]) == 4.0

    def test_normalized(self):
        from repro.gpu.system import SimulationResult

        def res(ipc):
            return SimulationResult(
                benchmark="b", scheme="s", cycles=1, core_cycles=1,
                instructions=1, ipc=ipc, mc_stall_cycles=0,
                request_latency=0, reply_latency=0, reply_traffic_share=0,
            )

        grid = {"bm": {"base": res(2.0), "ari": res(3.0)}}
        out = normalized(grid, "ipc", "base")
        assert out["bm"]["ari"] == pytest.approx(1.5)
        assert out["bm"]["base"] == 1.0
