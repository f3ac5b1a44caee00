"""SimKernel backend seam: selection, equivalence, watchdog, overhead.

The activity kernel's contract is *byte-identity* with the reference
kernel — every stat, counter and arbitration pointer must match after
any run.  These tests pin the contract on small fast grids; the heavier
``repro check --kernel-equiv`` harness covers the full scheme x traffic
x fault grid in CI.
"""

import ast
import dataclasses

import pytest

from repro.experiments.equivalence import (
    _run_network_case,
    network_snapshot,
    result_payload,
)
from repro.experiments.executor import simulate_spec
from repro.experiments.runner import RunSpec
from repro.noc import Network, NetworkConfig
from repro.noc.kernel import (
    ActivityKernel,
    ReferenceKernel,
    make_kernel,
    resolve_kernel,
)

MAIN_SCHEMES = (
    "xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari",
)

SPEC = RunSpec(
    "bfs", "ada-ari", cycles=120, warmup=30, mesh=4, warps_per_core=4,
)


class TestSelection:
    def test_default_is_reference(self):
        assert resolve_kernel(None) == "reference"
        assert isinstance(make_kernel(None), ReferenceKernel)

    def test_explicit_names(self):
        assert resolve_kernel("activity") == "activity"
        assert isinstance(make_kernel("activity"), ActivityKernel)
        assert isinstance(make_kernel("reference"), ReferenceKernel)

    def test_env_var_sets_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "activity")
        assert resolve_kernel(None) == "activity"
        net = Network(NetworkConfig(width=4, height=4))
        assert net.kernel_name == "activity"
        assert isinstance(net.kernel, ActivityKernel)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "activity")
        assert resolve_kernel("reference") == "reference"
        net = Network(NetworkConfig(width=4, height=4), kernel="reference")
        assert isinstance(net.kernel, ReferenceKernel)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel("turbo")

    def test_case_and_whitespace_normalized(self):
        assert resolve_kernel(" Activity ") == "activity"

    def test_overlay_networks_accept_kernel(self):
        from repro.noc.da2mesh import DA2MeshReplyNetwork
        from repro.noc.network import PerfectNetwork

        assert PerfectNetwork(
            NetworkConfig(width=4, height=4), kernel="activity"
        ).kernel_name == "activity"
        assert DA2MeshReplyNetwork(
            mc_nodes=[0], num_nodes=16, kernel="activity"
        ).kernel_name == "activity"


class TestNetworkEquivalence:
    @pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
    @pytest.mark.parametrize("routing", ["xy", "adaptive"])
    def test_synthetic_grids_match(self, traffic, routing):
        kwargs = dict(
            traffic=traffic, routing=routing, ni_kind="enhanced",
            mesh=4, rate=0.25, cycles=300,
        )
        ref = _run_network_case("reference", **kwargs)
        act = _run_network_case("activity", **kwargs)
        assert ref == act

    def test_split_and_multiport_nis_match(self):
        for ni_kind in ("split", "multiport", "baseline-narrow"):
            kwargs = dict(
                traffic="hotspot", routing="adaptive", ni_kind=ni_kind,
                mesh=4, rate=0.3, cycles=250,
            )
            assert (
                _run_network_case("reference", **kwargs)
                == _run_network_case("activity", **kwargs)
            ), ni_kind

    def test_auditor_removed_mid_run_matches(self):
        # An auditor forces reference cycles; once it is uninstalled the
        # activity kernel must not resume from stale activity sets.
        from repro.noc.topology import default_placement
        from repro.noc.validation import InvariantChecker
        from repro.workloads.traffic import (
            ReplyTrafficPattern,
            SyntheticTrafficGenerator,
        )

        mcs, ccs = default_placement(4, 4, 4)
        snaps = []
        for kernel in ("reference", "activity"):
            net = Network(
                NetworkConfig(
                    width=4, height=4, routing="adaptive",
                    accelerated_nodes=set(mcs),
                ),
                kernel=kernel,
            )
            gen = SyntheticTrafficGenerator(
                net, ReplyTrafficPattern(mcs, ccs, seed=2), rate=0.25, seed=3
            )
            gen.run(150)
            net.auditor = InvariantChecker(net)
            gen.run(100)
            net.auditor = None
            gen.run(250)
            snaps.append(network_snapshot(net))
        assert snaps[0] == snaps[1]

    def test_idle_network_stays_idle_and_identical(self):
        snaps = []
        for kernel in ("reference", "activity"):
            net = Network(NetworkConfig(width=4, height=4), kernel=kernel)
            for _ in range(200):
                net.step()
            snaps.append(network_snapshot(net))
        assert snaps[0] == snaps[1]

    def test_activity_kernel_skips_idle_routers(self, monkeypatch):
        from repro.noc.router import Router

        calls = {"fast": 0, "ref": 0}
        orig_fast = Router.step_fast
        orig_step = Router.step

        def count_fast(self, now):
            calls["fast"] += 1
            return orig_fast(self, now)

        def count_step(self, now):
            calls["ref"] += 1
            return orig_step(self, now)

        monkeypatch.setattr(Router, "step_fast", count_fast)
        monkeypatch.setattr(Router, "step", count_step)
        net = Network(NetworkConfig(width=4, height=4), kernel="activity")
        for _ in range(100):
            net.step()
        assert calls == {"fast": 0, "ref": 0}


class TestSystemEquivalence:
    @pytest.mark.parametrize("scheme", MAIN_SCHEMES)
    def test_schemes_match(self, scheme):
        spec = dataclasses.replace(SPEC, scheme=scheme)
        ref = result_payload(
            simulate_spec(dataclasses.replace(spec, kernel="reference"))
        )
        act = result_payload(
            simulate_spec(dataclasses.replace(spec, kernel="activity"))
        )
        assert ref == act

    def test_fault_campaign_cell_matches(self):
        # Faulted runs force the activity kernel into its reference-order
        # fallback; results must still be exact.
        spec = dataclasses.replace(
            SPEC, faults="link:r1.E@40", fault_detour=True
        )
        ref = result_payload(
            simulate_spec(dataclasses.replace(spec, kernel="reference"))
        )
        act = result_payload(
            simulate_spec(dataclasses.replace(spec, kernel="activity"))
        )
        assert ref == act

    def test_telemetry_run_matches(self):
        from repro.experiments.api import run_live

        payloads = []
        for kernel in ("reference", "activity"):
            live = run_live(
                dataclasses.replace(SPEC, kernel=kernel), interval=25
            )
            payload = result_payload(live.result)
            payload["samples"] = live.collector.samples_taken
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestWatchdog:
    @pytest.mark.parametrize("kernel", ["reference", "activity"])
    def test_ni_injection_counts_as_progress(self, kernel):
        # Regression: the deadlock watchdog must treat an NI putting flits
        # on its injection link as progress, not only router switching —
        # on the first send cycle nothing has moved inside a router yet.
        from repro.workloads.traffic import (
            ReplyTrafficPattern,
            SyntheticTrafficGenerator,
        )

        net = Network(
            NetworkConfig(width=4, height=4, accelerated_nodes={5}),
            kernel=kernel,
        )
        gen = SyntheticTrafficGenerator(
            net, ReplyTrafficPattern([5], [0, 3, 12], seed=2),
            rate=1.0, seed=3,
        )
        net._last_progress = -10
        gen.step()           # offer a packet; the NI sends this cycle
        net.step()
        assert net._last_progress == 0

    @pytest.mark.parametrize("kernel", ["reference", "activity"])
    def test_watchdog_still_trips_without_progress(self, kernel):
        net = Network(
            NetworkConfig(width=4, height=4, deadlock_cycles=50),
            kernel=kernel,
        )
        # Fake stuck in-flight traffic with no component able to move.
        net.stats.packets_offered = 1
        with pytest.raises(RuntimeError, match="no progress"):
            for _ in range(100):
                net.step()


class TestOverheadContract:
    def test_kernel_module_imports_nothing_heavy(self):
        # The reference kernel must not drag new dependencies into the
        # hot path: the kernel module imports stdlib os/typing only.
        import repro.noc.kernel as kernel_mod

        tree = ast.parse(open(kernel_mod.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert imported <= {"os", "typing", "__future__"}, imported

    def test_reference_cycle_matches_historical_loop(self):
        # The reference kernel is the old Network.step() loop verbatim:
        # it must not call into any fast-path entry points.
        names = ReferenceKernel.cycle.__code__.co_names
        assert "step_fast" not in names
        assert "step" in names
