"""The advance loop against the stage-by-stage oracle.

Every network runs one loop (``Network.step``) over the fused router
pipeline (``Router.step``) and the memoized core step
(``Core.step_core_cycle``).  Each differential test here runs the same
network or system twice — once as shipped, once with every router and
core bound to the readable pipelines in ``tests/noc/oracle.py`` — and
compares :func:`network_snapshot` / :func:`result_payload` plus the
oracle's :func:`deep_state` (arbiter pointers, credits, writer locks,
buffered flits) byte for byte.  Kernel names, the deadlock watchdog and
a few pinned faulted-run digests are covered too.
"""

import ast
import dataclasses
import hashlib
import json

import pytest

from repro.experiments import executor
from repro.experiments.equivalence import network_snapshot, result_payload
from repro.experiments.runner import RunSpec
from repro.faults import FaultInjector, FaultPlan
from repro.noc import Network, NetworkConfig
from repro.noc.flit import Packet, PacketType, packet_size_for
from repro.noc.kernel import resolve_kernel
from repro.noc.ni import NIKind
from repro.noc.topology import default_placement
from repro.workloads.traffic import ReplyTrafficPattern, SyntheticTrafficGenerator

from tests.noc.oracle import bind_oracle, deep_state

MAIN_SCHEMES = (
    "xy-baseline", "xy-ari", "ada-baseline", "ada-multiport", "ada-ari",
)

SPEC = RunSpec(
    "bfs", "ada-ari", cycles=120, warmup=30, mesh=4, warps_per_core=4,
)


class _Uniform(ReplyTrafficPattern):
    """Every node sends to every *other* node uniformly."""

    def make_packet(self, src, now, priority=0):
        dest = self.rng.choice(self.cc_nodes)
        while dest == src:
            dest = self.rng.choice(self.cc_nodes)
        if self.rng.random() < self.read_reply_fraction:
            ptype = PacketType.READ_REPLY
        else:
            ptype = PacketType.WRITE_REPLY
        size = packet_size_for(ptype, self.line_bytes, self.flit_bytes)
        return Packet(ptype, src, dest, size, created_at=now, priority=priority)


def _run_network(
    oracle,
    traffic="hotspot",
    routing="xy",
    ni_kind="enhanced",
    rate=0.25,
    cycles=300,
    plan=None,
    detour=True,
    install_at=0,
    middle=None,
    **cfg_overrides,
):
    """One synthetic-traffic run on a 4x4 mesh; returns its snapshot.

    ``plan`` is a fault-DSL string installed after ``install_at`` cycles;
    ``middle(net)`` runs after ``cycles // 2`` cycles, if given.
    """
    mesh = 4
    mcs, ccs = default_placement(mesh, mesh, 4)
    if traffic == "uniform":
        srcs = list(range(mesh * mesh))
        pattern = _Uniform(srcs, srcs, seed=2)
        accelerated = set(srcs)
    else:  # "hotspot": the paper's few-to-many reply pattern
        pattern = ReplyTrafficPattern(mcs, ccs, seed=2)
        accelerated = set(mcs)
    cfg = dict(
        width=mesh, height=mesh, routing=routing, ni_kind=NIKind(ni_kind),
        accelerated_nodes=accelerated, priority_enabled=True,
        priority_levels=4, starvation_threshold=200, injection_speedup=2,
    )
    cfg.update(cfg_overrides)
    net = Network(NetworkConfig(**cfg))
    if oracle:
        bind_oracle(net)
    gen = SyntheticTrafficGenerator(net, pattern, rate=rate, seed=3)
    hooks = []
    if plan:
        hooks.append((install_at, lambda: FaultInjector(
            net, FaultPlan.parse(plan), detour=detour
        ).install()))
    if middle:
        hooks.append((cycles // 2, lambda: middle(net)))
    done = 0
    for at, hook in sorted(hooks, key=lambda h: h[0]):
        gen.run(at - done)
        done = at
        hook()
    gen.run(cycles - done)
    snap = network_snapshot(net)
    snap["deep"] = deep_state(net)
    snap["gen"] = [gen.offered, gen.blocked, gen.stall_cycles]
    return snap


def _assert_network_matches(**kwargs):
    assert _run_network(False, **kwargs) == _run_network(True, **kwargs)


_BUILD_SYSTEM = executor.build_system


def _use_oracle(monkeypatch, oracle):
    """Make ``simulate_spec`` build systems stepped by the oracle (or not).

    Returns the list the built systems are appended to.
    """
    built = []

    def build(spec):
        system = _BUILD_SYSTEM(spec)
        if oracle:
            bind_oracle(system)
        built.append(system)
        return system

    monkeypatch.setattr(executor, "build_system", build)
    return built


def _system_payload(spec, monkeypatch, oracle, check_invariants=None):
    built = _use_oracle(monkeypatch, oracle)
    payload = result_payload(
        executor.simulate_spec(spec, check_invariants=check_invariants)
    )
    (system,) = built
    payload["deep"] = [
        deep_state(system.request_net), deep_state(system.reply_net)
    ]
    return payload


def _assert_system_matches(spec, monkeypatch, **kwargs):
    live = _system_payload(spec, monkeypatch, False, **kwargs)
    assert live == _system_payload(spec, monkeypatch, True, **kwargs)
    return live


class TestSelection:
    def test_default_is_reference(self):
        assert resolve_kernel(None) == "reference"

    def test_explicit_names(self):
        assert resolve_kernel("activity") == "activity"
        assert resolve_kernel("reference") == "reference"
        Network(NetworkConfig(width=4, height=4), kernel="activity")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            resolve_kernel("turbo")
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            Network(NetworkConfig(width=4, height=4), kernel="turbo")

    def test_case_and_whitespace_normalized(self):
        assert resolve_kernel(" Activity ") == "activity"


class TestNetworkEquivalence:
    @pytest.mark.parametrize("traffic", ["uniform", "hotspot"])
    @pytest.mark.parametrize("routing", ["xy", "adaptive"])
    def test_synthetic_grids_match(self, traffic, routing):
        _assert_network_matches(traffic=traffic, routing=routing)

    def test_split_and_multiport_nis_match(self):
        for ni_kind in ("split", "multiport", "baseline-narrow"):
            kwargs = dict(routing="adaptive", ni_kind=ni_kind, rate=0.3,
                          cycles=250)
            assert (
                _run_network(False, **kwargs) == _run_network(True, **kwargs)
            ), ni_kind

    @pytest.mark.parametrize("speedup", [1, 4])
    def test_ari_priority_and_speedup_match(self, speedup):
        # A low starvation threshold makes injection-port demotion fire.
        _assert_network_matches(
            ni_kind="split", rate=0.4, injection_speedup=speedup,
            starvation_threshold=20,
        )

    def test_telemetry_on_matches(self):
        from repro.telemetry import TelemetryCollector

        def attach(net):
            TelemetryCollector(interval=25).attach_network(net, "net")

        _assert_network_matches(routing="adaptive", middle=attach)

    def test_auditor_removed_mid_run_matches(self):
        from repro.noc.validation import InvariantChecker

        def audit_then_remove(net):
            net.auditor = InvariantChecker(net)
            for _ in range(100):
                net.step()
            net.auditor = None

        _assert_network_matches(routing="adaptive", middle=audit_then_remove)

    def test_idle_network_stays_idle_and_identical(self):
        snaps = []
        for oracle in (False, True):
            net = Network(NetworkConfig(width=4, height=4))
            if oracle:
                bind_oracle(net)
            for _ in range(200):
                net.step()
            snaps.append((network_snapshot(net), deep_state(net)))
        assert snaps[0] == snaps[1]
        assert snaps[0][0]["delivered"] == 0

    def test_deep_state_sees_what_counters_miss(self):
        # Counters agree whenever the same flits moved in total; an
        # arbiter pointer, a credit or a writer lock must still show.
        net = Network(NetworkConfig(width=4, height=4))
        for _ in range(10):
            net.step()
        router = net.routers[5]
        out = next(o for o in router.output_ports if o and o.credits)
        snap = network_snapshot(net)
        pokes = (
            lambda: setattr(router.allocator._output_arbiters[0], "_next", 1),
            lambda: out.credits.counts.__setitem__(0, 0),
            lambda: out.writer.__setitem__(0, 7),
        )
        for poke in pokes:
            deep = deep_state(net)
            poke()
            assert network_snapshot(net) == snap
            assert deep_state(net) != deep


# Fault plans per kind, timed after the mid-run install at cycle 200.
FAULT_PLANS = {
    "link": "link:r5.E@210",
    "port": "port:r6.W@220+150",
    "vc": "vc:r5.E.1@210;vc:r9.N.2@240",
    "niq": "niq:r1.0@230+100;niq:r2.0@260",
}


class TestFaultedNetworks:
    @pytest.mark.parametrize("kind", sorted(FAULT_PLANS))
    @pytest.mark.parametrize("detour", [True, False])
    @pytest.mark.parametrize("install_at", [0, 200])
    @pytest.mark.parametrize("routing", ["xy", "adaptive"])
    def test_fault_plans_match(self, kind, detour, install_at, routing):
        _assert_network_matches(
            traffic="uniform", routing=routing, rate=0.15, cycles=500,
            plan=FAULT_PLANS[kind], detour=detour, install_at=install_at,
        )

    def test_mid_run_install_rebuilds_router_wiring(self):
        # Router.step caches the routing class in its wiring tables on
        # the first cycle; installing detour routing later must drop
        # that cache, or XY routers keep skipping the detour VC rule.
        kwargs = dict(traffic="uniform", routing="xy", rate=0.15,
                      cycles=600, plan="link:r5.E@200", install_at=200)
        assert _run_network(False, **kwargs) == _run_network(True, **kwargs)


    def test_repair_wakes_head_blocked_on_pinned_port(self):
        # XY routes 4 -> 7 east along row 1, through r5's East output.
        # The port fault pins every VC of that output until cycle 60.
        # With detour off nothing recomputes the route, so the head
        # waiting at r5 is retried only because the repair's unpin
        # bumps r5's _freed counter for that output.
        def run(oracle):
            net = Network(NetworkConfig(width=4, height=4))
            if oracle:
                bind_oracle(net)
            FaultInjector(
                net, FaultPlan.parse("port:r6.W@0+60"), detour=False
            ).install()
            delivered = []
            net.on_delivery = lambda node, pkt, now: delivered.append(now)
            net.step()
            assert net.offer(4, Packet(PacketType.READ_REPLY, 4, 7, 5, 1))
            for _ in range(58):
                net.step()
            blocked_until_repair = not delivered
            for _ in range(40):
                net.step()
            return (blocked_until_repair, delivered, network_snapshot(net),
                    deep_state(net))

        live = run(False)
        assert live == run(True)
        blocked_until_repair, delivered = live[:2]
        assert blocked_until_repair
        assert len(delivered) == 1 and 60 < delivered[0] <= 70


class TestSystemEquivalence:
    @pytest.mark.parametrize("scheme", MAIN_SCHEMES)
    def test_schemes_match(self, scheme, monkeypatch):
        _assert_system_matches(
            dataclasses.replace(SPEC, scheme=scheme), monkeypatch
        )

    def test_fault_campaign_cell_matches(self, monkeypatch):
        spec = dataclasses.replace(
            SPEC, faults="link:r1.E@40", fault_detour=True
        )
        _assert_system_matches(spec, monkeypatch)

    def test_auditor_attached_matches(self, monkeypatch):
        live = _assert_system_matches(
            SPEC, monkeypatch, check_invariants="collect"
        )
        assert live["extras"]["invariant_violations"] == 0.0

    def test_telemetry_run_matches(self, monkeypatch):
        from repro.experiments.api import run_live

        payloads = []
        for oracle in (False, True):
            _use_oracle(monkeypatch, oracle)
            live = run_live(SPEC, interval=25)
            payload = result_payload(live.result)
            payload["samples"] = live.collector.samples_taken
            payloads.append(payload)
        assert payloads[0] == payloads[1]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# result_payload digests of faulted runs, recorded with the stage-by-stage
# router pipeline and the unmemoized core step (the historical reference
# loop), and reproduced by the one loop.
PINNED_FAULTED_RUNS = {
    ("xy-baseline", "link:r5.E@50", True): "ed084a8fcf3295ad",
    ("ada-ari", "port:r6.W@60+200", True): "d9090bb6bdc41fbb",
    ("xy-ari", "vc:r5.E.1@40;niq:r1.0@30+150", True): "0f44cd5a99764e02",
    ("ada-baseline", "link:r5.E@50;port:r10.S@70", False): "7da99061c11fa310",
}


@pytest.mark.parametrize(
    "scheme,plan,detour", sorted(PINNED_FAULTED_RUNS), ids=str
)
def test_pinned_faulted_run_digest(scheme, plan, detour):
    spec = dataclasses.replace(
        SPEC, scheme=scheme, faults=plan, fault_detour=detour
    )
    payload = result_payload(executor.simulate_spec(spec))
    assert _digest(payload) == PINNED_FAULTED_RUNS[(scheme, plan, detour)]


class TestWatchdog:
    @pytest.mark.parametrize("kernel", ["reference", "activity"])
    def test_ni_injection_counts_as_progress(self, kernel):
        # Regression: the deadlock watchdog must treat an NI putting flits
        # on its injection link as progress, not only router switching —
        # on the first send cycle nothing has moved inside a router yet.
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
        # The kernel-name module stays import-free: it is loaded by every
        # network and by the frozen benchmark.
        import repro.noc.kernel as kernel_mod

        tree = ast.parse(open(kernel_mod.__file__).read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        assert imported <= {"typing", "__future__"}, imported
