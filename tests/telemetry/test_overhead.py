"""The zero-overhead-when-detached contract.

ISSUE requirement: with no collector attached, the hot path must pay
nothing beyond a single ``is None`` check at the network/system step
level.  Routers and NIs — the per-flit inner loop — must not reference
telemetry at all; we assert that structurally (no ``telemetry`` name in
their compiled code) and behaviorally (identical simulation results with
and without a collector), and a plain run never builds or attaches one.
"""

from repro.experiments.executor import simulate_spec
from repro.experiments.runner import RunSpec
from repro.gpu.system import GPGPUSystem
from repro.noc import Network, NetworkConfig
from repro.noc.network import PerfectNetwork
from repro.noc.ni import (
    BaselineNI,
    InjectionInterface,
    MultiPortNI,
    SplitNI,
    _SingleQueueNI,
)
from repro.noc.router import Router
from repro.noc.topology import default_placement
from repro.telemetry import TelemetryCollector
from repro.workloads.traffic import ReplyTrafficPattern, SyntheticTrafficGenerator


def _code_objects(cls):
    for name, member in vars(cls).items():
        fn = getattr(member, "__func__", member)
        fn = getattr(member, "fget", fn)
        code = getattr(fn, "__code__", None)
        if code is not None:
            yield f"{cls.__name__}.{name}", code


class TestStructural:
    def test_detached_by_default(self):
        assert Network(NetworkConfig(width=4, height=4)).telemetry is None
        assert PerfectNetwork(NetworkConfig(width=4, height=4)).telemetry is None

    def test_router_code_never_names_telemetry(self):
        for name, code in _code_objects(Router):
            assert "telemetry" not in code.co_names, name

    def test_ni_code_never_names_telemetry(self):
        for cls in (InjectionInterface, _SingleQueueNI, BaselineNI,
                    MultiPortNI, SplitNI):
            for name, code in _code_objects(cls):
                assert "telemetry" not in code.co_names, name

    def test_step_pays_exactly_one_attribute_read(self):
        # The whole opt-in lives at the clock owner: one attribute load
        # plus an `is None` test per cycle, nothing per flit.
        for cls in (Network, PerfectNetwork, GPGPUSystem):
            names = cls.step.__code__.co_names
            assert names.count("telemetry") == 1, cls.__name__


class TestBehavioral:
    def test_collector_does_not_perturb_simulation(self):
        def run(with_collector):
            mcs, ccs = default_placement(4, 4, 4)
            net = Network(
                NetworkConfig(width=4, height=4, routing="adaptive",
                              accelerated_nodes=set(mcs))
            )
            if with_collector:
                TelemetryCollector(interval=25).attach_network(net, "net")
            gen = SyntheticTrafficGenerator(
                net, ReplyTrafficPattern(mcs, ccs, seed=2), rate=0.2, seed=3
            )
            gen.run(400)
            return net

        plain = run(False)
        sampled = run(True)
        assert sampled.stats.packets_offered == plain.stats.packets_offered
        assert sampled.stats.packets_delivered == plain.stats.packets_delivered
        assert (sampled.stats.flit_hops_delivered
                == plain.stats.flit_hops_delivered)
        assert sampled.stats.mean_latency() == plain.stats.mean_latency()

    def test_plain_run_never_builds_a_collector(self, monkeypatch):
        # A spec without telemetry must not construct or attach a
        # collector anywhere in the one run pipeline.
        calls = []

        def spy(cls, name):
            real = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{cls.__name__}.{name}")
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        spy(TelemetryCollector, "__init__")
        spy(GPGPUSystem, "attach_telemetry")
        spec = RunSpec("bfs", "ada-ari", cycles=120, warmup=30, mesh=4)
        result = simulate_spec(spec)
        assert result.instructions > 0
        assert calls == []
