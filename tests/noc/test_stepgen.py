"""The generated router step: shape cache, rebinding and debuggability.

``tests/noc/test_kernel.py`` owns behaviour (every cell byte-identical
with the stage-by-stage oracle).  These tests pin what the generator adds
around it: code is compiled once per shape and shared by routers of that
shape, a per-instance wrapper of ``router.step`` (how the benchmark's
tracer times routers) sees every visit even across a wiring reset, and
the generated source is visible to tracebacks and ``inspect``.
"""

import ast
import inspect
import traceback

import pytest

from repro.experiments.equivalence import network_snapshot
from repro.experiments.runner import RunSpec, build_system
from repro.faults import FaultInjector, FaultPlan
from repro.noc import Network, NetworkConfig, stepgen
from repro.noc.credit import CreditChannel
from repro.noc.link import Link
from repro.noc.routing import EAST, XYRouting
from repro.noc.router import Router
from repro.noc.topology import default_placement
from repro.workloads.traffic import ReplyTrafficPattern, SyntheticTrafficGenerator

from tests.noc.oracle import deep_state


def _stepped_system(scheme):
    system = build_system(RunSpec("bfs", scheme, cycles=10, warmup=0))
    system.step()
    return system


def _routers(system):
    return [r for net in (system.request_net, system.reply_net)
            for r in net.routers]


class TestShapeCache:
    # Count-and-flag shapes of the 6x6 paper systems (both meshes):
    # corner/edge/interior routers, times MC routers' SplitNI bundle and
    # ejection gate, times per-network priority.
    @pytest.mark.parametrize("scheme,shapes", [
        ("ada-ari", 10), ("xy-baseline", 5),
    ])
    def test_paper_systems_compile_few_shapes(self, scheme, shapes):
        routers = _routers(_stepped_system(scheme))
        codes = {r._wiring.__code__ for r in routers}
        assert len(codes) == shapes
        assert len({stepgen.shape_of(r) for r in routers}) == shapes

    def test_second_build_compiles_nothing(self):
        first = _routers(_stepped_system("ada-ari"))
        compiled = len(stepgen._FACTORIES)
        second = _routers(_stepped_system("ada-ari"))
        assert len(stepgen._FACTORIES) == compiled
        for a, b in zip(first, second):
            assert a._wiring is not b._wiring          # own bindings
            assert a._wiring.__code__ is b._wiring.__code__

    def test_shape_ignores_port_identity(self):
        # Opposite corners are wired on different sides, same counts.
        net = Network(NetworkConfig(width=4, height=4))
        net.step()
        corner_a, corner_b = net.routers[0], net.routers[15]
        wired = [
            {i for i, link in enumerate(r.input_links) if link is not None}
            for r in (corner_a, corner_b)
        ]
        assert wired[0] != wired[1]
        assert stepgen.shape_of(corner_a) == stepgen.shape_of(corner_b)
        assert corner_a._wiring.__code__ is corner_b._wiring.__code__


def _traffic_net():
    mcs, ccs = default_placement(4, 4, 4)
    net = Network(NetworkConfig(
        width=4, height=4, routing="xy", accelerated_nodes=set(mcs),
        priority_enabled=True, priority_levels=4, injection_speedup=2,
    ))
    gen = SyntheticTrafficGenerator(
        net, ReplyTrafficPattern(mcs, ccs, seed=2), rate=0.3, seed=3
    )
    return net, gen


def _run(patch):
    """120 cycles, a detour fault install at 60; returns state + visits."""
    net, gen = _traffic_net()
    visits = [0]
    patches = []
    if patch:
        # As benchmarks/e2e/tracer.py does: wrap the bound method found
        # on each instance and set the wrapper as an instance attribute.
        for router in net.routers:
            for attr in ("step", "step_fast"):
                fn = getattr(router, attr)

                def wrapper(now, fn=fn):
                    visits[0] += 1
                    return fn(now)

                patches.append((router, attr))
                setattr(router, attr, wrapper)
    gen.run(60)
    FaultInjector(net, FaultPlan.parse("link:r5.E@70"), detour=True).install()
    assert all(r._wiring is None for r in net.routers)
    gen.run(60)
    for router, attr in patches:
        delattr(router, attr)
    gen.run(20)
    return network_snapshot(net), deep_state(net), visits[0], len(net.routers)


class TestTracerCompatibility:
    def test_instance_wrapper_sees_every_visit(self):
        _snap, _deep, visits, routers = _run(patch=True)
        assert visits == routers * 120

    def test_unpatched_results_equal_patched(self):
        patched = _run(patch=True)
        unpatched = _run(patch=False)
        assert patched[:2] == unpatched[:2]
        assert unpatched[2] == 0


def _hand_router():
    router = Router(1, (1, 0), XYRouting(), num_vcs=4, vc_capacity=9)
    router.set_dest_coords_fn(lambda node: (node % 4, node // 4))
    credit = CreditChannel(1)
    router.set_output(EAST, Link("east"), credit, downstream_vc_capacity=9)
    router.set_ejection(Link("ej"))
    router.set_input(4, Link("inj", is_injection=True), None)
    return router, credit


class TestGeneratedSource:
    def test_inspect_shows_generated_step(self):
        router, _credit = _hand_router()
        router.step(0)
        text = inspect.getsource(router._wiring)
        assert text.lstrip().startswith("def _step(now):")
        assert inspect.getsourcefile(router._wiring).startswith(
            "<repro.noc.router step"
        )
        assert stepgen.source(stepgen.shape_of(router)).startswith("def make(")

    def test_traceback_shows_generated_line(self):
        router, credit = _hand_router()
        router.step(0)
        credit.send(2, now=0)  # one credit more than VC 2 can hold
        with pytest.raises(RuntimeError, match="credit overflow on vc 2"):
            try:
                router.step(1)
            except RuntimeError:
                text = traceback.format_exc()
                raise
        assert 'raise RuntimeError(f"credit overflow on vc {v}")' in text

    def test_source_parses_on_oldest_supported_python(self):
        # CI compiles the generated source on other minor versions; keep
        # its grammar within the package's requires-python floor.
        routers = _routers(_stepped_system("ada-ari"))
        router, _credit = _hand_router()
        shapes = {stepgen.shape_of(r) for r in routers + [router]}
        shapes |= {s._replace(vc_rule=2, gate=True) for s in list(shapes)}
        for shape in shapes:
            ast.parse(stepgen.source(shape), feature_version=(3, 9))

    def test_rewiring_regenerates(self):
        router, _credit = _hand_router()
        router.step(0)
        before = router._wiring
        router.ejection_gate = lambda: True
        assert router._wiring is None
        router.step(1)
        assert router._wiring is not before
        assert stepgen.shape_of(router).gate
