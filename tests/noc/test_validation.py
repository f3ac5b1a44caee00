"""Tests for the invariant checker, including failure injection."""

import random

import pytest

from repro import GPGPUSystem, GPUConfig, benchmark, scheme
from repro.noc import Network, NetworkConfig
from repro.noc.flit import Packet, PacketType
from repro.noc.ni import BaselineNI, NIKind, SplitNI
from repro.noc.validation import InvariantChecker, InvariantViolation


def loaded_network(routing="xy", ari=False, seed=5, packets=60,
                   ni_kind=None):
    """A 4x4 mesh under random traffic; ``ni_kind`` gives every node that
    NI instead of the default (one SplitNI at node 5 when ``ari``)."""
    if ni_kind is not None:
        accelerated = set(range(16))
    else:
        accelerated = {5} if ari else set()
        ni_kind = NIKind.SPLIT if ari else NIKind.ENHANCED
    cfg = NetworkConfig(
        width=4, height=4, routing=routing,
        accelerated_nodes=accelerated, ni_kind=ni_kind,
        injection_speedup=4 if ari else 1,
        priority_enabled=ari, priority_levels=2 if ari else 1,
    )
    net = Network(cfg)
    rng = random.Random(seed)
    remaining = packets

    def pump():
        nonlocal remaining
        if remaining <= 0:
            return
        src = rng.randrange(16)
        dest = (src + rng.randrange(1, 16)) % 16
        size = rng.choice([1, 9])
        ptype = PacketType.READ_REPLY if size == 9 else PacketType.WRITE_REPLY
        if net.offer(src, Packet(ptype, src, dest, size, net.now,
                                 priority=1 if ari else 0)):
            remaining -= 1

    return net, pump


class TestCleanRuns:
    @pytest.mark.parametrize("routing,ari", [
        ("xy", False), ("adaptive", False), ("adaptive", True),
    ])
    def test_audit_passes_under_load(self, routing, ari):
        net, pump = loaded_network(routing, ari)
        checker = InvariantChecker(net)
        for _ in range(150):
            pump()
            net.step()
            checker.audit()
        assert checker.audits == 150

    def test_quiescent_conservation(self):
        net, pump = loaded_network()
        checker = InvariantChecker(net)
        for _ in range(100):
            pump()
            net.step()
        assert net.drain(20000)
        checker.audit(quiescent=True)

    def test_run_audited_helper(self):
        net, pump = loaded_network()
        for _ in range(30):
            pump()
            net.step()
        InvariantChecker(net).run_audited(50, every=5)


class TestFailureInjection:
    """Corrupt simulator state on purpose; the checker must localize it."""

    def _busy_network(self):
        net, pump = loaded_network()
        for _ in range(60):
            pump()
            net.step()
        return net

    def test_detects_occupancy_drift(self):
        net = self._busy_network()
        # Corrupt a router's maintained counter.
        victim = max(net.routers, key=lambda r: r.occupancy())
        victim._occ += 1
        with pytest.raises(InvariantViolation, match="occupancy"):
            InvariantChecker(net).audit()

    def test_detects_port_counter_drift(self):
        net = self._busy_network()
        victim = max(net.routers, key=lambda r: r.occupancy())
        port = max(victim.input_ports, key=lambda p: p.occ)
        port.occ += 1
        victim._occ += 1  # keep the router-level sum consistent
        with pytest.raises(InvariantViolation, match="port counter"):
            InvariantChecker(net).audit()

    def test_detects_credit_leak(self):
        net = self._busy_network()
        for router in net.routers:
            out = router.output_ports[0]
            if out is not None and out.credits is not None:
                if out.credits.available(0) > 0:
                    out.credits.counts[0] -= 1  # leak one credit
                    break
        with pytest.raises(InvariantViolation, match="credit leak"):
            InvariantChecker(net).audit()

    def test_detects_dangling_writer_lock(self):
        net = self._busy_network()
        out = net.routers[0].output_ports[1] or net.routers[0].output_ports[0]
        out.writer[0] = 12345
        out.writer_left[0] = 0
        with pytest.raises(InvariantViolation, match="locked with zero"):
            InvariantChecker(net).audit()

    def test_detects_orphan_writer_count(self):
        net = self._busy_network()
        out = net.routers[0].output_ports[1] or net.routers[0].output_ports[0]
        out.writer[0] = None
        out.writer_left[0] = 3
        with pytest.raises(InvariantViolation, match="unlocked with"):
            InvariantChecker(net).audit()

    def test_detects_interleaved_packets(self):
        # Construct the forbidden state directly: a body flit of packet B
        # spliced between packet A's head and body in one VC.
        net = Network(NetworkConfig(width=4, height=4))
        a = Packet(PacketType.READ_REPLY, 0, 15, 3, 0).make_flits()
        b = Packet(PacketType.READ_REPLY, 1, 15, 3, 0).make_flits()
        vc = net.routers[0].input_ports[4].vcs[0]
        vc.push(a[0], 0)
        vc.fifo.append(b[1])  # bypass push() to fake the corruption
        vc.fifo.append(a[1])
        with pytest.raises(InvariantViolation, match="interleaved"):
            InvariantChecker(net).check_no_interleaving()

    def test_detects_foreign_head_mid_packet(self):
        net = Network(NetworkConfig(width=4, height=4))
        a = Packet(PacketType.READ_REPLY, 0, 15, 3, 0).make_flits()
        b = Packet(PacketType.READ_REPLY, 1, 15, 3, 0).make_flits()
        vc = net.routers[0].input_ports[4].vcs[0]
        vc.push(a[0], 0)
        vc.fifo.append(b[0])  # a second head before A's tail
        with pytest.raises(InvariantViolation, match="head of"):
            InvariantChecker(net).check_no_interleaving()

    def test_quiescence_check_requires_quiescence(self):
        net, pump = loaded_network()
        for _ in range(20):
            pump()
            net.step()
        with pytest.raises(InvariantViolation, match="in flight"):
            InvariantChecker(net).check_quiescent_conservation()


def baseline_ni_run():
    net, pump = loaded_network(ni_kind=NIKind.BASELINE_NARROW)

    def step():
        pump()
        net.step()

    return net, step, BaselineNI


def ada_ari_run():
    cfg = GPUConfig.scaled(4, warps_per_core=8)
    system = GPGPUSystem(cfg, scheme("ada-ari"), benchmark("bfs"), seed=2)
    system.prewarm_caches()
    return system.reply_net, system.step, SplitNI


class TestInjectionCredits:
    """The NI->router injection channel is audited exactly, like a link."""

    @pytest.mark.parametrize(
        "run", [baseline_ni_run, ada_ari_run], ids=["baseline-ni", "ada-ari"]
    )
    def test_poked_ni_credit_is_caught(self, run):
        net, step, ni_type = run()
        checker = InvariantChecker(net)
        for _ in range(60):
            step()
            checker.audit()
        ni = next(ni for ni in net.nis if isinstance(ni, ni_type))
        key = next(iter(ni.credits))
        for delta in (1, -1):
            ni.credits[key] += delta
            with pytest.raises(InvariantViolation, match="injection credits"):
                checker.audit()
            ni.credits[key] -= delta
        for _ in range(20):
            step()
            checker.audit()


class TestAccountingUnderDrops:
    """Packet drops are part of the model now (fault injection); the
    conservation and credit checks must stay satisfied through them."""

    def _purge_one(self, net, pump, checker):
        """Step until a whole packet can be purged from a router VC."""
        from repro.noc.buffer import VCState

        for _ in range(400):
            pump()
            net.step()
            checker.audit()
            for router in net.routers:
                for port in router.input_ports:
                    if port.occ == 0:
                        continue
                    for vc in port.vcs:
                        if vc.state != VCState.ROUTING:
                            continue
                        purged = router.purge_front_packet(
                            port.port_id, vc.index, net.now
                        )
                        if purged is not None:
                            return purged
        raise AssertionError("no purgable packet found")

    def test_purge_conserves_credits_and_occupancy(self):
        net, pump = loaded_network()
        checker = InvariantChecker(net)
        purged = self._purge_one(net, pump, checker)
        net.stats.on_drop(purged)
        # The very next audit sees consistent counters and no credit leak:
        # every buffered flit's credit went back upstream.
        checker.audit()
        assert net.stats.packets_dropped == 1

    def test_quiescent_conservation_counts_drops(self):
        net, pump = loaded_network(packets=30)
        checker = InvariantChecker(net)
        purged = self._purge_one(net, pump, checker)
        net.stats.on_drop(purged)
        assert net.drain(20000)
        # offered = delivered + dropped; buffers and NIs empty.
        checker.audit(quiescent=True)
        assert net.stats.in_flight == 0
        assert net.stats.delivered_fraction() < 1.0


class TestContextAndCollect:
    def test_context_prefixes_messages(self):
        net, pump = loaded_network()
        for _ in range(60):
            pump()
            net.step()
        net.routers[0]._occ += 1
        checker = InvariantChecker(net, context="bfs/xy-baseline seed=3")
        with pytest.raises(InvariantViolation,
                           match=r"\[bfs/xy-baseline seed=3\]"):
            checker.audit()

    def test_collect_mode_accumulates_instead_of_raising(self):
        net, pump = loaded_network()
        for _ in range(60):
            pump()
            net.step()
        net.routers[0]._occ += 1
        checker = InvariantChecker(net, context="ctx", collect=True)
        checker.audit()
        checker.audit()
        assert len(checker.violations) >= 2  # one per audit, not fatal
        assert all(v.startswith("[ctx]") for v in checker.violations)

    def test_on_cycle_respects_every(self):
        net, _ = loaded_network()
        checker = InvariantChecker(net, every=10)
        for now in range(20):
            checker.on_cycle(now)
        assert checker.audits == 2  # cycles 0 and 10

    def test_every_must_be_positive(self):
        net, _ = loaded_network()
        with pytest.raises(ValueError):
            InvariantChecker(net, every=0)

    def test_auditor_hook_runs_during_step(self):
        net, pump = loaded_network()
        checker = InvariantChecker(net, every=2)
        net.auditor = checker
        for _ in range(10):
            pump()
            net.step()
        assert checker.audits == 5
