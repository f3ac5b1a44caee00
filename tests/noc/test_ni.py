"""Tests for the network-interface variants (the ARI supply side)."""

import pytest

from repro.noc.flit import Packet, PacketType
from repro.noc.link import Link
from repro.noc.ni import (
    BaselineNI,
    EjectionInterface,
    EnhancedNI,
    MultiPortNI,
    NIKind,
    SplitNI,
    make_ni,
)


def reply(size=9, dest=1):
    return Packet(PacketType.READ_REPLY, 0, dest, size, 0)


def wire_single(ni, vc_capacity=9, num_vcs=4, port=4):
    link = Link(is_injection=True)
    ni.attach(
        [link],
        [(port, 0)],
        vc_capacity,
        [(port, vc) for vc in range(num_vcs)],
    )
    return link


def wire_split(ni, vc_capacity=9, port=4):
    links = [Link(is_injection=True) for _ in range(ni.num_queues)]
    targets = [(port, q % ni.num_vcs) for q in range(ni.num_queues)]
    ni.attach(links, targets, vc_capacity, [(port, v) for v in range(ni.num_vcs)])
    return links


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            (NIKind.BASELINE_NARROW, BaselineNI),
            (NIKind.ENHANCED, EnhancedNI),
            (NIKind.SPLIT, SplitNI),
            (NIKind.MULTIPORT, MultiPortNI),
        ],
    )
    def test_kinds(self, kind, cls):
        ni = make_ni(kind, 0, 36, 4)
        assert isinstance(ni, cls)
        assert ni.kind == kind


class TestEnhancedNI:
    def test_whole_packet_accepted_in_one_call(self):
        ni = EnhancedNI(0, 36, 4)
        wire_single(ni)
        assert ni.offer(reply(), 0)
        assert ni.queued_flits() == 9
        assert ni.queued_packets() == 1

    def test_capacity_limit(self):
        ni = EnhancedNI(0, 36, 4)
        wire_single(ni)
        for _ in range(4):
            assert ni.offer(reply(), 0)
        assert not ni.offer(reply(), 0)  # 36 flits = 4 long packets
        assert ni.stats.packets_rejected == 1

    def test_drains_one_flit_per_cycle(self):
        """The enhanced baseline's supply cap: 1 flit/cycle (Sec. 4.1)."""
        ni = EnhancedNI(0, 36, 4)
        link = wire_single(ni)
        ni.offer(reply(), 0)
        for t in range(9):
            ni.step(t)
        assert link.flits_carried == 9
        assert ni.queued_flits() == 0

    def test_binding_waits_for_whole_packet_space(self):
        ni = EnhancedNI(0, 36, 4)
        link = wire_single(ni, vc_capacity=4)  # VC smaller than packet
        ni.offer(reply(9), 0)
        ni.step(0)
        assert link.flits_carried == 0  # WPF: no VC fits the whole packet

    def test_flits_carry_vc_assignment(self):
        ni = EnhancedNI(0, 36, 4)
        link = wire_single(ni)
        ni.offer(reply(2), 0)
        ni.step(0)
        ni.step(1)
        flits = link.arrivals(2)
        assert len(flits) == 2
        assert all(f.out_vc is not None for f in flits)

    def test_credit_blocks_then_resumes(self):
        ni = EnhancedNI(0, 36, 4)
        link = wire_single(ni, vc_capacity=9, num_vcs=1)
        ni.offer(reply(9), 0)
        for t in range(9):
            ni.step(t)
        assert link.flits_carried == 9
        ni.offer(reply(9), 9)
        ni.step(9)
        assert link.flits_carried == 9  # out of credits on the only VC
        ni.on_credit(4, 0)
        # Needs the whole packet's worth of credits before binding (WPF).
        for _ in range(8):
            ni.on_credit(4, 0)
        ni.step(10)
        assert link.flits_carried == 10


class TestCreditGuard:
    """A bound packet always has credit; running out is a loud error."""

    @pytest.mark.parametrize("cls", [EnhancedNI, MultiPortNI])
    def test_underflow_mid_packet_raises(self, cls):
        ni = cls(0, 36, 4)
        link = wire_single(ni)
        if cls is MultiPortNI:
            ni.port_index = {4: 0}
        ni.offer(reply(9), 0)
        assert ni.step(0) == 1  # head sent; the packet is bound
        port, vc = ni._front_binding
        ni.credits[(port, vc)] = 0
        with pytest.raises(RuntimeError, match="NI credit underflow"):
            ni.step(1)
        assert link.flits_carried == 1


class TestBaselineNI:
    def test_narrow_link_transfer_delay(self):
        """GPGPU-Sim default: the packet crawls over a narrow MC->NI link."""
        ni = BaselineNI(0, 36, 4)
        link = wire_single(ni)
        assert ni.offer(reply(9), 0)
        ni.step(0)
        assert link.flits_carried == 0  # still transferring into the NI
        for t in range(1, 9):
            ni.step(t)
        assert link.flits_carried == 0
        ni.step(9)  # transfer done at t=9; first flit leaves
        assert link.flits_carried == 1

    def test_busy_during_transfer(self):
        ni = BaselineNI(0, 36, 4)
        wire_single(ni)
        assert ni.offer(reply(9), 0)
        assert not ni.can_accept(reply(9))  # node link busy

    def test_higher_latency_than_enhanced(self):
        """The narrow node->NI link adds a full serialization delay before
        the first flit can leave (steady-state rate is the same: both are
        capped by the 1 flit/cycle NI->router link)."""
        base, enh = BaselineNI(0, 36, 4), EnhancedNI(0, 36, 4)
        bl, el = wire_single(base), wire_single(enh)
        base.offer(reply(9), 0)
        enh.offer(reply(9), 0)
        for t in range(9):
            base.step(t)
            enh.step(t)
        assert el.flits_carried == 9
        assert bl.flits_carried == 0


class TestSplitNI:
    def test_parallel_drain(self):
        """ARI supply: k split queues drain k flits per cycle (Fig. 7b)."""
        ni = SplitNI(0, 36, 4, num_queues=4)
        links = wire_split(ni)
        for _ in range(4):
            assert ni.offer(reply(9), 0)
        ni.step(0)
        assert sum(l.flits_carried for l in links) == 4

    def test_queue_sized_for_one_packet(self):
        ni = SplitNI(0, 36, 4, num_queues=4)
        assert ni.queue_capacity == 9

    def test_total_capacity_matches_baseline(self):
        """Fair comparison (Sec. 6.2): same total buffer as single queue."""
        ni = SplitNI(0, 36, 4, num_queues=4)
        wire_split(ni)
        accepted = 0
        while ni.offer(reply(9), 0):
            accepted += 1
        assert accepted == 4  # 4 x 9 = 36 flits

    def test_round_robin_queue_choice(self):
        ni = SplitNI(0, 36, 4, num_queues=4)
        wire_split(ni)
        ni.offer(reply(9), 0)
        ni.offer(reply(9), 0)
        occupied = [qi for qi, q in enumerate(ni.queues) if q]
        assert len(occupied) == 2  # spread, not piled on queue 0

    def test_fixed_vc_wiring(self):
        ni = SplitNI(0, 36, 4, num_queues=4)
        links = wire_split(ni)
        for _ in range(4):
            ni.offer(reply(9), 0)
        ni.step(0)
        vcs = set()
        for qi, l in enumerate(links):
            for f in l.arrivals(1):
                assert f.out_vc == qi % 4
                vcs.add(f.out_vc)
        assert len(vcs) == 4

    def test_small_packets_share_queue(self):
        ni = SplitNI(0, 36, 4, num_queues=4)
        wire_split(ni)
        for _ in range(9):
            assert ni.offer(reply(2), 0)  # 2-flit write replies pack in

    def test_rejects_when_all_queues_full(self):
        ni = SplitNI(0, 36, 4, num_queues=2, queue_capacity_flits=9)
        links = [Link(), Link()]
        ni.attach(links, [(4, 0), (4, 1)], 9, [(4, 0), (4, 1)])
        assert ni.offer(reply(9), 0)
        assert ni.offer(reply(9), 0)
        assert not ni.offer(reply(9), 0)


class TestMultiPortNI:
    def test_supply_still_one_flit_per_cycle(self):
        """MultiPort adds consumption paths, not supply (Sec. 7.2)."""
        ni = MultiPortNI(0, 36, 4)
        links = [Link(is_injection=True), Link(is_injection=True)]
        ni.port_index = {4: 0, 5: 1}
        ni.attach(links, [], 9, [(p, v) for p in (4, 5) for v in range(4)])
        ni.offer(reply(9), 0)
        ni.offer(reply(9), 0)
        ni.step(0)
        assert sum(l.flits_carried for l in links) == 1


class TestEjectionInterface:
    def _deliver(self, ej, packet, now=0):
        for f in packet.make_flits():
            ej.receive_flit(f, now)

    def test_reassembles_packet(self):
        ej = EjectionInterface(0)
        got = []
        ej.on_packet = lambda p, t: got.append(p)
        p = reply(9)
        self._deliver(ej, p, now=5)
        assert got == [p]
        assert p.received_at == 5

    def test_interleaved_packets(self):
        ej = EjectionInterface(0)
        got = []
        ej.on_packet = lambda p, t: got.append(p.pid)
        a, b = reply(3), reply(3)
        fa, fb = a.make_flits(), b.make_flits()
        for f in (fa[0], fb[0], fa[1], fb[1], fb[2], fa[2]):
            ej.receive_flit(f, 0)
        assert got == [b.pid, a.pid]

    def test_missing_flit_detected(self):
        ej = EjectionInterface(0)
        p = reply(3)
        flits = p.make_flits()
        ej.receive_flit(flits[0], 0)
        with pytest.raises(RuntimeError):
            ej.receive_flit(flits[2], 0)  # tail without the middle flit

    def test_bounded_buffer_backpressure(self):
        ej = EjectionInterface(0, capacity_flits=4, auto_release=False)
        p = reply(4)
        self._deliver(ej, p)
        assert not ej.can_accept_flit()
        ej.release(4)
        assert ej.can_accept_flit()

    def test_release_underflow(self):
        ej = EjectionInterface(0, capacity_flits=4, auto_release=False)
        with pytest.raises(RuntimeError):
            ej.release(1)

    def test_auto_release_frees_on_delivery(self):
        ej = EjectionInterface(0, capacity_flits=9, auto_release=True)
        self._deliver(ej, reply(9))
        assert ej.flit_occupancy == 0


class TestQueuedPacketCounting:
    def test_baseline_counts_pending_transfer(self):
        ni = BaselineNI(0, 36, 4)
        wire_single(ni)
        ni.offer(reply(9), 0)
        assert ni.queued_packets() == 1  # still on the narrow link
        for t in range(12):
            ni.step(t)
        assert ni.queued_packets() == 1  # now in the queue, not yet drained

    def test_split_counts_per_queue(self):
        ni = SplitNI(0, 36, 4, num_queues=4)
        wire_split(ni)
        ni.offer(reply(9), 0)
        ni.offer(reply(9), 0)
        assert ni.queued_packets() == 2
        assert ni.queued_flits() == 18

    def test_sample_records_occupancy(self):
        ni = EnhancedNI(0, 36, 4)
        wire_single(ni)
        ni.offer(reply(9), 0)
        ni.sample()
        ni.sample()
        assert ni.stats.occupancy_samples == 2
        assert ni.stats.mean_occupancy == 1.0
        assert ni.stats.occupancy_max == 1
