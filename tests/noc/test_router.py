"""Micro-tests for a single router wired by hand."""

import pytest

from repro.noc.credit import CreditChannel
from repro.noc.flit import Packet, PacketType
from repro.noc.link import Link
from repro.noc.router import Router
from repro.noc.routing import EAST, WEST, MinimalAdaptiveRouting, XYRouting

from tests.noc.oracle import consume


def make_router(routing=None, coords=(1, 0), **kw):
    r = Router(
        router_id=1,
        coords=coords,
        routing=routing or XYRouting(),
        num_vcs=4,
        vc_capacity=9,
        **kw,
    )
    r.set_dest_coords_fn(lambda node: (node % 4, node // 4))
    return r


def wire_east(router):
    link = Link("east")
    credit = CreditChannel(1)
    router.set_output(EAST, link, credit, downstream_vc_capacity=9)
    return link, credit


def wire_injection(router, port=4):
    link = Link("inj", is_injection=True)
    router.set_input(port, link, None)
    return link


def inject(link, packet, now=0, vc=0):
    """Put a packet's flits on an injection link over consecutive cycles."""
    for i, flit in enumerate(packet.make_flits()):
        flit.out_vc = vc
        link.send(flit, now + i)


class TestForwarding:
    def test_routes_and_forwards(self):
        # Router at (1,0); destination node 3 = (3,0): go EAST.
        router = make_router()
        out, _ = wire_east(router)
        inj = wire_injection(router)
        router.set_ejection(Link("ej"))
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 3, 0)
        inject(inj, pkt, now=0)
        for t in range(1, 10):
            router.step(t)
        assert out.flits_carried == 3
        assert router.flits_injected == 3

    def test_ejects_local_traffic(self):
        # Destination node 1 = (1,0) = this router: eject.
        router = make_router()
        ej = Link("ej")
        router.set_ejection(ej)
        inj = wire_injection(router)
        pkt = Packet(PacketType.READ_REPLY, 0, 1, 2, 0)
        inject(inj, pkt)
        for t in range(1, 8):
            router.step(t)
        assert ej.flits_carried == 2

    def test_wormhole_order_preserved(self):
        router = make_router()
        out, _ = wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 5, 0)
        inject(inj, pkt)
        for t in range(1, 12):
            router.step(t)
        seqs = [f.seq for f in out.arrivals(100)]
        assert seqs == sorted(seqs)

    def test_occupancy_counter_consistent(self):
        router = make_router()
        wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 4, 0)
        inject(inj, pkt)
        for t in range(1, 12):
            router.step(t)
            total = sum(p.total_occupancy() for p in router.input_ports)
            assert router.occupancy() == total
        assert router.occupancy() == 0


class TestCredits:
    def test_blocks_without_credits(self):
        router = make_router()
        out, credit_in = wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        # Exhaust all downstream credits on every VC.
        for port in [router.output_ports[EAST]]:
            for vc in range(4):
                for _ in range(9):
                    consume(port.credits, vc)
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 2, 0)
        inject(inj, pkt)
        for t in range(1, 10):
            router.step(t)
        assert out.flits_carried == 0  # WPF: no VC can hold the packet

    def test_resumes_on_credit_return(self):
        router = make_router()
        out, credit_in = wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        port = router.output_ports[EAST]
        for vc in range(4):
            for _ in range(9):
                consume(port.credits, vc)
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 2, 0)
        inject(inj, pkt)
        for t in range(1, 6):
            router.step(t)
        # Return enough credits on VC 1 for the whole packet.
        for _ in range(9):
            credit_in.send(1, now=6)
        for t in range(7, 15):
            router.step(t)
        assert out.flits_carried == 2


class TestInjectionSpeedup:
    def test_speedup_moves_multiple_flits(self):
        """Consumption side: with speedup 4 and flits in 4 VCs bound for
        different outputs, several flits cross the switch per cycle."""
        router = make_router(
            routing=MinimalAdaptiveRouting(), coords=(1, 1),
            injection_speedup=4,
        )
        router.set_dest_coords_fn(lambda node: (node % 4, node // 4))
        links = {}
        for d in range(4):
            links[d] = Link(f"d{d}")
            router.set_output(d, links[d], CreditChannel(1), 9)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        # Four single-flit packets to four different quadrants.
        dests = [13, 6, 1, 4]  # (1,3) N, (2,1) E, (1,0) S, (0,1) W
        for vc, dest in enumerate(dests):
            p = Packet(PacketType.WRITE_REPLY, 5, dest, 1, 0)
            f = p.make_flits()[0]
            f.out_vc = vc
            inj.send(f, 0)
        moved = router.step(1)
        assert moved == 4

    def test_no_speedup_single_flit(self):
        router = make_router(
            routing=MinimalAdaptiveRouting(), coords=(1, 1),
            injection_speedup=1,
        )
        router.set_dest_coords_fn(lambda node: (node % 4, node // 4))
        for d in range(4):
            router.set_output(d, Link(f"d{d}"), CreditChannel(1), 9)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        for vc, dest in enumerate([13, 6, 1, 4]):
            p = Packet(PacketType.WRITE_REPLY, 5, dest, 1, 0)
            f = p.make_flits()[0]
            f.out_vc = vc
            inj.send(f, 0)
        moved = router.step(1)
        assert moved == 1


class TestPriorityDecay:
    def test_head_decrement_on_mesh_ingress(self):
        router = make_router(priority_enabled=True)
        out, _ = wire_east(router)
        router.set_ejection(Link("ej"))
        west_in = Link("west_in")
        router.set_input(WEST, west_in, CreditChannel(1))
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 1, 0, priority=1)
        f = pkt.make_flits()[0]
        f.out_vc = 0
        west_in.send(f, 0)
        router.step(1)
        assert pkt.priority == 0

    def test_no_decrement_on_injection(self):
        router = make_router(priority_enabled=True)
        wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        pkt = Packet(PacketType.READ_REPLY, 0, 3, 1, 0, priority=1)
        inject(inj, pkt)
        router.step(1)
        assert pkt.priority == 1


class TestEjectionGate:
    def test_gate_blocks_local_output(self):
        router = make_router()
        ej = Link("ej")
        router.set_ejection(ej)
        router.ejection_gate = lambda: False
        inj = wire_injection(router)
        pkt = Packet(PacketType.READ_REPLY, 0, 1, 2, 0)  # dest = this router
        inject(inj, pkt)
        for t in range(1, 8):
            router.step(t)
        assert ej.flits_carried == 0
        router.ejection_gate = lambda: True
        for t in range(8, 14):
            router.step(t)
        assert ej.flits_carried == 2


class TestConstruction:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_router(num_injection_ports=0)
        with pytest.raises(ValueError):
            make_router(injection_speedup=0)

    def test_multiport_port_ids(self):
        router = make_router(num_injection_ports=3)
        assert router.injection_port_ids() == [4, 5, 6]
        assert router.num_inputs == 7


class TestStarvationDemotion:
    def _router_with_contention(self, threshold):
        """Injection traffic (priority 1) and a through flit (priority 0)
        permanently competing for the EAST output."""
        router = make_router(
            priority_enabled=True, starvation_threshold=threshold,
            injection_speedup=4,
        )
        out, _ = wire_east(router)
        router.set_ejection(Link("ej"))
        inj = wire_injection(router)
        west_in = Link("west_in")
        router.set_input(WEST, west_in, CreditChannel(1))
        return router, out, inj, west_in

    def test_injection_priority_demoted_after_threshold(self):
        router, out, inj, west_in = self._router_with_contention(threshold=5)
        # A through packet (priority 0) arrives and keeps losing to a
        # steady stream of priority-1 injected packets.
        through = Packet(PacketType.READ_REPLY, 0, 3, 1, 0, priority=0)
        tf = through.make_flits()[0]
        tf.out_vc = 0
        west_in.send(tf, 0)
        delivered_through = None
        for t in range(1, 40):
            # keep one injected packet pending each cycle on a fresh VC
            p = Packet(PacketType.READ_REPLY, 0, 3, 1, t, priority=1)
            f = p.make_flits()[0]
            f.out_vc = (t % 3) + 1
            inj.send(f, t - 1)
            router.step(t)
            if through.received_at is None and not any(
                fl.packet is through
                for port in router.input_ports
                for vc in port.vcs
                for fl in vc.fifo
            ):
                delivered_through = delivered_through or t
        # Without demotion the through flit would starve indefinitely; the
        # threshold forces it out.
        assert delivered_through is not None
        assert router.starvation_demotions > 0
