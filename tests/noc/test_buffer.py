"""Tests for virtual-channel buffers and the WPF admission rule."""

import pytest

from repro.noc.buffer import InputPort, VCState, VirtualChannel
from repro.noc.flit import Packet, PacketType

from tests.noc.oracle import set_out_vc, set_route


def flits_of(size=3, priority=0):
    return Packet(PacketType.READ_REPLY, 0, 1, size, 0, priority=priority).make_flits()


class TestVCStateMachine:
    def test_starts_idle(self):
        vc = VirtualChannel(0, 9)
        assert vc.state == VCState.IDLE
        assert vc.empty

    def test_head_arrival_triggers_routing(self):
        vc = VirtualChannel(0, 9)
        vc.push(flits_of(3)[0], now=0)
        assert vc.state == VCState.ROUTING

    def test_route_then_vc_allocation(self):
        vc = VirtualChannel(0, 9)
        head = flits_of(3)[0]
        vc.push(head, now=0)
        set_route(vc, 2)
        assert vc.state == VCState.VA
        assert head.out_port == 2
        set_out_vc(vc, 1)
        assert vc.state == VCState.ACTIVE
        assert head.out_vc == 1

    def test_set_route_requires_routing_state(self):
        vc = VirtualChannel(0, 9)
        with pytest.raises(RuntimeError):
            set_route(vc, 1)

    def test_tail_pop_releases_route(self):
        vc = VirtualChannel(0, 9)
        f = flits_of(2)
        vc.push(f[0], 0)
        vc.push(f[1], 0)
        set_route(vc, 1)
        set_out_vc(vc, 0)
        vc.pop(1)
        assert vc.state == VCState.ACTIVE  # body still queued
        vc.pop(2)
        assert vc.state == VCState.IDLE
        assert vc.out_port is None and vc.out_vc is None

    def test_wpf_second_packet_restarts_routing(self):
        """Non-atomic allocation: a second whole packet behind the first
        re-enters ROUTING once the first fully drains."""
        vc = VirtualChannel(0, 9)
        p1 = flits_of(2)
        p2 = flits_of(2)
        for f in p1 + p2:
            vc.push(f, 0)
        set_route(vc, 1)
        set_out_vc(vc, 0)
        vc.pop(1)
        vc.pop(2)  # p1 tail leaves
        assert vc.state == VCState.ROUTING  # p2's head now at the front
        assert vc.out_port is None

    def test_pop_empty_raises(self):
        vc = VirtualChannel(0, 9)
        with pytest.raises(RuntimeError):
            vc.pop(0)

    def test_overflow_raises(self):
        vc = VirtualChannel(0, 1)
        vc.push(flits_of(1)[0], 0)
        with pytest.raises(RuntimeError):
            vc.push(flits_of(1)[0], 0)


class TestWPFAdmission:
    def test_accepts_whole_packet_in_free_space(self):
        vc = VirtualChannel(0, 9)
        assert vc.can_accept_packet(9)
        assert not vc.can_accept_packet(10)

    def test_partial_occupancy_reduces_admission(self):
        vc = VirtualChannel(0, 9)
        for f in flits_of(4):
            vc.push(f, 0)
        assert vc.can_accept_packet(5)
        assert not vc.can_accept_packet(6)

    def test_free_space_tracks_occupancy(self):
        vc = VirtualChannel(0, 5)
        flits = flits_of(3)
        for i, f in enumerate(flits):
            vc.push(f, 0)
            assert vc.occupancy == i + 1
            assert vc.free_space == 5 - (i + 1)


class TestWaitTracking:
    def test_wait_since_set_on_new_front(self):
        vc = VirtualChannel(0, 9)
        vc.push(flits_of(2)[0], now=7)
        assert vc.wait_since == 7

    def test_wait_since_updates_after_pop(self):
        vc = VirtualChannel(0, 9)
        f = flits_of(2)
        vc.push(f[0], 5)
        vc.push(f[1], 5)
        set_route(vc, 1)
        set_out_vc(vc, 0)
        vc.pop(9)
        assert vc.wait_since == 9


class TestInputPort:
    def test_port_structure(self):
        port = InputPort(2, num_vcs=4, vc_capacity=9)
        assert port.num_vcs == 4
        assert not port.is_injection
        assert port.total_occupancy() == 0

    def test_injection_flag(self):
        port = InputPort(4, 4, 9, is_injection=True)
        assert port.is_injection

    def test_oldest_wait(self):
        port = InputPort(0, 2, 9)
        port.vcs[0].push(flits_of(1)[0], now=3)
        port.vcs[1].push(flits_of(1)[0], now=8)
        assert port.oldest_wait(now=10) == 7

    def test_oldest_wait_empty_port(self):
        port = InputPort(0, 2, 9)
        assert port.oldest_wait(100) == 0
