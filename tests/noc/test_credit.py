"""Tests for credit-based flow control bookkeeping.

The simulator inlines these operations into ``Router.step``; the
readable versions the differential oracle is written in live in
``tests/noc/oracle.py`` and are tested here.
"""

import pytest

from repro.noc.credit import CreditChannel, CreditCounter
from repro.noc.link import Link
from repro.noc.router import FAULT_PID, OutputPort

from tests.noc.oracle import (
    consume,
    deliver,
    free_space,
    has_credit,
    record_send,
    restore,
    vc_claimable,
)


class TestCreditChannel:
    def test_latency_delays_delivery(self):
        ch = CreditChannel(latency=2)
        ch.send(vc=1, now=5)
        assert deliver(ch, 5) == []
        assert deliver(ch, 6) == []
        assert deliver(ch, 7) == [1]

    def test_zero_latency(self):
        ch = CreditChannel(latency=0)
        ch.send(0, now=3)
        assert deliver(ch, 3) == [0]

    def test_multiple_credits_in_order(self):
        ch = CreditChannel(latency=1)
        ch.send(0, now=0)
        ch.send(2, now=0)
        ch.send(1, now=1)
        assert deliver(ch, 1) == [0, 2]
        assert deliver(ch, 2) == [1]

    def test_late_delivery_collects_backlog(self):
        ch = CreditChannel(latency=1)
        for vc in (0, 1, 2):
            ch.send(vc, now=vc)
        assert deliver(ch, 100) == [0, 1, 2]
        assert ch.pending == 0

    def test_pending_count(self):
        ch = CreditChannel(latency=5)
        ch.send(0, 0)
        ch.send(1, 0)
        assert ch.pending == 2

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            CreditChannel(latency=-1)


class TestCreditCounter:
    def test_initial_credits_equal_capacity(self):
        c = CreditCounter(num_vcs=4, vc_capacity=9)
        assert all(c.available(v) == 9 for v in range(4))

    def test_consume_and_restore(self):
        c = CreditCounter(2, 3)
        consume(c, 0)
        consume(c, 0)
        assert c.available(0) == 1
        assert c.available(1) == 3
        restore(c, 0)
        assert c.available(0) == 2

    def test_underflow_raises(self):
        c = CreditCounter(1, 1)
        consume(c, 0)
        with pytest.raises(RuntimeError):
            consume(c, 0)

    def test_overflow_raises(self):
        c = CreditCounter(1, 1)
        with pytest.raises(RuntimeError):
            restore(c, 0)

    def test_has_credit(self):
        c = CreditCounter(1, 1)
        assert has_credit(c, 0)
        consume(c, 0)
        assert not has_credit(c, 0)

    def test_free_space_alias(self):
        c = CreditCounter(2, 5)
        consume(c, 1)
        assert free_space(c, 1) == c.available(1) == 4

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CreditCounter(0, 1)
        with pytest.raises(ValueError):
            CreditCounter(1, 0)


def _output(num_vcs=2, vc_capacity=4):
    return OutputPort(
        0, Link("out"), num_vcs, CreditCounter(num_vcs, vc_capacity),
        CreditChannel(1),
    )


class TestOutputPort:
    def test_claimable_needs_room_for_the_whole_packet(self):
        out = _output()
        assert vc_claimable(out, 0, 4)
        consume(out.credits, 0)
        assert not vc_claimable(out, 0, 4)
        assert vc_claimable(out, 0, 3)

    def test_writer_lock_blocks_claims_until_the_tail(self):
        out = _output()
        out.claim(1, pid=7, size=2)
        assert not vc_claimable(out, 1, 1)
        with pytest.raises(RuntimeError):
            out.claim(1, pid=8, size=1)
        record_send(out, 1, 7)
        assert out.writer[1] == 7 and out.writer_left[1] == 1
        record_send(out, 1, 7)
        assert out.writer[1] is None
        assert vc_claimable(out, 1, 1)

    def test_send_from_another_packet_raises(self):
        out = _output()
        out.claim(0, pid=7, size=2)
        with pytest.raises(RuntimeError):
            record_send(out, 0, 8)

    def test_fault_pin_fails_the_claim_check(self):
        out = _output()
        out.writer[0] = FAULT_PID
        out.writer_left[0] = 1
        assert not vc_claimable(out, 0, 1)

    def test_ejection_port_has_infinite_credit(self):
        out = OutputPort(4, Link("ej"), 2, None, None)
        assert vc_claimable(out, 0, 1000)
        assert out.free_credit_total() == 1 << 20
