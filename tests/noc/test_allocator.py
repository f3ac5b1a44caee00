"""Tests for arbiters and the separable input-first switch allocator.

Arbitration runs inline in ``Router.step``; these tests pin the
stage-by-stage oracle (``tests/noc/oracle.py``) that the router is
differentially tested against, over the allocator state in
``repro.noc.allocator``.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.allocator import RoundRobinArbiter, SwitchAllocator
from repro.noc.router import Router
from repro.noc.routing import XYRouting

from tests.noc.oracle import Bid, allocate, grant, grant_prioritized


class TestRoundRobinArbiter:
    def test_grants_only_requesters(self):
        arb = RoundRobinArbiter(4)
        assert grant(arb, [False, True, False, False]) == 1

    def test_no_request_no_grant(self):
        arb = RoundRobinArbiter(3)
        assert grant(arb, [False, False, False]) is None

    def test_rotates_for_fairness(self):
        arb = RoundRobinArbiter(3)
        grants = [grant(arb, [True, True, True]) for _ in range(6)]
        assert grants == [0, 1, 2, 0, 1, 2]

    def test_size_mismatch_raises(self):
        arb = RoundRobinArbiter(2)
        with pytest.raises(ValueError):
            grant(arb, [True])

    def test_prioritized_prefers_higher(self):
        arb = RoundRobinArbiter(3)
        assert grant_prioritized(arb, [0, 1, 0]) == 1

    def test_prioritized_ties_round_robin(self):
        arb = RoundRobinArbiter(2)
        first = grant_prioritized(arb, [1, 1])
        second = grant_prioritized(arb, [1, 1])
        assert {first, second} == {0, 1}

    def test_prioritized_skips_idle(self):
        arb = RoundRobinArbiter(3)
        assert grant_prioritized(arb, [None, None, 0]) == 2

    def test_prioritized_all_idle(self):
        arb = RoundRobinArbiter(2)
        assert grant_prioritized(arb, [None, None]) is None


class TestSwitchAllocator:
    def _alloc(self, speedups=None):
        return SwitchAllocator(num_in=5, num_out=5, num_vcs=4, speedups=speedups)

    def test_single_bid_wins(self):
        winners = allocate(self._alloc(), [Bid(0, 0, 1, 0)])
        assert len(winners) == 1

    def test_output_conflict_one_winner(self):
        winners = allocate(self._alloc(), [Bid(0, 0, 2, 0), Bid(1, 0, 2, 0)])
        assert len(winners) == 1

    def test_distinct_outputs_both_win(self):
        winners = allocate(self._alloc(), [Bid(0, 0, 1, 0), Bid(1, 0, 2, 0)])
        assert len(winners) == 2

    def test_input_without_speedup_single_grant(self):
        # Two VCs of the same port requesting different outputs: only one
        # may cross a 1-switch-port input per cycle.
        winners = allocate(self._alloc(), [Bid(0, 0, 1, 0), Bid(0, 1, 2, 0)])
        assert len(winners) == 1

    def test_injection_speedup_multiple_grants(self):
        # ARI consumption side: speedup-4 injection port sends up to 4 flits.
        alloc = self._alloc(speedups={4: 4})
        bids = [Bid(4, vc, vc, 0) for vc in range(4)]  # 4 VCs, 4 outputs
        winners = allocate(alloc, bids)
        assert len(winners) == 4

    def test_speedup_respects_distinct_outputs(self):
        alloc = self._alloc(speedups={4: 4})
        bids = [Bid(4, vc, 1, 0) for vc in range(4)]  # all to output 1
        winners = allocate(alloc, bids)
        assert len(winners) == 1

    def test_speedup_capped(self):
        alloc = self._alloc(speedups={4: 2})
        bids = [Bid(4, vc, vc, 0) for vc in range(4)]
        winners = allocate(alloc, bids)
        assert len(winners) == 2

    def test_priority_wins_output_stage(self):
        alloc = self._alloc()
        winners = allocate(alloc, [Bid(0, 0, 1, 0), Bid(1, 0, 1, 5)])
        assert len(winners) == 1
        assert winners[0].in_port == 1

    def test_priority_wins_input_stage(self):
        alloc = self._alloc()
        winners = allocate(alloc, [Bid(0, 0, 1, 0), Bid(0, 1, 2, 5)])
        assert len(winners) == 1
        assert winners[0].vc == 1

    def test_bad_ports_rejected(self):
        alloc = self._alloc()
        with pytest.raises(ValueError):
            allocate(alloc, [Bid(9, 0, 0, 0)])
        with pytest.raises(ValueError):
            allocate(alloc, [Bid(0, 0, 9, 0)])


@settings(max_examples=200, deadline=None)
@given(
    bids=st.lists(
        st.tuples(
            st.integers(0, 4),  # in_port
            st.integers(0, 3),  # vc
            st.integers(0, 4),  # out_port
            st.integers(0, 3),  # priority
        ),
        max_size=20,
    ),
    inj_speedup=st.integers(1, 4),
)
def test_allocator_invariants(bids, inj_speedup):
    """Property: winners never violate the crossbar's physical constraints."""
    alloc = SwitchAllocator(5, 5, 4, speedups={4: inj_speedup})
    # At most one bid per (in_port, vc) — a VC has one front flit.
    seen = set()
    uniq = []
    for ip, vc, op, pr in bids:
        if (ip, vc) in seen:
            continue
        seen.add((ip, vc))
        uniq.append(Bid(ip, vc, op, pr))
    winners = allocate(alloc, uniq)

    # 1. each output grants at most once
    outs = [w.out_port for w in winners]
    assert len(outs) == len(set(outs))
    # 2. each input wins at most its speedup
    from collections import Counter

    per_in = Counter(w.in_port for w in winners)
    for in_port, count in per_in.items():
        cap = inj_speedup if in_port == 4 else 1
        assert count <= cap
    # 3. winners are a subset of the bids
    bid_keys = {(b.in_port, b.vc, b.out_port) for b in uniq}
    assert all((w.in_port, w.vc, w.out_port) in bid_keys for w in winners)
    # 4. work conservation: if any bid exists, someone wins
    if uniq:
        assert winners


@settings(max_examples=300, deadline=None)
@given(
    bids=st.lists(
        st.tuples(
            st.integers(0, 5),  # in_port (4 and 5 are injection ports)
            st.integers(0, 3),  # vc
            st.integers(0, 4),  # out_port
            st.integers(0, 3),  # priority
        ),
        max_size=24,
    ),
    in_ptrs=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    out_ptrs=st.lists(st.integers(0, 5), min_size=5, max_size=5),
    speedup=st.integers(1, 4),
)
def test_router_allocation_matches_oracle(bids, in_ptrs, out_ptrs, speedup):
    """The router's single-pass arbitration equals the two-stage oracle.

    Same grants in the same order, and the same round-robin pointers
    afterwards, from any pointer state and any mix of priorities.
    """
    router = Router(
        0, (0, 0), XYRouting(), num_vcs=4, num_injection_ports=2,
        injection_speedup=speedup,
    )
    alloc = router.allocator
    for arb, ptr in zip(alloc._input_arbiters, in_ptrs):
        arb._next = ptr
    for arb, ptr in zip(alloc._output_arbiters, out_ptrs):
        arb._next = ptr
    twin = copy.deepcopy(alloc)
    # Router.step lists one bid per VC, in VC order, per bidding input.
    port_bids = [None] * router.num_inputs
    bid_ports = []
    for ip, vc, op, pr in bids:
        if port_bids[ip] is None:
            port_bids[ip] = []
            bid_ports.append(ip)
        if all(t[0] != vc for t in port_bids[ip]):
            port_bids[ip].append((vc, op, pr))
    for blist in port_bids:
        if blist:
            blist.sort()

    grants = router._allocate(bid_ports, port_bids) if bid_ports else []
    winners = allocate(twin, [
        Bid(p, vc, op, pr) for p in bid_ports for vc, op, pr in port_bids[p]
    ])
    assert grants == [(w.in_port, w.vc) for w in winners]
    for ours, theirs in (
        (alloc._input_arbiters, twin._input_arbiters),
        (alloc._output_arbiters, twin._output_arbiters),
    ):
        assert [a._next for a in ours] == [a._next for a in theirs]
