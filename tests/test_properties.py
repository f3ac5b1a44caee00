"""Property-based tests (hypothesis) on core data structures and invariants.

These complement the unit suites with randomized adversarial inputs:

* network conservation — every offered packet is delivered exactly once,
  in one piece, regardless of traffic pattern, routing, or ARI features;
* cache — behaves identically to a reference LRU model;
* DRAM — completions respect minimum latency and bus serialization;
* NI/WPF — a split NI never overflows an injection VC;
* arbiters — rotating fairness under arbitrary request streams.
"""

import random
from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.gpu.cache import Cache
from repro.gpu.config import GDDR5TimingParams
from repro.gpu.dram import DRAMChannel, DRAMRequest
from repro.noc import Network, NetworkConfig
from repro.noc.allocator import RoundRobinArbiter
from repro.noc.flit import Packet, PacketType
from repro.noc.ni import NIKind

from tests.noc.oracle import grant, grant_prioritized


# ---------------------------------------------------------------------------
# Network conservation
# ---------------------------------------------------------------------------

network_scenarios = st.tuples(
    st.sampled_from(["xy", "adaptive"]),
    st.booleans(),                      # ARI at node 5
    st.integers(0, 2 ** 31 - 1),        # traffic seed
    st.integers(20, 120),               # packets
)


@settings(max_examples=20, deadline=None)
@given(network_scenarios)
def test_network_delivers_everything_exactly_once(scenario):
    routing, ari, seed, n_packets = scenario
    cfg = NetworkConfig(
        width=4,
        height=4,
        routing=routing,
        accelerated_nodes={5} if ari else set(),
        ni_kind=NIKind.SPLIT if ari else NIKind.ENHANCED,
        injection_speedup=4 if ari else 1,
        priority_enabled=ari,
        priority_levels=2 if ari else 1,
    )
    net = Network(cfg)
    delivered = []
    net.on_delivery = lambda node, pkt, now: delivered.append(pkt.pid)

    rng = random.Random(seed)
    offered = []
    pending = n_packets
    while pending:
        src = rng.randrange(16)
        dest = rng.randrange(16)
        if dest == src:
            dest = (dest + 1) % 16
        size = rng.choice([1, 1, 9])
        ptype = PacketType.READ_REPLY if size == 9 else PacketType.WRITE_REPLY
        prio = 1 if (ari and src == 5) else 0
        pkt = Packet(ptype, src, dest, size, net.now, priority=prio)
        if net.offer(src, pkt):
            offered.append(pkt)
            pending -= 1
        net.step()
    assert net.drain(50000)
    # Exactly once, whole, to the right node.
    assert sorted(delivered) == sorted(p.pid for p in offered)
    assert len(set(delivered)) == len(delivered)
    for p in offered:
        assert p.received_at is not None
        assert p.latency >= net.zero_load_latency(p.src, p.dest, p.size) - 1


# ---------------------------------------------------------------------------
# Cache vs. reference model
# ---------------------------------------------------------------------------


class RefLRU:
    """Dict-of-OrderedDict reference model for a set-associative LRU cache."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def lookup(self, line):
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            return True
        return False

    def fill(self, line):
        s = self.sets[line % self.num_sets]
        if line in s:
            s.move_to_end(line)
            return
        if len(s) >= self.assoc:
            s.popitem(last=False)
        s[line] = True


cache_ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "fill"]), st.integers(0, 63)),
    max_size=300,
)


@settings(max_examples=100, deadline=None)
@given(ops=cache_ops)
def test_cache_matches_reference_lru(ops):
    cache = Cache(8 * 128, 128, 2)  # 4 sets, 2 ways
    ref = RefLRU(cache.num_sets, cache.assoc)
    for op, line in ops:
        if op == "lookup":
            assert cache.lookup(line) == ref.lookup(line)
        else:
            cache.fill(line)
            ref.fill(line)


# ---------------------------------------------------------------------------
# DRAM invariants
# ---------------------------------------------------------------------------

dram_addresses = st.lists(st.integers(0, 4095), min_size=1, max_size=40)


@settings(max_examples=50, deadline=None)
@given(addrs=dram_addresses)
def test_dram_completion_invariants(addrs):
    p = GDDR5TimingParams()
    ch = DRAMChannel(p, queue_depth=64)
    reqs = [DRAMRequest(a, False) for a in addrs]
    for r in reqs:
        assert ch.enqueue(r)
    ends = []
    for _ in range(20000):
        for done in ch.step_mem_cycle():
            ends.append(done.completed_at)
        if ch.pending == 0:
            break
    assert ch.pending == 0
    assert len(ends) == len(reqs)
    for r in reqs:
        # Nothing completes faster than a row-hit CAS + burst.
        assert r.completed_at - r.enqueued_at >= p.tCL + 8
    # Data-bus serialization: completions at least one burst apart.
    ends.sort()
    for a, b in zip(ends, ends[1:]):
        assert b - a >= 8


# ---------------------------------------------------------------------------
# Split NI never overflows its credit view
# ---------------------------------------------------------------------------

ni_schedule = st.lists(st.integers(1, 9), min_size=1, max_size=30)


@settings(max_examples=50, deadline=None)
@given(sizes=ni_schedule, credit_seed=st.integers(0, 1000))
def test_split_ni_respects_credits(sizes, credit_seed):
    from repro.noc.link import Link
    from repro.noc.ni import SplitNI

    ni = SplitNI(0, 36, 4, num_queues=4)
    links = [Link(is_injection=True) for _ in range(4)]
    targets = [(4, q) for q in range(4)]
    ni.attach(links, targets, vc_capacity=9, ports_vcs=[(4, v) for v in range(4)])
    rng = random.Random(credit_seed)
    outstanding = {v: 0 for v in range(4)}
    t = 0
    for size in sizes:
        pkt = Packet(PacketType.READ_REPLY, 0, 1, size, t)
        ni.offer(pkt, t)
        ni.step(t)
        for link in links:
            for f in link.arrivals(t + 1):
                outstanding[f.out_vc] += 1
                assert outstanding[f.out_vc] <= 9  # never exceeds VC space
        # Randomly drain some flits (router consuming).
        for v in range(4):
            if outstanding[v] and rng.random() < 0.5:
                outstanding[v] -= 1
                ni.on_credit(4, v)
        t += 1
    # Credit view consistency: credits + outstanding == capacity.
    for v in range(4):
        assert ni.credits[(4, v)] + outstanding[v] == 9


# ---------------------------------------------------------------------------
# Arbiter fairness
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(2, 8),
    rounds=st.integers(10, 80),
    seed=st.integers(0, 999),
)
def test_round_robin_no_starvation(n, rounds, seed):
    """Any persistently-requesting input is granted at least once every n
    grants (rotating-priority starvation freedom)."""
    arb = RoundRobinArbiter(n)
    rng = random.Random(seed)
    waits = [0] * n
    for _ in range(rounds):
        req = [True] * n  # everyone always requests
        g = grant(arb, req)
        assert g is not None
        for i in range(n):
            waits[i] = 0 if i == g else waits[i] + 1
            assert waits[i] < n


@settings(max_examples=50, deadline=None)
@given(
    prios=st.lists(st.integers(0, 3), min_size=2, max_size=8),
)
def test_prioritized_grant_is_max_priority(prios):
    arb = RoundRobinArbiter(len(prios))
    g = grant_prioritized(arb, list(prios))
    assert g is not None
    assert prios[g] == max(prios)


# ---------------------------------------------------------------------------
# Workload stream determinism
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2 ** 20),
    core=st.integers(0, 27),
    warp=st.integers(0, 31),
)
def test_instruction_streams_deterministic(seed, core, warp):
    from repro.workloads.suite import benchmark

    prof = benchmark("bfs")
    a = prof.make_stream(core, warp, seed)
    b = prof.make_stream(core, warp, seed)
    assert [a.next() for _ in range(40)] == [b.next() for _ in range(40)]
