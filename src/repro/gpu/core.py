"""SIMT core cluster: warps + L1 + MSHRs + outbound request queue.

Each core corresponds to one CC node of Fig. 1.  Per core cycle the GTO
scheduler picks a ready warp and tries to issue its next instruction.
Memory instructions probe the L1; misses allocate/merge MSHRs and emit read
requests; stores write through and emit write requests.  Structural hazards
(MSHR full, outbound queue full) keep the instruction pending so no work is
lost — the warp simply retries, which is how reply-network backpressure
ultimately throttles the core (the end-to-end loop the paper measures as
IPC).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.gpu.cache import Cache
from repro.gpu.config import GPUConfig
from repro.gpu.mshr import MSHRTable
from repro.gpu.warp import GTOScheduler, Warp, WarpState, make_scheduler
from repro.workloads.profile import WorkloadProfile


class CoreStats:
    __slots__ = (
        "instructions",
        "mem_instructions",
        "loads",
        "stores",
        "idle_cycles",
        "struct_stall_cycles",
        "core_cycles",
        "read_replies",
        "write_replies",
    )

    def __init__(self) -> None:
        self.instructions = 0
        self.mem_instructions = 0
        self.loads = 0
        self.stores = 0
        self.idle_cycles = 0
        self.struct_stall_cycles = 0
        self.core_cycles = 0
        self.read_replies = 0
        self.write_replies = 0


# Outbound memory request descriptor: (is_write, line_addr)
MemRequest = Tuple[bool, int]


class Core:
    """One streaming-multiprocessor cluster."""

    OUTBOUND_DEPTH = 32

    def __init__(
        self,
        core_id: int,
        node: int,
        config: GPUConfig,
        profile: WorkloadProfile,
        seed: int = 1,
    ) -> None:
        self.core_id = core_id
        self.node = node
        self.config = config
        self.profile = profile
        self.l1 = Cache(config.l1_size_bytes, config.line_bytes, config.l1_assoc)
        self.mshr = MSHRTable(config.l1_mshr_entries)
        self.warps: List[Warp] = [Warp(w) for w in range(config.warps_per_core)]
        self.scheduler = make_scheduler(config.warp_scheduler, self.warps)
        self.streams = [
            profile.make_stream(core_id, w, seed) for w in range(config.warps_per_core)
        ]
        self._pending_instr: List[Optional[tuple]] = [None] * config.warps_per_core
        self.outbound: Deque[MemRequest] = deque()
        self.stats = CoreStats()
        # Stall/idle memo (see step_core_cycle):
        # (wake_at, epoch, stalled) — valid while now < wake_at and no
        # issue-relevant event has bumped the epoch.
        self._issue_epoch = 0
        self._issue_memo: Optional[Tuple[int, int, bool]] = None
        # The greedy-then-oldest scheduler re-picks the same first-ready
        # warp on consecutive stalled cycles; LRR rotates, so only GTO
        # proper admits the stall memo (idle memo is scheduler-agnostic).
        self._memo_stalls = type(self.scheduler) is GTOScheduler

    # ------------------------------------------------------------------
    def _pipeline_wake(self) -> int:
        """First cycle a PIPELINE warp matures; a huge sentinel if none."""
        wake = 1 << 60
        pipeline = WarpState.PIPELINE
        for w in self.warps:
            if w.state is pipeline and w.ready_at < wake:
                wake = w.ready_at
        return wake

    def step_core_cycle(self, now: int) -> None:
        """One core-clock cycle of issue logic (``now`` is in NoC cycles).

        Dead cycles are memoized.  A cycle that ends idle (no ready warp)
        or structurally stalled (ready warp, infeasible instruction)
        changes nothing but two stat counters, and its outcome repeats
        every cycle until (a) a reply arrives, (b) the outbound queue
        drains, or (c) a PIPELINE warp matures — the only events that
        change warp readiness or issue feasibility.  (a)/(b) bump
        ``_issue_epoch``; (c) is a known cycle recorded at memo time.
        While the memo holds, a full pick would re-derive the identical
        idle/stall verdict with no other side effects (the scheduler scan
        converts no warp states on such cycles), so counting the cycle is
        all that's left to do.
        Stall memoization additionally requires the GTO scheduler, whose
        post-stall re-pick is deterministic; LRR rotates between ready
        warps and may reach an issuable one, so only idle cycles are
        memoized there.
        """
        memo = self._issue_memo
        if memo is not None:
            if now < memo[0] and memo[1] == self._issue_epoch:
                st = self.stats
                st.core_cycles += 1
                if memo[2]:
                    st.struct_stall_cycles += 1
                else:
                    st.idle_cycles += 1
                return
            self._issue_memo = None
        self.stats.core_cycles += 1
        warp = self.scheduler.pick(now)
        if warp is None:
            self.stats.idle_cycles += 1
            self._issue_memo = (
                self._pipeline_wake(), self._issue_epoch, False
            )
            return
        instr = self._pending_instr[warp.wid]
        if instr is None:
            instr = self.streams[warp.wid].next()
            self._pending_instr[warp.wid] = instr
        if self._try_issue(warp, instr, now):
            self._pending_instr[warp.wid] = None
        else:
            self.stats.struct_stall_cycles += 1
            self.scheduler.on_stall()
            if self._memo_stalls:
                # on_stall() released greed, so next cycle GTO re-picks
                # the *oldest* ready warp.  The stall verdict only
                # repeats while that is the warp that just stalled; if
                # an older warp is ready (it was greedily bypassed this
                # cycle), its instruction gets its own issue attempt and
                # the cycle cannot be memoized.  The age-order scan
                # below touches exactly the prefix pick() would scan
                # next cycle.
                finished = WarpState.FINISHED
                for w in self.scheduler.warps:
                    if w.state is finished:
                        continue
                    if w.is_ready(now):
                        if w is warp:
                            self._issue_memo = (
                                self._pipeline_wake(),
                                self._issue_epoch,
                                True,
                            )
                        break

    # The frozen benchmark (benchmarks/e2e) looks this name up on every core.
    step_core_cycle_fast = step_core_cycle

    def _try_issue(self, warp: Warp, instr: tuple, now: int) -> bool:
        kind, lines = instr
        if kind == "c":
            warp.issue(now, 1)
            self.stats.instructions += 1
            return True
        # Memory instruction; dedupe coalesced lines.
        uniq = list(dict.fromkeys(lines))
        if kind == "st":
            if len(self.outbound) + len(uniq) > self.OUTBOUND_DEPTH:
                return False
            for line in uniq:
                self.l1.write(line)
                self.outbound.append((True, line))
            warp.issue(now, 1)
            self.stats.instructions += 1
            self.stats.mem_instructions += 1
            self.stats.stores += 1
            return True

        # Load: first a conservative feasibility pass so we never issue a
        # half-instruction.
        misses = [line for line in uniq if not self.l1.probe(line)]
        new_requests = [
            line for line in misses if not self.mshr.outstanding(line)
        ]
        if len(self.outbound) + len(new_requests) > self.OUTBOUND_DEPTH:
            return False
        if self.mshr.occupancy + len(new_requests) > self.mshr.num_entries:
            return False
        for line in misses:
            if not self.mshr.can_handle(line):
                return False

        # Commit.
        for line in uniq:
            if line in misses:
                is_new = self.mshr.allocate(line, warp)
                if is_new is None:
                    raise RuntimeError("MSHR refused after feasibility check")
                if is_new:
                    self.outbound.append((False, line))
                warp.outstanding_loads += 1
            else:
                self.l1.lookup(line)  # update LRU + hit stats
        # Count probe-misses in L1 stats (probe() is stateless).
        self.l1.stats.misses += len(misses)
        self.stats.instructions += 1
        self.stats.mem_instructions += 1
        self.stats.loads += 1
        if warp.outstanding_loads > 0:
            warp.block(now)
        else:
            warp.issue(now, 1)
        return True

    # ------------------------------------------------------------------
    def on_read_reply(self, line_addr: int, now: int) -> None:
        """A read reply for ``line_addr`` arrived from the reply network."""
        self._issue_epoch += 1
        self.stats.read_replies += 1
        self.l1.fill(line_addr)
        for warp in self.mshr.fill(line_addr):
            warp.unblock_one(now)

    def on_write_reply(self, now: int) -> None:
        self._issue_epoch += 1
        self.stats.write_replies += 1

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        if not self.stats.core_cycles:
            return 0.0
        return self.stats.instructions / self.stats.core_cycles

    def outstanding_loads(self) -> int:
        return sum(w.outstanding_loads for w in self.warps)
