"""In-memory span tracer that wraps a live program from the outside.

The benchmark times each layer by replacing public methods on live
instances (``router.step_fast``, ``core.step_core_cycle`` ...) and
module-level names where their callers look them up
(``executor.build_system`` ...) with timing wrappers.  Nothing under
``src/`` changes, and :meth:`Tracer.restore` puts every original back.

Accounting:

* on return, every wrapped call charges its duration to its caller, so
  a layer's **self time** is its duration minus its children minus the
  calibrated wrapper cost of each child call;
* per-component calls (routers, NIs, cores ...) are folded into one
  record per stat per simulated cycle: :meth:`fold` runs at the end of
  the per-cycle root call and snapshots call counts and durations;
* run-level calls (build, simulate, store, validate, energy) and the
  benchmark's own ``bench:*`` spans are kept whole, with their parent.

Stat names are ``<layer>:<method>``; the layer is the module path the
method lives under (``noc.router``, ``gpu.core``, ``experiments.store``).
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

_perf = time.perf_counter_ns


class Stat:
    """Totals for one wrapped method: calls, durations, result counts."""

    __slots__ = ("calls", "ns", "self_ns", "work", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.work = 0   # summed truthy results (flits moved, packets taken)
        self.hits = 0   # calls that returned a truthy result

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__slots__}


def _calibrate(rounds: int = 5, n: int = 20000):
    """Per-call wrapper cost in ns: (outside the timed window, inside it).

    The outside part is what a parent frame sees on top of its child's
    measured duration; the inside part inflates the child's own duration.
    Minimum over several rounds, so a preempted round does not count.
    """
    def noop():
        return None

    outer = inner = None
    for _ in range(rounds):
        probe = Tracer(calibrate=False)
        wrapped = probe._wrap("calibrate:noop", noop)
        t0 = _perf()
        for _ in range(n):
            noop()
        plain = (_perf() - t0) / n
        t0 = _perf()
        for _ in range(n):
            wrapped()
        total = (_perf() - t0) / n - plain
        inside = probe.stats["calibrate:noop"].ns / n - plain
        inside = max(0.0, min(inside, total))
        if outer is None or total < outer + inner:
            outer, inner = total - inside, inside
    return outer, inner


class Tracer:
    """Wraps methods, keeps spans in memory, reports per-layer self time."""

    def __init__(self, calibrate: bool = True) -> None:
        self.outer_ns, self.inner_ns = _calibrate() if calibrate else (0.0, 0.0)
        self.stats: Dict[str, Stat] = {}
        self.spans: List[list] = []          # [id, parent, name, start, dur]
        # [child_ns, child_calls] of the innermost open call; each wrapper
        # saves its caller's pair on entry and adds itself on exit.
        self._cell = [0, 0]
        self._span_ids: List[Optional[int]] = [None]
        self._patches: List[tuple] = []
        self._folded: Dict[str, list] = {}   # stat -> cumulative snapshots
        self.cycles = 0
        self._t0 = _perf()
        self._t1: Optional[int] = None

    # -- wrapping -------------------------------------------------------
    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, name: str, fn, *, count: bool = False, fold: bool = False):
        st = self._stat(name)
        cell = self._cell
        outer, inner = self.outer_ns, self.inner_ns
        folder = self.fold if fold else None

        def wrapper(*args, **kwargs):
            caller_ns, caller_calls = cell
            cell[0] = cell[1] = 0
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                child_ns, child_calls = cell
                cell[0] = caller_ns + dt
                cell[1] = caller_calls + 1
                st.calls += 1
                st.ns += dt
                st.self_ns += dt - child_ns - outer * child_calls - inner
            if count and result:
                st.work += result
                st.hits += 1
            if folder is not None:
                folder()
            return result

        return wrapper

    def _wrap_whole(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A run-level span, stored whole with its parent span."""
        st = self._stat(name)
        span_id = len(self.spans)
        record = [span_id, self._span_ids[-1], name, 0, 0]
        self.spans.append(record)
        self._span_ids.append(span_id)
        cell = self._cell
        caller_ns, caller_calls = cell
        cell[0] = cell[1] = 0
        t0 = _perf()
        try:
            yield
        finally:
            dt = _perf() - t0
            self._span_ids.pop()
            child_ns, child_calls = cell
            cell[0] = caller_ns + dt
            cell[1] = caller_calls + 1
            st.calls += 1
            st.ns += dt
            st.self_ns += dt - child_ns - self.outer_ns * child_calls
            record[3] = t0 - self._t0
            record[4] = dt

    def patch(self, obj, attr: str, name: str, *, whole: bool = False, **kw):
        """Replace ``obj.attr`` with a timing wrapper (undone by restore)."""
        fn = getattr(obj, attr)
        wrapped = self._wrap_whole(name, fn) if whole else self._wrap(name, fn, **kw)
        self.rebind(obj, attr, wrapped)
        if not whole and name not in self._folded:
            # A stat first seen mid-run has had no calls in earlier cycles.
            self._folded[name] = [(0, 0)] * self.cycles

    def rebind(self, obj, attr: str, value) -> None:
        """Set ``obj.attr`` to ``value``, remembering how to undo it."""
        own = vars(obj)
        self._patches.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first; the trace's wall clock stops."""
        if self._t1 is None:
            self._t1 = _perf()
        while self._patches:
            obj, attr, had, old = self._patches.pop()
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    # -- what gets wrapped ------------------------------------------------
    def instrument_network(self, net, *, fold: bool = False) -> None:
        """Wrap a mesh's kernel step, offers, routers, NIs and ejectors.

        ``fold=True`` when the network's step is the per-cycle root (a
        NoC-only run); inside a full system the system step folds.
        """
        self.patch(net, "step", "noc.kernel:step", fold=fold)
        self.patch(net, "offer", "noc.ni:offer", count=True)
        for router in net.routers:
            self.patch(router, "step", "noc.router:step", count=True)
            self.patch(router, "step_fast", "noc.router:step", count=True)
        for ni in net.nis:
            self.patch(ni, "step", "noc.ni:inject", count=True)
        for ejector in net.ejectors:
            self.patch(ejector, "receive_flit", "noc.ni:eject")

    def instrument_system(self, system) -> None:
        """Wrap a GPGPUSystem's step, cores, MCs, DRAM and both meshes."""
        self.patch(system, "step", "gpu.system:step", fold=True)
        self.patch(system, "prewarm_caches", "gpu.cache:prewarm")
        for core in system.cores:
            self.patch(core, "step_core_cycle", "gpu.core:step")
            self.patch(core, "step_core_cycle_fast", "gpu.core:step")
        for mc in system.mcs:
            self.patch(mc, "step", "gpu.mc:step")
            self.patch(mc.dram, "step_mem_cycle", "gpu.dram:step")
        self.instrument_network(system.request_net)
        self.instrument_network(system.reply_net)
        # MCs captured the reply network's bound offer at construction.
        for mc in system.mcs:
            self.rebind(mc, "_reply_offer", system.reply_net.offer)

    def instrument_pipeline(self) -> None:
        """Wrap the run pipeline's module-level names where callers look."""
        from repro.experiments import api, executor
        from repro.staticcheck import runner as staticcheck_runner

        self.patch(executor, "build_system", "experiments.runner:build", whole=True)
        self.patch(
            executor, "simulate_spec", "experiments.executor:simulate", whole=True
        )
        self.patch(api, "simulate_spec", "experiments.executor:simulate", whole=True)
        self.patch(executor, "energy_per_work", "energy:per_run", whole=True)
        self.patch(
            staticcheck_runner, "validate_spec", "staticcheck:validate", whole=True
        )

    def instrument_store(self, store) -> None:
        self.patch(store, "get", "experiments.store:get", whole=True)
        self.patch(store, "put", "experiments.store:put", whole=True)

    # -- folding and reporting ------------------------------------------
    def fold(self) -> None:
        """Close one simulated cycle: snapshot every per-component stat."""
        self.cycles += 1
        stats = self.stats
        for name, rows in self._folded.items():
            st = stats[name]
            rows.append((st.calls, st.ns))

    def wall_ns(self) -> int:
        end = self._t1 if self._t1 is not None else _perf()
        return end - self._t0

    def layer_self_ns(self) -> Dict[str, float]:
        """Self time per layer (methods summed), in ns."""
        out: Dict[str, float] = {}
        for name, st in self.stats.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + st.self_ns
        return out

    def to_json(self) -> Dict[str, object]:
        """Everything recorded, per-cycle folds as per-cycle deltas."""
        per_cycle = {}
        for name, rows in self._folded.items():
            calls, ns, prev = [], [], (0, 0)
            for row in rows:
                calls.append(row[0] - prev[0])
                ns.append(row[1] - prev[1])
                prev = row
            per_cycle[name] = {"calls": calls, "ns": ns}
        return {
            "wall_ns": self.wall_ns(),
            "cycles": self.cycles,
            "wrapper_outer_ns": self.outer_ns,
            "wrapper_inner_ns": self.inner_ns,
            "stats": {k: v.as_dict() for k, v in sorted(self.stats.items())},
            "layer_self_ns": self.layer_self_ns(),
            "spans": [
                dict(zip(("id", "parent", "name", "start_ns", "dur_ns"), s))
                for s in self.spans
            ],
            "per_cycle": per_cycle,
        }
