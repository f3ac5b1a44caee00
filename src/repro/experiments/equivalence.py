"""Diffable snapshots of finished runs.

Two runs are the same run when these snapshots are equal:

* :func:`network_snapshot` — a network's deep observable state: the
  :class:`~repro.noc.stats.NetworkStats` summary plus per-router
  switch/injection/starvation/decay counters and VA round-robin
  pointers, NI stats and per-link counters;
* :func:`result_payload` — a whole
  :class:`~repro.gpu.system.SimulationResult` except the wall-clock
  extras (``build_wall_s``, ``sim_wall_s``, ``sim_cycles_per_sec``),
  which legitimately differ between runs.

The benchmark's golden digests and the differential oracle tests
(``tests/noc/test_kernel.py``) compare runs through these.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

#: Wall-clock extras that differ run to run and are excluded from diffs.
WALL_CLOCK_EXTRAS = ("build_wall_s", "sim_wall_s", "sim_cycles_per_sec")


def network_snapshot(net) -> Dict[str, object]:
    """Deep observable state of a network after a run."""
    return {
        "cycles": net.now,
        "summary": net.stats.summary(),
        "offered": net.stats.packets_offered,
        "delivered": net.stats.packets_delivered,
        "routers": {
            str(r.router_id): [
                r.flits_switched, r.flits_injected, r.starvation_demotions,
                r.priority_decays, r.speedup_extra_flits, r._va_rr,
            ]
            for r in net.routers
        },
        "nis": {
            str(i): [
                ni.stats.flits_sent, ni.stats.packets_accepted,
                ni.stats.packets_rejected, ni.stats.occupancy_sum,
                ni.stats.occupancy_max, ni.stats.occupancy_samples,
            ]
            for i, ni in enumerate(net.nis)
        },
        "links": [
            [lk.flits_carried, lk.busy_cycles]
            for r in net.routers
            for lk in r.input_links
            if lk is not None and not hasattr(lk, "links")
        ],
    }


def result_payload(result) -> Dict[str, object]:
    """A SimulationResult as a diffable dict, wall-clock extras removed."""
    payload = dataclasses.asdict(result)
    extras = dict(payload.get("extras", {}))
    for key in WALL_CLOCK_EXTRAS:
        extras.pop(key, None)
    payload["extras"] = extras
    return payload
