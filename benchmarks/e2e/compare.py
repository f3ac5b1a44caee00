"""Compare benchmark result files metric by metric against the bounds.

Usage (files written by ``run.py --out``, alternating parent and change)::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]

For each workload and metric it prints each side's median and quartiles
and a verdict against the bound in ``BENCHMARK.json``:

* ``agree``      the change's median is not worse than the parent's by
                 more than the bound;
* ``worse``      it is;
* ``unresolved`` either side's spread (quartile distance over median)
                 exceeds the bound, unless every change sample beats
                 (or loses to) every parent sample.

With one file per side the samples are that file's per-round values;
with more, each file contributes its reported value.  Given ten or more
parent/change pairs it also counts the pairs the change wins and applies
the 9-in-10 rule: a gain needs wins in nine tenths of the pairs and a
median difference larger than the parent's own quartile distance.
Per-layer metrics (traced files) have no bound and get no verdict.
The exit code is 1 when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_specs() -> Dict[str, dict]:
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    # Inclusive: with a handful of rounds the default method extrapolates
    # the quartiles beyond the samples.
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse the change is, as a share of the parent (<0 = better)."""
    if not parent:
        return 0.0
    diff = (change - parent) / abs(parent)
    return diff if better == "lower" else -diff


def verdict(parent: List[float], change: List[float], better: str, bound) -> str:
    if bound is None:
        return "-"
    rel = worse_by(statistics.median(parent), statistics.median(change), better)
    if max(spread(parent), spread(change)) > bound:
        beats = all(worse_by(p, c, better) < 0 for p in parent for c in change)
        loses = all(worse_by(p, c, better) > 0 for p in parent for c in change)
        if beats:
            return "agree"
        if not (loses and rel > bound):
            return "unresolved"
    return "worse" if rel > bound else "agree"


def wins(parent: List[float], change: List[float], better: str) -> Optional[str]:
    """Pairwise win count and the 9-in-10 rule, for ten or more pairs."""
    if len(parent) < 10:
        return None
    won = sum(worse_by(p, c, better) < 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    gain = won >= 0.9 * len(parent) and abs(statistics.median(change) - med) > q3 - q1
    return f"wins {won}/{len(parent)}{' GAIN' if gain else ''}"


def samples(records: List[dict], workload: str, metric: str) -> List[float]:
    """Per-round samples of one file, or each file's reported value."""
    if len(records) == 1:
        rec = records[0]["workloads"][workload]
        got = rec["samples"].get(metric)
        if got:
            return got
        return [rec["metrics"][metric]["value"]]
    return [r["workloads"][workload]["metrics"][metric]["value"] for r in records]


def compare(parents: List[dict], changes: List[dict], specs: Dict[str, dict]) -> Tuple[List[str], bool]:
    lines, any_worse = [], False
    header = (
        f"{'workload':20s} {'metric':40s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'delta':>8s} {'bound':>6s}  verdict"
    )
    lines.append(header)
    names = [w for w in parents[0]["workloads"] if all(w in c["workloads"] for c in changes)]
    for workload in names:
        metrics = parents[0]["workloads"][workload]["metrics"]
        for metric in metrics:
            spec = specs.get(metric)
            if spec is None:
                continue
            p = samples(parents, workload, metric)
            c = samples(changes, workload, metric)
            bound = spec.get("bound")
            v = verdict(p, c, spec["better"], bound)
            any_worse |= v == "worse"
            pq, cq = quartiles(p), quartiles(c)
            delta = -worse_by(pq[1], cq[1], spec["better"])
            extra = wins(p, c, spec["better"]) if len(parents) > 1 else None
            lines.append(
                f"{workload:20s} {metric:40s} "
                f"{pq[1]:12.5g} [{pq[0]:9.4g}, {pq[2]:9.4g}] "
                f"{cq[1]:12.5g} [{cq[0]:9.4g}, {cq[2]:9.4g}] "
                f"{100 * delta:+7.1f}% "
                f"{'-' if bound is None else format(bound, '.0%'):>6s}  {v}"
                + (f"  {extra}" if extra else "")
            )
    return lines, any_worse


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    lines, any_worse = compare(records[0::2], records[1::2], load_specs())
    print("\n".join(lines))
    print("delta > 0 means the change is better; the bound is the allowed loss")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
