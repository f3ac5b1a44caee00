"""End-to-end benchmark of the simulator: four workloads, checked outputs.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--seed N] [--trace] [--out FILE]
    python benchmarks/e2e/run.py --workload NAME [--seed N] [--seconds S]
                                 [--trace 0|1] [--out FILE]
    python benchmarks/e2e/run.py --update-golden

Without ``--workload`` every workload runs in its own subprocess and a
combined result file is written (``--out``, default
``benchmarks/e2e/out/result-seed<N>[-trace].json``).  With ``--workload``
one workload runs in this process.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any operation failed.

``--trace`` swaps the end-to-end metrics for per-layer ones, measured by
wrapping each layer's public methods (see ``tracer.py``), and writes the
spans to ``benchmarks/e2e/out/trace-<workload>.json``.  ``--update-golden``
re-pins the seed-3 result digests; only a change to the model may do it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
DEFAULT_SECONDS = 25
WORKLOAD_NAMES = (
    "fullsys-bfs-ari", "fullsys-myocyte-xy", "noc-reply-ramp", "fig11-smoke",
)

#: Settings a user's shell may carry that would change what is measured.
SCRUBBED_ENV = (
    "REPRO_KERNEL", "REPRO_WORKERS", "REPRO_CACHE", "REPRO_STATICCHECK",
    "REPRO_CHECK_INVARIANTS",
)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        # Without bytecode caches every setup probe recompiles the sources.
        "bytecode_cache": not sys.dont_write_bytecode,
    }


def contract_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def print_record(record: dict) -> None:
    name = record["workload"]
    counts = record["sample_counts"]
    print(f"== {name}  seed={record['seed']}  rounds={record['rounds']}")
    for metric, m in record["metrics"].items():
        n = counts.get(metric)
        suffix = f"  (n={n})" if n else ""
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}{suffix}")
    for metric, m in record.get("tail", {}).items():
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']}  (n={m['n']}, not gated)")
    for key, value in sorted(record["sim"].items()):
        print(f"  sim {key:38s} {value:14.6g}")
    for layer, share in record.get("layers", {}).items():
        print(f"  self-time share {layer:27s} {100 * share:13.1f}%")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} ops)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_one(args) -> int:
    import workloads

    if args.probe_setup:
        # Fresh interpreter -> import -> first system built, ready to step.
        workloads.WORKLOADS[args.workload].setup(args.seed)
        print(time.monotonic_ns())
        return 0
    record = workloads.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace)
    )
    trace_json = record.pop("trace_json", None)
    if trace_json is not None:
        write_json(OUT / f"trace-{args.workload}.json", trace_json)
    print_record(record)
    if args.out:
        write_json(Path(args.out), {
            "host": host_facts(), "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "workloads": {args.workload: record},
        })
    print(contract_line(record))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in a subprocess of its own; one combined file."""
    records, ok = {}, True
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOAD_NAMES:
            part = Path(tmp) / f"{name}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            # Everything but the child's contract line (printed below).
            print(proc.stdout.rstrip().rpartition("\n")[0], flush=True)
            if not part.is_file():
                print(f"== {name}: exited {proc.returncode} without a result")
                ok = False
                continue
            with open(part) as fh:
                records[name] = json.load(fh)["workloads"][name]
            ok = ok and proc.returncode == 0 and records[name]["correct"]
    suffix = "-trace" if args.trace else ""
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}{suffix}.json"
    write_json(out, {
        "host": host_facts(), "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "workloads": records,
    })
    print(f"host: {json.dumps(host_facts())}")
    print(f"wrote {out}")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {n: r["metrics"] for n, r in records.items()},
    }))
    return 0 if ok and len(records) == len(WORKLOAD_NAMES) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--update-golden", action="store_true")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.update_golden:
        import workloads

        print(json.dumps(workloads.update_golden(), indent=1))
        return 0
    if args.workload:
        return run_one(args)
    if args.probe_setup:
        parser.error("--probe-setup needs --workload")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
