"""Exact host-cost gate: executed bytecode per simulator layer.

Wall-clock rates on a shared host drift by tens of percent between runs,
so they cannot gate a 5% slowdown.  This bench counts instead.  It runs a
fixed set of simulations and records, for each, every bytecode
instruction executed (``sys.settrace`` opcode events) and every call into
C (``sys.setprofile`` ``c_call`` events), folded by the module of the
code that ran them: ``noc.router``, ``noc.network``, ``gpu.core`` and so
on, the layer names of ``BENCHMARK.json``; code outside ``repro`` is
``other``.  It also records router visits, VC allocation attempts and
successful VC claims as call counts of ``Router.step``,
``Router._try_allocate`` and ``Router._commit_allocation``; attempts
minus claims are the allocations that failed.

Each simulation runs in a fresh interpreter with a fixed hash seed, so
the counts repeat exactly and the gate is equality with the table pinned
in ``results/bench_tables/BENCH_cost.json``.  The table is keyed by
Python minor version because bytecode differs between versions.

Opcodes are a proxy for host time.  A change that swaps Python work for
C calls (numpy, say) can cut opcodes without saving time, so it must
also show ``benchmarks/e2e`` wall clock.

Check, and re-pin after an intended change (explain it in CHANGES.md)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_cost.py
    python benchmarks/bench_cost.py --update
"""

import argparse
import ast
import concurrent.futures
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import _emit

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "..", "src")
TABLE = os.path.join(_emit.TABLES_DIR, "BENCH_cost.json")
PY = f"{sys.version_info.major}.{sys.version_info.minor}"

SEED = 3
HASH_SEED = "0"
WORKERS = 2

# The benchmark's workloads (benchmarks/e2e/workloads.py) with their
# cycle counts cut so the traced runs (15-25x slower than untraced) fit
# in a CI step.
CASES = {
    "fullsys-bfs-ari": {"warmup": 100, "cycles": 200},
    "fullsys-myocyte-xy": {"warmup": 100, "cycles": 400},
    "noc-reply-ramp": {"cycles": 300},
}
# Seconds-long case for the gate's self-tests; never pinned.
TINY = "noc-tiny"


# -- measuring (runs in the child interpreter) --------------------------------

def _simulation(case: str):
    """A no-argument callable that runs one case's simulation."""
    if case == TINY:
        from repro.noc import Network, NetworkConfig
        from repro.noc.topology import default_placement
        from repro.workloads.traffic import (
            ReplyTrafficPattern,
            SyntheticTrafficGenerator,
        )

        mcs, ccs = default_placement(4, 4, 4)
        net = Network(
            NetworkConfig(width=4, height=4, routing="adaptive",
                          accelerated_nodes=set(mcs)),
        )
        gen = SyntheticTrafficGenerator(
            net, ReplyTrafficPattern(mcs, ccs, seed=SEED), rate=0.2,
            seed=SEED + 1,
        )
        return lambda: gen.run(100)

    sys.path.insert(0, os.path.join(HERE, "e2e"))
    import workloads
    from repro.experiments import executor

    workload = dataclasses.replace(workloads.WORKLOADS[case], **CASES[case])
    if isinstance(workload, workloads.NocRamp):
        def ramp():
            for rate in workload.rates:
                _, gen = workload.build(SEED, rate, None)
                gen.run(workload.cycles)
        return ramp
    spec = workload.spec(SEED, None)
    return lambda: executor.simulate_spec(spec)


def count(run, package_dir: str) -> dict:
    """Run ``run()`` under the opcode tracer; returns the case's row."""
    # Keyed by id(): hashing a code object hashes its whole body, which
    # would make the tracer's cost grow with function size.  ``codes``
    # keeps every counted code object alive, so its id stays unique.
    codes = {}
    opcodes = defaultdict(int)
    calls = defaultdict(int)
    c_calls = defaultdict(int)

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[id(frame.f_code)] += 1
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        codes[id(code)] = code
        calls[id(code)] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def profile(frame, event, arg):
        if event == "c_call":
            code = frame.f_code
            codes[id(code)] = code
            c_calls[id(code)] += 1

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
        sys.setprofile(None)

    prefix = package_dir + os.sep

    def layer(code) -> str:
        path = code.co_filename
        if not path.startswith(prefix) or not path.endswith(".py"):
            return "other"
        name = path[len(prefix):-3].replace(os.sep, ".")
        return name[: -len(".__init__")] if name.endswith(".__init__") else name

    def fold(counts) -> dict:
        out = defaultdict(int)
        for key, n in counts.items():
            out[layer(codes[key])] += n
        return dict(sorted(out.items()))

    def router_calls(*names) -> int:
        return sum(
            n for key, n in calls.items()
            if codes[key].co_name in names and layer(codes[key]) == "noc.router"
        )

    return {
        "opcodes": fold(opcodes),
        "c_calls": fold(c_calls),
        "router_visits": router_calls("step"),
        "alloc_attempts": router_calls("_try_allocate"),
        "alloc_claims": router_calls("_commit_allocation"),
    }


def _child(case: str, src: str) -> None:
    sys.path.insert(0, src)
    import repro  # before workloads.py, which puts this checkout's src first

    run = _simulation(case)
    print(json.dumps(count(run, os.path.dirname(repro.__file__))))


# -- running and comparing (the parent) ---------------------------------------

def measure(case: str, src: str = SRC, hash_seed: str = HASH_SEED) -> dict:
    """One case's row, counted in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", case,
         os.path.abspath(src)],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{case} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_all() -> dict:
    """Every pinned case, ``WORKERS`` at a time."""
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        rows = list(pool.map(measure, CASES))
    return dict(zip(CASES, rows))


def _flat(row: dict) -> dict:
    """``{"opcodes": {"noc.router": n}}`` -> ``{"opcodes[noc.router]": n}``."""
    flat = {}
    for metric, value in row.items():
        if isinstance(value, dict):
            flat.update({f"{metric}[{layer}]": n for layer, n in value.items()})
        else:
            flat[metric] = value
    return flat


def diff(pinned: dict, measured: dict) -> list:
    """One line per count that differs; empty when the tables match."""
    lines = []
    for key in sorted(set(pinned) | set(measured)):
        if key not in pinned or key not in measured:
            side = "pinned" if key in pinned else "measured"
            lines.append(f"{key}: {side} only")
            continue
        old, new = _flat(pinned[key]), _flat(measured[key])
        for name in sorted(set(old) | set(new)):
            x, y = old.get(name, 0), new.get(name, 0)
            if x != y:
                rel = f", {(y - x) / x:+.2%}" if x else ""
                lines.append(f"{key}: {name} {x} -> {y} ({y - x:+d}{rel})")
    return lines


def load_table() -> dict:
    if not os.path.exists(TABLE):
        return {}
    with open(TABLE) as fh:
        return json.load(fh)


def update() -> dict:
    """Re-pin this Python version's table from a fresh measurement."""
    table = load_table()
    table[PY] = measure_all()
    _emit.write_bench_json("cost", table)
    return table[PY]


# -- the gate -----------------------------------------------------------------

def test_counts_match_pinned_table():
    pinned = load_table().get(PY)
    assert pinned is not None, (
        f"{TABLE} has no table for Python {PY}; pin one with "
        "`python benchmarks/bench_cost.py --update`"
    )
    lines = diff(pinned, measure_all())
    assert not lines, (
        "host cost changed:\n  " + "\n  ".join(lines) + "\nIf intended, "
        "re-pin with `python benchmarks/bench_cost.py --update` and say "
        "why in CHANGES.md."
    )


def _add_noop_to_router_step(router_py: str) -> None:
    """Insert a no-op statement as the first statement of ``Router.step``."""
    with open(router_py) as fh:
        lines = fh.read().splitlines(keepends=True)
    tree = ast.parse("".join(lines))
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "step"
    )
    first = fn.body[1]  # body[0] is the docstring
    lines.insert(first.lineno - 1, " " * first.col_offset + "now = now\n")
    with open(router_py, "w") as fh:
        fh.writelines(lines)


def test_seeded_regression_is_caught_and_named(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(
        os.path.join(SRC, "repro"), copy / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    _add_noop_to_router_step(str(copy / "repro" / "noc" / "router.py"))
    lines = diff({TINY: measure(TINY)}, {TINY: measure(TINY, src=str(copy))})
    assert lines
    assert all(line.startswith(TINY) for line in lines), lines
    assert any("opcodes[noc.router]" in line for line in lines), lines


def test_counts_independent_of_hash_seed():
    one = measure(TINY, hash_seed="1")
    two = measure(TINY, hash_seed="2")
    assert diff({TINY: one}, {TINY: two}) == []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--update", action="store_true",
                    help=f"re-pin the Python {PY} table in {TABLE}")
    ap.add_argument("--child", nargs=2, metavar=("CASE", "SRC"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        _child(*args.child)
        return 0
    if not args.update:
        ap.error("pass --update to re-pin; check with "
                 "`pytest benchmarks/bench_cost.py`")
    rows = update()
    print(f"pinned {len(rows)} cases for Python {PY} in {TABLE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
