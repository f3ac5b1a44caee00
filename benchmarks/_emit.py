"""Writer for the ``BENCH_*.json`` artifacts.

Tables that repeat run to run live in ``results/bench_tables/`` and are
tracked.  Host wall-clock timings differ on every run, so benches that
record them write to ``results/host_timings/``, which git ignores.
"""

import json
import os

_RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")
TABLES_DIR = os.path.abspath(os.path.join(_RESULTS, "bench_tables"))
HOST_DIR = os.path.abspath(os.path.join(_RESULTS, "host_timings"))


def write_bench_json(bench: str, data: dict, directory: str = TABLES_DIR) -> str:
    """Write ``data`` to ``BENCH_<bench>.json``, keys sorted; returns the path."""
    path = os.path.join(directory, f"BENCH_{bench}.json")
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
