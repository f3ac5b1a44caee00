"""Writer for the ``results/bench_tables/BENCH_*.json`` artifacts."""

import json
import os

TABLES_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "results", "bench_tables")
)


def write_bench_json(bench: str, data: dict) -> str:
    """Write ``data`` to ``BENCH_<bench>.json``, keys sorted; returns the path."""
    path = os.path.join(TABLES_DIR, f"BENCH_{bench}.json")
    os.makedirs(TABLES_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
