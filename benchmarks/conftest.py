"""Benchmark-suite configuration.

Every bench regenerates one paper figure/table at ``smoke`` scale (CI-sized
simulation budgets), times the full regeneration, writes the resulting
series to ``results/bench_tables/<name>.txt``, and asserts the figure's
qualitative *shape* (who wins, roughly by how much).  Run the paper-scale
versions via ``examples/reproduce_paper.py``.  Benches whose tables hold
host timings pass ``_emit.HOST_DIR`` so a run leaves the tracked tree
unchanged.
"""

import os

import _emit
import pytest


@pytest.fixture
def save_table():
    def _save(name: str, payload: dict, directory: str = _emit.TABLES_DIR) -> None:
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(payload.get("table", "") + "\n\n")
            fh.write(f"summary: {payload.get('summary')}\n")
            fh.write(f"paper:   {payload.get('paper')}\n")

    return _save


@pytest.fixture(autouse=True)
def bench_cache(tmp_path):
    """Redirect the result store so benches never clobber paper-scale results.

    Each bench gets a fresh :class:`ResultStore` rooted in a temp dir,
    preloaded with the session-shared memory layer, so figure drivers
    that share a sweep (Figs. 10-13) reuse each other's runs while the
    first timing of each is still honest.
    """
    from repro.experiments.store import ResultStore, set_default_store

    store = ResultStore(
        os.path.join(
            os.environ.get("PYTEST_BENCH_CACHE_DIR", str(tmp_path)),
            "bench_cache",
        ),
        migrate=False,
    )
    store.preload(_session_cache)
    previous = set_default_store(store)
    yield
    _session_cache.clear()
    _session_cache.update(store.memory_snapshot())
    set_default_store(previous)


_session_cache: dict = {}
