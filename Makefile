# Convenience targets for the ARI reproduction.

PY ?= python

.PHONY: install test check flowcheck bench figures figures-paper telemetry-demo sweep-demo faults-demo search-demo cost clean-cache loc help

help:
	@echo "make install        editable install"
	@echo "make test           full unit/integration/property suite"
	@echo "make check          static model checks + code lints (+ ruff if installed)"
	@echo "make flowcheck      CI's repro-check job: model checks + all code lints, strict"
	@echo "make bench          regenerate every figure at CI scale"
	@echo "make figures        regenerate figures at quick scale (9 benchmarks)"
	@echo "make figures-paper  full 30-benchmark regeneration (~1h)"
	@echo "make telemetry-demo time-series telemetry, baseline vs ARI"
	@echo "make sweep-demo     parallel design-space sweep across 2 workers"
	@echo "make faults-demo    degradation campaign: dead links, detour routing"
	@echo "make search-demo    design-space exploration: strategies vs the ARI default"
	@echo "make cost           exact per-layer opcode counts vs the pinned table"
	@echo "make clean-cache    drop the simulation result cache"
	@echo "make loc            count lines of code"

install:
	pip install -e .[test]

test:
	$(PY) -m pytest tests/

# Ruff (when available) plus the CI repro-check job.
check:
	@command -v ruff >/dev/null 2>&1 && ruff check src tests || \
		echo "ruff not installed; skipping style pass"
	$(MAKE) flowcheck

# Mirrors CI's `repro-check` job exactly: the pre-run model checks for
# every registered scheme, then all code lints (determinism, unit
# inference, credit conservation, pool captures) strict against the
# committed staticcheck-baseline.json.
flowcheck:
	PYTHONPATH=src $(PY) -m repro check --all-schemes --json -
	PYTHONPATH=src $(PY) -m repro check --code src/repro --strict --json -

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

figures:
	$(PY) examples/reproduce_paper.py quick

figures-paper:
	$(PY) examples/reproduce_paper.py paper

# The Fig. 6 dynamic as time series: NI queues pin under the baseline,
# flatten under ARI.
telemetry-demo:
	$(PY) -m repro telemetry --benchmark bfs --scheme baseline \
		--cycles 800 --mesh 4 --interval 100
	$(PY) -m repro telemetry --benchmark bfs --scheme ari \
		--cycles 800 --mesh 4 --interval 100

# A small VC x speedup grid sharded across two worker processes.
sweep-demo:
	$(PY) -m repro sweep bfs ada-ari \
		--axis num_vcs=2,4 --axis injection_speedup=1,2 \
		--workers 2 --cycles 600 --mesh 4

# Kill 0/1/2 reply-mesh links (same cut for both schemes) and compare
# how gracefully baseline XY vs. ARI degrade with detour routing on.
faults-demo:
	$(PY) -m repro faults --benchmark bfs \
		--schemes xy-baseline,ada-ari --dead-links 0,1,2 \
		--cycles 600 --mesh 4 --workers 2

# Budgeted search over the ARI knob triple: a hillclimb hunts a config
# beating the paper defaults, then the same search replays for free from
# the result store and the trial ledger.
search-demo:
	PYTHONPATH=src $(PY) examples/search_demo.py

# The host-cost gate (part of CI's `benches` job): exact per-layer opcode
# and C-call counts of fixed runs vs results/bench_tables/BENCH_cost.json.
# Re-pin after an intended change with `python benchmarks/bench_cost.py --update`.
cost:
	PYTHONPATH=src $(PY) -m pytest -q benchmarks/bench_cost.py

clean-cache:
	rm -rf results/cache results/cache.json

loc:
	@find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
