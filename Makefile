# Convenience targets for the KGAG reproduction.

PYTHON ?= python
PROFILE ?= default

.PHONY: install dev test lint docs-check ckpt-smoke race-smoke stream-smoke par-smoke load-smoke perfbench-test verify analysis-report obs-report bench bench-calibrated bench-report bench-report-compile bench-report-parallel bench-smoke bench-stream bench-load serve-smoke examples experiments clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

dev: install
	$(PYTHON) -m pip install pytest pytest-benchmark hypothesis

test:
	$(PYTHON) -m pytest tests/

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.lint src tests benchmarks examples

docs-check:
	PYTHONPATH=src $(PYTHON) tools/check_docs.py

# Train 2 epochs -> kill -> resume -> assert bit-exact vs a straight run.
ckpt-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.core.ckpt_smoke

# Multi-thread stress over the serve/obs objects under the lockset detector.
race-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.race_smoke

# World -> serve -> ingest a cold-item delta -> assert it is recommendable.
stream-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.stream.smoke

# Train at workers=2 -> assert no leaked shm, determinism, metrics parity.
par-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.core.par_smoke

# 2-worker mmap pool -> bounded burst -> assert 429 shedding + parity + no leaks.
load-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve.load_smoke

# The benchmark's own tests (outside the tier-1 testpaths, ~3 s).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

verify: test lint docs-check ckpt-smoke race-smoke stream-smoke par-smoke load-smoke perfbench-test

analysis-report:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.report

obs-report:
	PYTHONPATH=src $(PYTHON) -m repro.obs.report

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-calibrated:
	REPRO_BENCH_PROFILE=$(PROFILE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Timed hot-path report: merges medians + profiler table into BENCH_PR4.json.
bench-report:
	PYTHONPATH=src $(PYTHON) tools/bench_report.py --record after

# Compiled-vs-dynamic train-step pair -> BENCH_PR8.json.
bench-report-compile:
	PYTHONPATH=src $(PYTHON) tools/bench_report.py --record compiled-pair

# Worker-scaling curve (1/2/4/8 workers) -> BENCH_PR9.json.
bench-report-parallel:
	PYTHONPATH=src $(PYTHON) tools/bench_report.py --record parallel

# Delta-to-serve latency breakdown -> BENCH_STREAM.json.
bench-stream:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_stream.py

# Closed-loop QPS/latency curve over 1/2/4 pool workers -> BENCH_SERVE.json.
bench-load:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_load.py

# Correctness-only pass over every benchmark body (no timing loops).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ tests/test_bench_smoke.py --benchmark-disable -q

serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve.smoke

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/movie_night.py
	$(PYTHON) examples/yelp_outing.py
	$(PYTHON) examples/explain_group_decision.py

experiments:
	$(PYTHON) -m repro.experiments.table1_datasets   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table2_overall    --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table3_ablation   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.table4_aggregator --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig4_margin_depth --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig5_beta_dim     --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.fig6_case_study   --profile $(PROFILE)
	$(PYTHON) -m repro.experiments.ext_cold_items    --profile $(PROFILE)

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
