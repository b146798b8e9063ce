# Convenience targets for the KGAG reproduction.

PYTHON ?= python
PROFILE ?= default

.PHONY: install dev test lint docs-check race-smoke perfbench-test verify analysis-report obs-report bench bench-calibrated bench-smoke bench-load examples experiments clean

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

# Multi-thread stress over the serve/obs objects under the lockset detector.
race-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.race_smoke

# The benchmark's own tests (outside the tier-1 testpaths, ~3 s).
perfbench-test:
	$(PYTHON) -m pytest perfbench/tests -q

verify: test lint docs-check race-smoke perfbench-test bench-smoke

analysis-report:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.report

obs-report:
	PYTHONPATH=src $(PYTHON) -m repro.obs.report

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-calibrated:
	REPRO_BENCH_PROFILE=$(PROFILE) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Closed-loop QPS/latency curve over 1/2/4 pool workers -> BENCH_SERVE.json.
bench-load:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_load.py

# Correctness-only pass over every benchmark body (no timing loops).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/movie_night.py
	PYTHONPATH=src $(PYTHON) examples/yelp_outing.py
	PYTHONPATH=src $(PYTHON) examples/explain_group_decision.py

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
