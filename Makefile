# StreamPIM reproduction — common tasks.

PYTHON ?= python

.PHONY: install test lint check check-deep faults-smoke profile-smoke gates bench figures docs examples clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

lint:
	$(PYTHON) -m repro.cli lint

check:
	$(PYTHON) -m repro.cli check --all-workloads --strict --scale 0.01

# Per-VPC rules plus the whole-trace dataflow pass (SPV008-SPV012).
check-deep:
	$(PYTHON) -m repro.cli check --all-workloads --deep --strict --scale 0.01

faults-smoke:
	$(PYTHON) -m repro.cli faults campaign gemm --scale 0.01 --runs 16 \
		--p-per-step 2e-6 -o FAULTS_campaign.json

profile-smoke:
	$(PYTHON) -m repro.cli profile gemm --scale 0.05 -o trace.json

# Timed performance and resilience gates (tests/test_gates.py): engine
# and lowering speedups over the oracles, trace cache, streaming, deep
# analysis budget, analytic sweep, and the serving chaos, batching and
# fairness gates.
gates:
	$(PYTHON) -m pytest -m slow -q tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

figures:
	$(PYTHON) examples/paper_figures.py

docs:
	$(PYTHON) tools/gen_api_docs.py

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
