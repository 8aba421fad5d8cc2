# Developer entry points. `make check` is the one-stop health check
# (tier-1 tests + quality gate + quick perf); it delegates to
# `graphalytics selfcheck` so the CLI and the Makefile cannot drift.

PYTHON ?= python
export PYTHONPATH := src

COVERAGE_FLOOR := $(shell cat .coverage-floor 2>/dev/null || echo 0)

.PHONY: check test test-fast differential quality quality-fixtures \
	audit audit-fixtures perf whatif-smoke coverage

check:
	$(PYTHON) -m repro.cli selfcheck

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Full differential sweep: every platform x every pooled graph against
# the reference implementations, including the slow LDBC cells
# (8 platforms x 20 weighted graphs x PR/SSSP/LCC) and the fault-retry
# sweep. CI runs this as its own named step.
differential:
	$(PYTHON) -m pytest -x -q tests/differential

# Same flags as CI's quality step: the gate plus the per-rule cost table.
quality:
	$(PYTHON) -m repro.cli quality --check --baseline .quality-baseline.json --profile-rules

# Regenerate the expected-findings goldens for the analysis fixture
# corpus, including auto-discovered sub-corpora (audit/, units/) that
# ship their own regen.py; review the diff like any golden update.
quality-fixtures:
	$(PYTHON) tests/analysis/fixtures/regen.py

# Benchmark self-audit: SoK fault-taxonomy rules over the shipped
# experiment configuration, gated against the committed baseline.
audit:
	$(PYTHON) -m repro.cli audit configs --check --baseline .audit-baseline.json

audit-fixtures:
	$(PYTHON) tests/analysis/fixtures/audit/regen.py

# Quick harness for a local signal, then the tracked floors (frontier
# and all-active PageRank kernels, the columnar MapReduce shuffle, the
# STATS triangle kernels, scale-18 datagen, and mmap graph load) — the
# same suite CI's "Performance floors" step runs.
perf:
	$(PYTHON) -m repro.cli perf --quick
	$(PYTHON) -m pytest -x -q benchmarks/perf

# Hardware what-if smoke: execute giraph BFS once, re-cost it under
# the network-tier profiles, and render the sweep table. Exercises the
# profile registry, the exact re-coster, and dominant-component
# attribution in one command.
whatif-smoke:
	$(PYTHON) -m repro.cli whatif --platforms giraph --graphs graph500-8 \
		--algorithms BFS --profiles paper-1gbe,10gbe,rdma

# Line-coverage report with a checked-in floor (.coverage-floor, in
# percent). pytest-cov is an optional dependency: when it is not
# installed (this repo's pinned environment ships without it), the
# target reports that and exits zero instead of failing the build.
coverage:
	@if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q -m "not slow" \
			--cov=repro --cov-report=term \
			--cov-fail-under=$(COVERAGE_FLOOR); \
	else \
		echo "coverage: pytest-cov not installed; skipping" \
		     "(floor when available: $(COVERAGE_FLOOR)%)"; \
	fi
