# Developer entry points. `make check` is the one-stop health check
# (tier-1 tests + quality gate + quick perf); it delegates to
# `graphalytics selfcheck` so the CLI and the Makefile cannot drift.

PYTHON ?= python
export PYTHONPATH := src

COVERAGE_FLOOR := $(shell cat .coverage-floor 2>/dev/null || echo 0)

.PHONY: check test test-fast differential quality quality-fixtures \
	audit audit-fixtures perf trace-smoke whatif-smoke coverage

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

quality:
	$(PYTHON) -m repro.cli quality --check --baseline .quality-baseline.json

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
# and all-active PageRank kernels, the columnar MapReduce shuffle,
# scale-18 datagen, and mmap graph load) — the same suite CI's
# "Performance floors" step runs.
perf:
	$(PYTHON) -m repro.cli perf --quick
	$(PYTHON) -m pytest -x -q benchmarks/perf

# End-to-end observability smoke: run one tiny traced benchmark with
# repetitions and a warmup, check that the fault-free cell executed
# once (its trace holds exactly one run block), summarize the trace,
# and self-compare it under the regression gate (any flagged
# regression against itself is a tracing bug).
TRACE_SMOKE_DIR := .trace-smoke
trace-smoke:
	rm -rf $(TRACE_SMOKE_DIR)
	$(PYTHON) -m repro.cli run --platforms giraph --graphs graph500-8 \
		--algorithms BFS --repetitions 3 --warmup 1 \
		--trace $(TRACE_SMOKE_DIR) \
		--report $(TRACE_SMOKE_DIR)/report.txt >/dev/null
	$(PYTHON) -m repro.cli trace $(TRACE_SMOKE_DIR)/giraph_graph500-8_BFS.jsonl \
		| tee $(TRACE_SMOKE_DIR)/summary.txt
	test "$$(grep -c '^attempt ' $(TRACE_SMOKE_DIR)/summary.txt)" = 1
	$(PYTHON) -m repro.cli analyze --check \
		$(TRACE_SMOKE_DIR)/giraph_graph500-8_BFS.jsonl \
		$(TRACE_SMOKE_DIR)/giraph_graph500-8_BFS.jsonl
	rm -rf $(TRACE_SMOKE_DIR)

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
