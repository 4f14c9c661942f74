PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint skylint skylint-baseline skylint-sarif skylint-timing \
	typecheck test coverage chaos bench-smoke \
	bench-filtered serve-smoke trace-smoke shard-smoke live-smoke

# Single entry point: ruff (when installed) + the repo-native skylint
# pass.  Mirrors the CI lint gates.
lint: skylint
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; then \
		$(PYTHON) -m ruff check . || exit 1; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi

# Incremental by default: unchanged files (and unchanged dependency
# closures, for the call-graph rules) replay cached findings.  Stale
# allowlist entries fail the run so suppressions never fossilise.
skylint:
	$(PYTHON) -m repro.analysis src/repro \
		--cache-dir .skylint_cache --fail-on-stale-allowlist

# Adopt-the-linter workflow: record today's findings, then gate only
# on new ones (see docs/ANALYSIS.md, "Baselines").
skylint-baseline:
	$(PYTHON) -m repro.analysis src/repro \
		--write-baseline skylint-baseline.json

# SARIF 2.1.0 for GitHub code scanning (uploaded by the CI job).
skylint-sarif:
	$(PYTHON) -m repro.analysis src/repro \
		--cache-dir .skylint_cache --format sarif > skylint.sarif

# Cold-vs-warm timing gate; writes results/skylint_timing.txt and
# requires the warm full run < 5 s and >= 5x faster than cold.
skylint-timing:
	$(PYTHON) benchmarks/bench_skylint_timing.py

typecheck:
	$(PYTHON) -m mypy -p repro.core -p repro.templates -p repro.engine \
		-p repro.analysis -p repro.serve -p repro.trace -p repro.config \
		-p repro.shard

test:
	$(PYTHON) -m pytest -x -q

# Coverage gate over the serving stack (mirrors the CI coverage job):
# serve/trace/config/shard must stay >=85% line-covered by tests/.
coverage:
	$(PYTHON) -m pytest tests -q \
		--cov=repro.serve --cov=repro.trace --cov=repro.config \
		--cov=repro.shard \
		--cov-report=term-missing --cov-fail-under=85

# Worker-kill chaos tests (skipped by plain `make test`): SIGKILL a
# pool worker mid-batch, require retry/serial recovery, a WorkerDeath
# trace event, and bit-identical results.
chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -q --executor process

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_headline.py \
		benchmarks/bench_parallel_scaling.py \
		benchmarks/bench_kernels_packed.py \
		benchmarks/bench_filtered_packed.py \
		benchmarks/bench_dynamic_topk.py \
		benchmarks/bench_sorted_filter.py \
		-q --quick --executor process --benchmark-disable

# Full-size filtered-vs-packed acceptance run (writes
# results/filtered_packed.txt; several minutes).
bench-filtered:
	$(PYTHON) -m pytest benchmarks/bench_filtered_packed.py \
		-q --benchmark-disable

# End-to-end serving smoke: real server process, real TCP, 500 mixed
# queries, live updates, clean SIGTERM drain (see benchmarks/serve_smoke.py).
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py

# Same smoke with the jsonl tracer on, then gate the trace on the
# failure taxonomy (mirrors the CI trace-smoke job).
trace-smoke:
	$(PYTHON) benchmarks/serve_smoke.py --trace trace-smoke.jsonl
	$(PYTHON) -m repro trace analyze trace-smoke.jsonl \
		--fail-on InternalError,unclassified

# Live write-path smoke: serve --live as a real subprocess, one
# mutator + two reader threads over TCP, delta publishes crossing
# compaction boundaries, skyline_diff cancellation, SIGTERM drain,
# then the failure-taxonomy gate over the trace (mirrors the CI
# live-smoke job; see benchmarks/live_smoke.py and docs/LIVE_UPDATES.md).
live-smoke:
	$(PYTHON) benchmarks/live_smoke.py --trace live-smoke.jsonl
	$(PYTHON) -m repro trace analyze live-smoke.jsonl \
		--fail-on InternalError,unclassified

# Sharded-tier smoke: serve --shards 2 as a real subprocess over TCP,
# bit-identical answers, SIGTERM drain, trace analyze over the
# stitched fan-out (mirrors the CI shard-smoke job).
shard-smoke:
	$(PYTHON) benchmarks/shard_smoke.py
