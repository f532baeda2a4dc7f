# Convenience targets for the reproduction.

.PHONY: install test lint verify claims bench pipeline-bench bench-test store-bench runtime-bench stream-bench service-bench tier-bench replica-bench chaos-soak daemon-soak examples outputs clean

install:
	pip install -e .

test:
	pytest tests/ -q

# Ruff when available; otherwise fall back to a syntax pass so the
# target still catches broken files on minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; falling back to python -m compileall"; \
		python -m compileall -q src tests benchmarks; \
	fi

# The tier-1 gate: the full suite, failing fast.
verify:
	PYTHONPATH=src python -m pytest -x -q

# The seed-7 paper-claim checks: every shape the reproduction asserts
# against the paper, on the five-dataset study (about a minute).
CLAIMS = test_http test_netfile test_tables_broad test_email_nameservices \
	test_windows test_backup_load test_scanfilter_origins test_ablations

claims:
	PYTHONPATH=src python -m pytest -q --benchmark-disable \
		$(addprefix benchmarks/,$(addsuffix .py,$(CLAIMS)))

bench:
	pytest benchmarks/ --benchmark-only

# The pipeline benchmark (bench/README.md): every workload in
# BENCHMARK.json, end-to-end metrics per run.  Takes several minutes.
pipeline-bench:
	python3 bench/run.py

# The pipeline benchmark's own tests (about half a minute).
bench-test:
	python3 -m pytest bench/test_bench.py -q

# Cold generate-and-parse vs warm shard-backed study (asserts >=3x).
store-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_store_roundtrip.py -q -s

# Sequential vs --jobs N study wall clock; writes BENCH_runtime.json.
runtime-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_throughput.py::TestRuntimeScaling -q -s

# Ingest engine throughput + peak memory on traces 4x apart; writes BENCH_stream.json.
stream-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_stream_bench.py -q -s

# HTTP service under concurrent load: p50/p95/p99 latency for >=8
# simulated users, cache hit >=5x faster than cold (byte-identical),
# saturated job queue answering 429; writes BENCH_service.json.
service-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_service_bench.py -q -s

# Checkpoint batch-chain compaction on a three-root tiered store (the
# chain must fold to one shard); writes BENCH_tier.json.
tier-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_tier_bench.py -q -s

# Read latency with one of three roots dead (replicas=2, ceiling 5x over
# healthy) and bulk replica-repair throughput; writes BENCH_replica.json.
replica-bench:
	PYTHONPATH=src python -m pytest benchmarks/test_replica_bench.py -q -s

# Crash-point soak: fixed-seed fault schedules kill CLI runs
# mid-publication and mid-checkpoint, resumed runs must be byte-identical
# to clean ones, and a post-soak scrub must come back clean.
chaos-soak:
	PYTHONPATH=src python -m pytest benchmarks/test_chaos_soak.py -q -s

# Daemon chaos soak: SIGKILL a paced 2-tenant daemon mid-window under a
# fixed-seed fault plane, restart it, per-tenant window digests must be
# byte-identical to an uninterrupted run; a poison tenant must be
# quarantined without touching its neighbor; post-soak store scrubs clean.
daemon-soak:
	PYTHONPATH=src python -m pytest benchmarks/test_daemon_soak.py -q -s

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex; done

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf benchmarks/output .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
