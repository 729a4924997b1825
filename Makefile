# Single-command runners for the repository (no tox/nox needed).
PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-all test-scenarios chaos docs kernels fingerprints bench-batch bench-qd bench-eval bench-shard bench-start bench-tables bench-json

# Build (or confirm) the cached dd/qd plane kernels ahead of the first
# import and print the contexts whose plan tapes and batched linear solves
# run natively; fails when no kernels could be built or the d tape or the
# d solve was declined (a host whose NumPy rounds complex products,
# divisions or magnitudes differently must fail loudly, not run slower).
kernels:
	$(PY) -W error::RuntimeWarning -c "from repro.multiprec import compiled; print(compiled.KERNELS.__file__); print('tape contexts:', ' '.join(c for c in ('d', 'dd', 'qd') if c in compiled.TAPE_CONTEXTS)); print('solve contexts:', ' '.join(c for c in ('d', 'dd', 'qd') if c in compiled.SOLVE_CONTEXTS)); assert 'd' in compiled.TAPE_CONTEXTS, 'd tape declined'; assert 'd' in compiled.SOLVE_CONTEXTS, 'd solve declined'"

# One sha256 line per SolveReport over the repository benchmark's seed-0
# inputs (the 14 scenarios at d, the 7 tier-1 scenarios up the default
# ladder).  A change that must not move any answer prints the same lines as
# its parent; tools/fingerprint_reports.py --help lists the route switches.
fingerprints:
	$(PY) tools/fingerprint_reports.py

# Tier-1: the fast suite (pytest.ini deselects @pytest.mark.slow).
test:
	$(PY) -m pytest -q

# The slow full scenario matrix: every registry scenario (matrix extras
# included) through the differential suite.
test-scenarios:
	$(PY) -m pytest -q -m scenario_matrix

# Chaos drills: the full fault-injection matrix -- every FaultInjection
# mode (kill, hang, slow, corrupt-checkpoint, store-io-error) crossed
# with every checkpoint store backend (memory, file-json, file-npz); each
# cell must end bit-for-bit identical to the single-process solver or
# with an explicitly recorded degradation.
chaos:
	$(PY) -m pytest -q -m chaos tests/service/test_chaos_matrix.py

# Everything, including tests marked slow, plus the documentation check and
# the checked-in benchmark-report validation.
test-all:
	$(PY) -m pytest -q -m "slow or not slow"
	$(PY) tools/check_docs.py
	$(PY) tools/check_bench.py

# Documentation health: execute every code block of README.md and docs/*.md
# (stale snippets fail the build) and re-run the example smoke tests.
docs:
	$(PY) tools/check_docs.py
	$(PY) -m pytest tests/test_examples.py -q

# Batched path-tracking throughput sweep (paths/sec vs batch size).
bench-batch:
	$(PY) benchmarks/bench_batch_tracking.py

# Compiled QD/DD arithmetic: per-op compiled-vs-reference speedups at batch
# 8/64/256 and end-to-end qd tracker wall throughput vs the checked-in
# baseline.
bench-qd:
	$(PY) benchmarks/bench_qd_arith.py

# Compiled evaluation plans: plan-vs-walk op counts, evaluate_batch
# throughput per rung, and end-to-end qd tracker wall with plans on/off.
bench-eval:
	$(PY) benchmarks/bench_eval_plan.py

# Sharded solve service: paths/sec vs worker count plus the crash-recovery
# drill (bit-for-bit identity with the single-process solver).
bench-shard:
	$(PY) benchmarks/bench_shard.py

# Start strategies: total-degree vs diagonal paths/wall per scenario, and
# warm parameter-homotopy family serving vs cold solves.
bench-start:
	$(PY) benchmarks/bench_start.py

# Machine-readable perf trajectory: batch-tracking, escalation, compiled
# qd-arithmetic and sharded-service sweeps as JSON (paths/sec per context,
# batch size and worker count; per-rung escalation pricing; compiled-kernel
# speedups; crash-drill accounting).  Every solve-level report also sweeps
# the scenario registry (repro.bench.scenarios) into a per-scenario
# matrix, validated by tools/check_bench.py.
bench-json:
	$(PY) benchmarks/bench_batch_tracking.py --json BENCH_batch_tracking.json
	$(PY) benchmarks/bench_escalation.py --json BENCH_escalation.json
	$(PY) benchmarks/bench_qd_arith.py --json BENCH_qd_arith.json
	$(PY) benchmarks/bench_eval_plan.py --json BENCH_eval_plan.json
	$(PY) benchmarks/bench_shard.py --json BENCH_shard.json
	$(PY) benchmarks/bench_start.py --json BENCH_start.json

# Regenerate the paper-table benchmarks (explicit file list: bench_* files
# are not collected by default).
bench-tables:
	$(PY) -m pytest benchmarks/bench_table1.py benchmarks/bench_table2.py -q -s
