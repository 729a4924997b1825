# Single-command runners for the repository (no tox/nox needed).
PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-all test-scenarios chaos docs kernels fingerprints importtime hooks bench-batch bench-qd bench-eval bench-shard bench-start bench-tables bench-json

# Build (or confirm) the cached dd/qd plane kernels ahead of the first
# import and print the contexts whose plan tapes and batched linear solves
# run natively; fails when no kernels could be built or the d tape or the
# d solve was declined (a host whose NumPy rounds complex products,
# divisions or magnitudes differently must fail loudly, not run slower).
kernels:
	$(PY) -W error::RuntimeWarning -c "from repro.multiprec import compiled; print(compiled.KERNELS.__file__); print('tape contexts:', ' '.join(c for c in ('d', 'dd', 'qd') if c in compiled.TAPE_CONTEXTS)); print('solve contexts:', ' '.join(c for c in ('d', 'dd', 'qd') if c in compiled.SOLVE_CONTEXTS)); assert 'd' in compiled.TAPE_CONTEXTS, 'd tape declined'; assert 'd' in compiled.SOLVE_CONTEXTS, 'd solve declined'"

# One line per SolveReport over the repository benchmark's seed-0 inputs
# (the 14 scenarios at d, the 7 tier-1 scenarios up the default ladder,
# all 14 up the default ladder, and the 14 at d with the tangent
# predictor): a sha256 over the whole report, then one over its solutions
# alone.  A fifth set, scalar, hashes the scalar PathTracker's paths from
# the first two start solutions of each of the 7 tier-1 cases at d, dd
# and qd, one line per case and context (the route switches below act on
# the four solve sets only).  A change that must not move any answer
# prints the same lines as its parent; one that only reclassifies failed
# paths keeps the second hash.  tools/fingerprint_reports.py --help lists
# the route switches: --solve-off and --kernels-off print the same lines
# through the Python solves and the dd/qd reference chains (run them on
# all four solve sets; only the two ladder sets reach dd/qd), and
# --sharded N solves every case through solve_system_sharded with N shards
# on one two-worker pool and must print the in-process lines;
# --kill-level L (only with --sharded) kills shard 0's worker on entry to
# ladder level L in every case, so that shard resumes from the checkpoint
# store at rung L, and must print them too.
fingerprints:
	$(PY) tools/fingerprint_reports.py

# Where a fresh process spends its import time: the 20 largest cumulative
# `python -X importtime` entries (microseconds) of `import repro.tracking`
# and of `import repro.service`, so a module that couples the solve path
# to the simulated GPU, the bench sweeps or the service again shows up by
# name.  No gate: tests/test_import_contract.py pins the module sets.
importtime:
	@for module in repro.tracking repro.service; do \
		echo "import $$module: largest cumulative import times (us)"; \
		$(PY) -X importtime -c "import $$module" 2>&1 >/dev/null \
			| grep '^import time:' | sort -t'|' -k2 -n -r | head -20; \
	done

# The repository benchmark's hook check: one 1 s traced perfbench run of
# each workload (seed 0).  A traced run exits non-zero when a
# perfbench/layers.py hook does not resolve or never fires on a workload
# that must fire it, a hook's probe raises, or an operation fails; print
# each run's HOOK and FAILED lines (and the tail of a run that exits
# non-zero without one) and fail if any run exited non-zero.
hooks:
	@status=0; for workload in solve-d escalate-qd serve-family; do \
		out=$$($(PY) perfbench/run.py --workload $$workload --seed 0 \
			--seconds 1 --trace 1 2>&1); code=$$?; \
		echo "perfbench $$workload: exit $$code"; \
		echo "$$out" | grep -E '^(HOOK|FAILED) '; \
		if [ $$code -ne 0 ]; then \
			echo "$$out" | grep -qE '^(HOOK|FAILED) ' \
				|| echo "$$out" | tail -20; \
			status=1; \
		fi; \
	done; exit $$status

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
