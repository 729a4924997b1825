"""Tests for the multicore (partition-and-merge) evaluator."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import ConfigurationError, WorkerExecutionError
from repro.core import (
    CPUReferenceEvaluator,
    MulticoreEvaluator,
    partition_monomials,
)
from repro.multiprec import DOUBLE_DOUBLE
from repro.polynomials import random_point, random_regular_system


class TestPartition:
    def test_partition_covers_all_monomials(self, small_system):
        chunks = partition_monomials(small_system, 4)
        assert len(chunks) == 4
        total = sum(len(c) for c in chunks)
        assert total == small_system.total_monomials
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_single_worker_gets_everything(self, small_system):
        chunks = partition_monomials(small_system, 1)
        assert len(chunks) == 1
        assert len(chunks[0]) == small_system.total_monomials

    def test_more_workers_than_monomials(self):
        system = random_regular_system(2, 1, 1, 1, seed=0)
        chunks = partition_monomials(system, 8)
        assert sum(len(c) for c in chunks) == 2
        assert sum(1 for c in chunks if c) == 2

    def test_invalid_worker_count(self, small_system):
        with pytest.raises(ConfigurationError):
            partition_monomials(small_system, 0)
        with pytest.raises(ConfigurationError):
            MulticoreEvaluator(small_system, workers=0)

    def test_partition_computed_once_at_construction(self, small_system,
                                                     small_point, monkeypatch):
        """The static work partition must not be recomputed per evaluation."""
        from repro.core import multicore

        calls = []
        original = multicore.partition_monomials

        def counting(system, workers):
            calls.append(workers)
            return original(system, workers)

        monkeypatch.setattr(multicore, "partition_monomials", counting)
        evaluator = MulticoreEvaluator(small_system, workers=3)
        assert calls == [3]
        evaluator.evaluate(small_point)
        evaluator.evaluate(small_point)
        assert calls == [3]  # still just the constructor's call


class TestEvaluation:
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_matches_sequential_reference(self, small_system, small_point, workers):
        multicore = MulticoreEvaluator(small_system, workers=workers)
        sequential = CPUReferenceEvaluator(small_system, algorithm="naive")
        m = multicore.evaluate(small_point)
        s = sequential.evaluate(small_point)
        for a, b in zip(m.values, s.values):
            assert a == pytest.approx(b, rel=1e-11)
        for row_a, row_b in zip(m.jacobian, s.jacobian):
            for a, b in zip(row_a, row_b):
                assert a == pytest.approx(b, rel=1e-11, abs=1e-11)

    def test_operation_total_matches_sequential_factored(self, small_system, small_point):
        multicore = MulticoreEvaluator(small_system, workers=3)
        sequential = CPUReferenceEvaluator(small_system, algorithm="factored")
        m_ops = multicore.evaluate(small_point).operations
        s_ops = sequential.evaluate(small_point).operations
        # Partitioning rebuilds the power table per chunk, so the multicore
        # evaluator can only do at least as many multiplications.
        assert m_ops.multiplications >= s_ops.multiplications
        assert m_ops.additions >= s_ops.additions

    def test_double_double_context(self, small_system, small_point):
        multicore = MulticoreEvaluator(small_system, workers=2, context=DOUBLE_DOUBLE)
        result = multicore.evaluate(small_point)
        reference = CPUReferenceEvaluator(small_system, context=DOUBLE_DOUBLE,
                                          algorithm="naive").evaluate(small_point)
        for a, b in zip(result.values, reference.values):
            assert abs(a.to_complex() - b.to_complex()) < 1e-12

    def test_external_executor(self, small_system, small_point):
        with ThreadPoolExecutor(max_workers=2) as pool:
            multicore = MulticoreEvaluator(small_system, workers=2, executor=pool)
            result = multicore.evaluate(small_point)
        reference = CPUReferenceEvaluator(small_system, algorithm="naive").evaluate(small_point)
        for a, b in zip(result.values, reference.values):
            assert a == pytest.approx(b, rel=1e-11)

    def test_elapsed_time_recorded(self, small_system, small_point):
        assert MulticoreEvaluator(small_system, workers=2).evaluate(small_point).elapsed_seconds > 0

    def test_elapsed_time_includes_merge(self, small_system, small_point,
                                         monkeypatch):
        """The timer must span submit through merge, not just the futures."""
        import time as time_module

        multicore = MulticoreEvaluator(small_system, workers=2)
        ticks = iter([100.0, 107.5] + [200.0] * 50)
        monkeypatch.setattr(time_module, "perf_counter", lambda: next(ticks))
        result = multicore.evaluate(small_point)
        # First tick before submit, second after the merge loop: any
        # implementation that stops the clock earlier reads a later tick.
        assert result.elapsed_seconds == pytest.approx(7.5)


class TestWorkerErrorAttribution:
    """Failures surface with the worker's coordinates, mirroring how the
    simulated-GPU launcher reports failing thread coordinates."""

    class _ExplodingExecutor:
        """Executor whose every task raises inside the 'worker'."""

        def submit(self, fn, *args, **kwargs):
            from concurrent.futures import Future

            future = Future()
            future.set_exception(ValueError("boom"))
            return future

    def test_worker_exception_is_wrapped_with_coordinates(self, small_system,
                                                          small_point):
        multicore = MulticoreEvaluator(small_system, workers=3,
                                       executor=self._ExplodingExecutor())
        with pytest.raises(WorkerExecutionError) as excinfo:
            multicore.evaluate(small_point)
        message = str(excinfo.value)
        assert "worker 0 of" in message
        assert "hosting polynomial(s)" in message
        assert "boom" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_existing_worker_errors_pass_through_unwrapped(self, small_system,
                                                           small_point):
        class AlreadyWrapped:
            def submit(self, fn, *args, **kwargs):
                from concurrent.futures import Future

                future = Future()
                future.set_exception(WorkerExecutionError("original coords"))
                return future

        multicore = MulticoreEvaluator(small_system, workers=2,
                                       executor=AlreadyWrapped())
        with pytest.raises(WorkerExecutionError, match="original coords"):
            multicore.evaluate(small_point)
