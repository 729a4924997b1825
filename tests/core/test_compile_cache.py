"""Tests for the structural homotopy compile cache in ``evalplan``.

The cache shares *compile artifacts* -- the lowered tape, sharing
statistics, op counts -- between :class:`HomotopyPlan` instances over the
same (start, target) pair; execution state (slot buffer, bound gamma) stays
per-instance.  The promises: hits share, execution is bit-for-bit
identical to a fresh compile, distinct coefficients never collide (the
coefficients are baked into the tape), and eviction is LRU-bounded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evalplan
from repro.core.evalplan import (
    HomotopyPlan,
    clear_homotopy_compile_cache,
    homotopy_compile_cache_stats,
)
from repro.polynomials import katsura_system, random_sparse_system
from repro.polynomials.generators import perturb_coefficients
from repro.tracking.start_systems import total_degree_start_system


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_homotopy_compile_cache()
    yield
    clear_homotopy_compile_cache()


def plan_pair():
    target = katsura_system(3)
    return total_degree_start_system(target), target


def lane_batch(dimension, lanes=3, seed=41):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((dimension, lanes))
            + 1j * rng.standard_normal((dimension, lanes)))


class TestSharing:
    def test_same_pair_hits_and_shares_artifacts(self):
        start, target = plan_pair()
        first = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
        second = HomotopyPlan(start, target, gamma=0.3 - 0.9j)
        stats = homotopy_compile_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert second.tape is first.tape

    def test_perturbed_coefficients_do_not_collide(self):
        """Coefficients are baked into the compiled tape as constants, so
        two family members must get distinct cache entries."""
        start, target = plan_pair()
        shifted = perturb_coefficients(target, scale=1e-2, seed=3)
        HomotopyPlan(start, target, gamma=0.5 + 0.5j)
        HomotopyPlan(start, shifted, gamma=0.5 + 0.5j)
        stats = homotopy_compile_cache_stats()
        assert stats["misses"] == 2
        assert stats["entries"] == 2

    def test_cached_execution_is_bit_for_bit_uncached(self):
        start, target = plan_pair()
        HomotopyPlan(start, target, gamma=0.6 + 0.8j)  # prime the cache
        cached = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
        clear_homotopy_compile_cache()
        direct = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
        assert direct.tape is not cached.tape
        points = lane_batch(target.dimension)
        t = np.array([0.15, 0.5, 0.85])
        h_a, jac_a, dt_a = cached.execute(points, t)
        h_b, jac_b, dt_b = direct.execute(points, t)
        for a, b in zip(h_a, h_b):
            assert (np.asarray(a) == np.asarray(b)).all()
        for row_a, row_b in zip(jac_a, jac_b):
            for a, b in zip(row_a, row_b):
                assert (np.asarray(a) == np.asarray(b)).all()
        for a, b in zip(dt_a, dt_b):
            assert (np.asarray(a) == np.asarray(b)).all()

    def test_instances_do_not_share_execution_state(self):
        start, target = plan_pair()
        first = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
        second = HomotopyPlan(start, target, gamma=0.6 + 0.8j)
        points = lane_batch(target.dimension)
        t = np.array([0.2, 0.4, 0.9])
        reference, _, _ = first.execute(points, t)
        second.execute(lane_batch(target.dimension, seed=77),
                       np.array([0.3, 0.6, 0.7]))
        again, _, _ = first.execute(points, t)
        for a, b in zip(reference, again):
            assert (np.asarray(a) == np.asarray(b)).all()


class TestLifecycle:
    def test_eviction_is_lru_bounded(self):
        limit = evalplan._COMPILE_CACHE_LIMIT
        for seed in range(limit + 3):
            target = random_sparse_system(2, seed=seed)
            HomotopyPlan(total_degree_start_system(target), target,
                         gamma=0.5 + 0.5j)
        stats = homotopy_compile_cache_stats()
        assert stats["entries"] == limit
        assert stats["misses"] == limit + 3

    def test_clear_resets_stats_and_entries(self):
        start, target = plan_pair()
        HomotopyPlan(start, target, gamma=0.5 + 0.5j)
        clear_homotopy_compile_cache()
        assert homotopy_compile_cache_stats() == \
            {"hits": 0, "misses": 0, "entries": 0}
