"""Tests for the top-level package surface (what ``import repro`` promises)."""

from __future__ import annotations

import importlib

import pytest

import repro

SUBPACKAGES = ["repro.bench", "repro.core", "repro.gpusim", "repro.multiprec",
               "repro.polynomials", "repro.service", "repro.tracking"]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        import repro.bench
        import repro.core
        import repro.gpusim
        import repro.multiprec
        import repro.polynomials
        import repro.service
        import repro.tracking

        assert repro.core.GPUEvaluator is repro.GPUEvaluator

    def test_headline_workflow(self):
        """The README's quickstart snippet, condensed."""
        system = repro.random_regular_system(dimension=4, monomials_per_polynomial=2,
                                             variables_per_monomial=2, max_variable_degree=2,
                                             seed=7)
        point = repro.random_point(4, seed=1)

        gpu = repro.GPUEvaluator(system)
        result = gpu.evaluate(point)
        cpu = repro.CPUReferenceEvaluator(system)
        reference = cpu.evaluate(point)

        gpu_seconds = result.predicted_device_time(repro.GPUCostModel())
        cpu_seconds = repro.CPUCostModel().evaluation_time(reference.operations)
        assert gpu_seconds > 0 and cpu_seconds > 0
        assert len(result.values) == 4
        assert len(result.jacobian) == 4

    def test_device_constants_exported(self):
        assert repro.TESLA_C2050.multiprocessors == 14
        assert repro.XEON_X5690.clock_hz == pytest.approx(3.47e9)

    @pytest.mark.parametrize("package", ["repro", *SUBPACKAGES])
    def test_subpackage_all_lists_resolve(self, package):
        """Every ``__all__`` name resolves, ``from <package> import *``
        binds it, and ``dir(<package>)`` lists it."""
        module = importlib.import_module(package)
        star: dict = {}
        exec(f"from {package} import *", star)
        listed = set(dir(module))
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"
            assert star[name] is getattr(module, name), f"{package}.{name}"
            assert name in listed, f"{package}.{name}"
