"""Setuptools configuration for the ``repro`` package.

The package lives under ``src/``.  ``repro/multiprec/_kernels.c`` ships as
package data: an installed copy compiles it into its kernel cache on first
import, exactly like a source checkout (see ``repro.multiprec.compiled``).
Without the ``wheel`` package (offline environments), ``python setup.py
develop`` or running from the checkout with ``PYTHONPATH=src`` both work.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Polynomial evaluation, differentiation and homotopy "
                "continuation in double, double-double and quad-double "
                "arithmetic",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.multiprec": ["_kernels.c"]},
    install_requires=["numpy"],
)
