"""Legacy setup shim.

Keeping a ``setup.py`` lets ``pip install -e .`` fall back to
``setup.py develop`` where the ``wheel`` package, which the PEP 517
editable-install path requires, is missing.  This file holds all of
the package metadata; the repo has no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
