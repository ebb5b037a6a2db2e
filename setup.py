"""Setup shim: ``pip install -e .`` installs the ``repro`` package of
``src/``, which setuptools (61 or later) finds by its automatic discovery.

Nothing else reads this file: the tests, the CLI and the benchmark run from
the source tree with ``PYTHONPATH=src``.  There is no ``pyproject.toml``;
the README lists the runtime dependencies (numpy and scipy).
"""

from setuptools import setup

setup()
