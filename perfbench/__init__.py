"""Repository benchmark: campaign workloads, output checks, per-layer metrics.

See ``perfbench/README.md``; run ``python3 perfbench/run.py --help``.
"""
