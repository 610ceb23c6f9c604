"""Benchmark of fairpool: three workloads, end-to-end metrics and a traced
per-layer run.  Entry point: ``python3 perfbench/run.py --workload NAME``.
"""
