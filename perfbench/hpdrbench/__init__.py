"""HPDR repository benchmark: seeded workloads, correctness gate and a
traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
