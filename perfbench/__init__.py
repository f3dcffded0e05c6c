"""Benchmark for the qcthreshold package.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints its metrics; see ``perfbench/README.md``.
"""
