"""The repository's benchmark: ``repro simulate``, ``repro fuzz`` and ``repro serve``.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload simulate-riscv-mini --seed 1 --seconds 15 --trace 0

See :mod:`perfbench.run` for the workloads, metrics and output format.
"""
