"""Benchmark of the compstat analyze pipeline.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root, or ``python3 perfbench/run.py
--self-check`` for a short run with a fixed seed that prints every metric
with its unit and asserts the output oracles and the repeatability of the
traced counts.  See ``run.py`` for the metrics and ``workloads.py`` for the
workloads.
"""
