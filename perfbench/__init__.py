"""Benchmark for cmcgeo: workloads driven through ``cmc`` and the library,
an output oracle, and a traced run that times each module from outside.

Run it from the repository root::

    python3 perfbench/run.py --workload verify-dense --seed 0 --seconds 20 --trace 0
"""
