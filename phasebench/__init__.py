"""Benchmark for phasesynth: workloads, correctness checks and per-layer tracing.

Run it with ``python3 phasebench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``phasebench/README.md``.
"""
