"""The repository benchmark: end-to-end workloads plus traced per-layer attribution.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``NOTES.md`` beside this file
explains the workloads and the metrics.
"""
