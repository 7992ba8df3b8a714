"""End-to-end and per-layer benchmark of the people-counting stack.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints one JSON result line; see ``README.md``.
"""
