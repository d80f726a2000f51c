"""The repo benchmark: five seeded workloads, absolute end-to-end
metrics and an outside-in per-layer trace (see ``README.md`` here and
``BENCHMARK.json`` at the repo root).  Run it with
``python3 darmbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""
