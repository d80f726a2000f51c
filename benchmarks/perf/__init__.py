"""Executor performance benchmark suite (``python -m benchmarks.perf``).

Measures the fast-path µop executor against the reference tree-walking
interpreter and emits a result document (``BENCH_local.json`` unless
``--out`` names another path):

* **micro** — per-opcode-class kernels (int ALU, float ALU,
  compare+select, global/shared memory, divergent branches, φ loops)
  reporting executor throughput in instructions issued per second;
* **macro** — the Figure 8 real-benchmark sweep wall-clock split into
  compile vs. simulate seconds per executor (compiled twice against a
  persistent compile cache, so the cold-vs-warm replay speedup is
  measured too), plus difftest oracle seeds per second per executor;
* **guard** — thresholds from ``thresholds.json`` evaluated against the
  measurements (CI fails when the fast path regresses).

Both executors run the same compiled modules, so every micro/macro
measurement doubles as a parity check: metrics are asserted
bit-identical before any timing is reported.
"""

from .guard import GuardFailure, check_thresholds, load_thresholds
from .suite import run_suite

__all__ = ["GuardFailure", "check_thresholds", "load_thresholds", "run_suite"]
