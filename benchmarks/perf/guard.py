"""Threshold guard over a suite result document.

``thresholds.json`` records the minimum fast-over-reference speedup per
micro workload and for the macro measurements.  ``check_thresholds``
compares a suite result against them with a multiplicative ``slack``
(0.3 means a measurement may come in 30% under its threshold before the
guard trips — machine-to-machine noise on CI runners is real).  Parity
(``metrics_identical``) gets no slack: a semantic divergence between
executors is a failure at any speed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

THRESHOLDS_PATH = Path(__file__).with_name("thresholds.json")


class GuardFailure(AssertionError):
    """One or more perf thresholds were missed."""

    def __init__(self, failures: List[str]) -> None:
        self.failures = list(failures)
        super().__init__(
            f"{len(self.failures)} perf threshold(s) missed:\n  "
            + "\n  ".join(self.failures))


def load_thresholds(path: Path = THRESHOLDS_PATH) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_thresholds(results: Dict, thresholds: Dict,
                     slack: float = 0.0) -> List[str]:
    """Return the list of missed thresholds (empty = guard passes)."""
    scale = 1.0 - slack
    failures: List[str] = []

    micro_min = thresholds.get("micro_min_speedup", {})
    by_name = {row["workload"]: row for row in results.get("micro", [])}
    for name, minimum in micro_min.items():
        row = by_name.get(name)
        if row is None:
            failures.append(f"micro:{name}: no measurement in results")
            continue
        if row["speedup"] < minimum * scale:
            failures.append(
                f"micro:{name}: speedup {row['speedup']:.2f}x < "
                f"{minimum:.2f}x (slack {slack:.0%})")

    macro = thresholds.get("macro", {})
    figure8 = results.get("macro", {}).get("figure8")
    if figure8 is not None:
        if not figure8.get("metrics_identical", False):
            failures.append("macro:figure8: executors disagree on metrics")
        # Correctness of the warm replay gets no slack either: a warm
        # compile cache must reproduce the cold pipeline bit for bit.
        if "warm_ir_identical" in figure8 and \
                not figure8["warm_ir_identical"]:
            failures.append("macro:figure8: warm cache replay changed IR")
        minimum = macro.get("figure8_simulate_min_speedup")
        if minimum is not None and \
                figure8["simulate_speedup"] < minimum * scale:
            failures.append(
                f"macro:figure8: simulate speedup "
                f"{figure8['simulate_speedup']:.2f}x < {minimum:.2f}x "
                f"(slack {slack:.0%})")
        minimum = macro.get("figure8_warm_end_to_end_min_speedup")
        warm = figure8.get("end_to_end_speedup_warm")
        if minimum is not None and warm is not None and \
                warm < minimum * scale:
            failures.append(
                f"macro:figure8: warm end-to-end speedup {warm:.2f}x < "
                f"{minimum:.2f}x (slack {slack:.0%})")
    difftest = results.get("macro", {}).get("difftest")
    if difftest is not None:
        minimum = macro.get("difftest_min_speedup")
        if minimum is not None and difftest["speedup"] < minimum * scale:
            failures.append(
                f"macro:difftest: speedup {difftest['speedup']:.2f}x < "
                f"{minimum:.2f}x (slack {slack:.0%})")
    return failures
