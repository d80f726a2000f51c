"""Measurement harness shared by the five workloads.

One run = repeated set-up (``setup_s``), warm-up, a timed loop of
untraced iterations, and — with ``--trace 1`` — a second loop of traced
iterations plus stand-alone probes.  Workloads implement
:class:`Workload`; everything about clocks, estimators, spans, the
golden file and the result line lives here.

Why the timing estimator is a best-of and not a median: on the shared
2-core box this was written on, host time shows one-sided bursts (whole
seconds in which everything runs 1.3-1.5x slower).  Over ten runs of one
commit the spread (IQR / median) of ``iter_ms`` on ``fig8_warm`` was 37 %
with per-unit medians, 15 % with per-unit lower quartiles and 8 % with
per-unit minima; on ``serve_launch`` 32 %, 11 % and 2 %.  Each timed unit
(one Fig. 8 case, one launch, one fuzz program, one served job)
therefore contributes the best of its samples across iterations.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space (compile caches); inside the checkout, git-ignored
WORK_DIR = HERE / "work"
#: full result documents and span files; git-ignored
OUT_DIR = HERE / "out"
GOLDEN_FILE = HERE / "golden.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: the seed the golden cycle counts (and results/data.json) were taken at
GOLDEN_SEED = 20220402

SETUP_REPEATS = 3
PROBE_PASSES = 3

#: facts that sum into ``sim_cycles``
CYCLE_KEYS = ("cycles", "o3_cycles", "cfm_cycles")
#: facts that depend on the input data (the rest describe compiled code)
DATA_DEPENDENT = ("cycles", "issued", "branches")
#: facts that only tie the traced iteration to the untraced one
UNPINNED = ("digest",)

Cases = Dict[str, Dict[str, int]]


@dataclass
class Iteration:
    """What one pass over a workload's cases produced."""

    #: (unit key, wall seconds) per timed unit, in execution order
    units: List[Tuple[str, float]] = field(default_factory=list)
    #: per-case exact results; must be identical in every iteration
    cases: Cases = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: hand-timed seconds / counts by per-layer metric name
    layers: Dict[str, float] = field(default_factory=dict)
    wall: float = 0.0


class Workload:
    """One named workload.  Subclasses fill in the hooks below."""

    name = ""
    #: table of ``golden.json`` this workload's cases are checked against
    golden_key = ""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Everything needed before the first iteration (timed, repeated)."""

    def teardown(self) -> None:
        """Undo :meth:`setup` (stop processes, drop scratch files)."""

    def iteration(self, tracer: Optional["Tracer"] = None) -> Iteration:
        """One pass over the cases: untraced through the public entry
        points, or — given a tracer — the same work with a span around
        each call into a layer."""
        raise NotImplementedError

    def probes(self, tracer: "Tracer") -> Dict[str, float]:
        """Stand-alone per-layer measurements outside the iteration
        (spans on ``tracer``); returns per-layer counts."""
        return {}

    def verify(self, first: Iteration) -> Tuple[Cases, int, List[str]]:
        """Check outputs against references the code under test did not
        produce.  Returns ``(cases, attempted, failures)`` where ``cases``
        is the table the golden file and the exact metrics are read from.
        """
        return first.cases, 0, []

    def layer_counts(self, cases: Cases,
                     iterations: List[Iteration]) -> Dict[str, float]:
        """Per-layer metrics derived from results rather than spans."""
        return {}


# ---------------------------------------------------------------------------
# estimators


def unit_samples(iterations: List[Iteration]) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = defaultdict(list)
    for iteration in iterations:
        for key, seconds in iteration.units:
            samples[key].append(seconds)
    return dict(samples)


def unit_estimates(iterations: List[Iteration]) -> Dict[str, float]:
    """Unit key -> undisturbed seconds *per iteration* spent in that unit
    (a key that occurs k times per iteration counts k times)."""
    count = len(iterations)
    return {key: min(values) * len(values) / count
            for key, values in unit_samples(iterations).items()}


def iteration_seconds(iterations: List[Iteration]) -> float:
    return sum(unit_estimates(iterations).values())


def quartiles(values: List[float]) -> Dict[str, float]:
    """median/q1/q3/n summary for the result document."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def exact_metrics(cases: Cases) -> Dict[str, float]:
    """``sim_cycles`` and ``cfm_speedup_gm`` over a workload's cases."""
    cycles = sum(value for facts in cases.values()
                 for key, value in facts.items() if key in CYCLE_KEYS)
    ratios = [facts["o3_cycles"] / facts["cfm_cycles"]
              for facts in cases.values()
              if "o3_cycles" in facts and "cfm_cycles" in facts]
    return {"sim_cycles": float(cycles), "cfm_speedup_gm": geomean(ratios)}


def instruction_count(function) -> int:
    """IR instructions of one ``repro.ir`` function."""
    return sum(len(list(block.instructions)) for block in function.blocks)


def simulation_layers(metrics: List[object]) -> Dict[str, float]:
    """``simt`` counters pooled over the launches' ``Metrics``."""
    if not metrics:
        return {}
    issue_slots = sum(m.alu_issues * m.warp_size for m in metrics)
    return {
        "simt.instrs": float(sum(m.instructions_issued for m in metrics)),
        "simt.divergent_branches":
            float(sum(m.divergent_branches for m in metrics)),
        "simt.alu_utilization":
            sum(m.alu_active_lanes for m in metrics) / issue_slots,
    }


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def peak_rss_mib() -> float:
    """Peak RSS so far of this process plus its live children, MiB.
    Children are found through ``/proc`` (absent elsewhere: they then
    count as 0); workers are not reaped until teardown, so ``getrusage``
    cannot see them."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for listing in Path("/proc/self/task").glob("*/children"):
        for pid in listing.read_text().split():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue  # the child ended in between
            kib += int(status.split("VmHWM:")[1].split()[0])
    return kib / 1024.0


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """In-memory spans ``{name, layer, start, end, parent, iteration,
    case}``; ``parent`` is the index of the enclosing span, and a span
    without a ``case`` of its own belongs to its parent's."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.iteration: Optional[str] = None

    @contextmanager
    def span(self, name: str, layer: str,
             case: Optional[str] = None) -> Iterator[Dict[str, object]]:
        parent = self._open[-1] if self._open else None
        if case is None and parent is not None:
            case = self.spans[parent]["case"]
        record = {"name": name, "layer": layer, "start": time.perf_counter(),
                  "end": None, "parent": parent,
                  "iteration": self.iteration, "case": case}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> List[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [span["end"] - span["start"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def layer_seconds(self) -> Dict[str, float]:
        """``<span name>_s`` -> median over iterations of the summed self
        time of that span name within one iteration."""
        per_iteration: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, seconds in zip(self.spans, self.self_times()):
            per_iteration[span["name"]][span["iteration"]] += seconds
        return {f"{name}_s": statistics.median(by_iteration.values())
                for name, by_iteration in per_iteration.items()}


def span(tracer: Optional[Tracer], name: str, layer: str,
         case: Optional[str] = None):
    """``tracer.span(...)``, or nothing when the iteration is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, layer, case)


# ---------------------------------------------------------------------------
# the golden file


def load_golden() -> Dict[str, object]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def golden_table(cases: Cases) -> Cases:
    """The part of ``cases`` that the golden file pins."""
    return {label: {key: value for key, value in facts.items()
                    if not key.endswith(UNPINNED)}
            for label, facts in cases.items()}


def check_golden(table: Cases, cases: Cases,
                 seed: int) -> Tuple[int, List[str]]:
    """Compare ``cases`` with their golden ``table``.  Cycle and dynamic
    instruction counts depend on the input data, so they are compared
    only at :data:`GOLDEN_SEED`; every other fact is a property of the
    compiled code and is compared at every seed."""
    attempted = 0
    failures: List[str] = []
    if set(table) != set(cases):
        failures.append(f"golden cases {sorted(set(table) ^ set(cases))} "
                        f"are on one side only")
    for label in sorted(set(table) & set(cases)):
        for key, expected in table[label].items():
            if key.endswith(DATA_DEPENDENT) and seed != GOLDEN_SEED:
                continue
            attempted += 1
            got = cases[label].get(key)
            if got != expected:
                failures.append(
                    f"golden {label}.{key}: expected {expected}, got {got}")
    return attempted, failures


# ---------------------------------------------------------------------------
# the run


def _timed_loop(steps: List[Callable[[], Iteration]],
                seconds: float) -> List[List[Iteration]]:
    """Run ``steps`` round-robin until ``seconds`` have passed (at least
    one round); returns each step's iterations.  Alternating keeps a slow
    spell of the host from landing on one step only.  ``gc.collect()``
    runs between iterations, outside their wall time."""
    iterations: List[List[Iteration]] = [[] for _ in steps]
    deadline = time.perf_counter() + seconds
    while True:
        for step, done in zip(steps, iterations):
            gc.collect()
            start = time.perf_counter()
            iteration = step()
            iteration.wall = time.perf_counter() - start
            done.append(iteration)
        if time.perf_counter() >= deadline:
            return iterations


def run(workload: Workload, seconds: float, trace: bool,
        import_seconds: float, golden: Optional[Dict[str, object]]
        ) -> Tuple[Dict[str, object], Cases]:
    """Measure one workload.  Returns the result document (both metric
    groups under ``end_to_end`` / ``per_layer``, ``attempted``,
    ``failures``, the timing samples) and the checked cases.
    ``golden=None`` skips the golden check (used while regenerating it)."""
    setups: List[float] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        return _measure(workload, seconds, trace,
                        import_seconds + statistics.median(setups), golden)
    finally:
        workload.teardown()


def _measure(workload: Workload, seconds: float, trace: bool,
             setup_seconds: float, golden: Optional[Dict[str, object]]
             ) -> Tuple[Dict[str, object], Cases]:
    [[first]] = _timed_loop([workload.iteration], 0.0)  # warm-up
    cases, attempted, failures = workload.verify(first)
    if golden is not None:
        checked, wrong = check_golden(golden[workload.golden_key], cases,
                                      workload.seed)
        attempted += checked
        failures += wrong
    # Sampled after a fixed amount of work (set-up, one iteration, the
    # checks), not at the end: compiled modules are never freed (8.8 MB
    # per Fig. 8 iteration), so the end-of-run peak counts how many
    # iterations the host's speed let into ``--seconds``.
    rss_after_checks = peak_rss_mib()

    layers: Dict[str, float] = {}
    tracer = Tracer()
    traced: List[Iteration] = []
    if not trace:
        [timed] = _timed_loop([workload.iteration], seconds)
    else:
        numbers = itertools.count()

        def traced_step() -> Iteration:
            tracer.iteration = f"iteration-{next(numbers)}"
            with tracer.span("iteration", "bench"):
                return workload.iteration(tracer)

        traced_step()  # warm the staged path; its spans are dropped
        del tracer.spans[:]
        timed, traced = _timed_loop([workload.iteration, traced_step],
                                    seconds)
        passes = []
        for index in range(PROBE_PASSES):
            tracer.iteration = f"probe-{index}"
            passes.append(workload.probes(tracer))
        layers.update(tracer.layer_seconds())
        layers.update({name: statistics.median(p[name] for p in passes)
                       for name in passes[0]})

    for iteration in [first] + timed + traced:
        attempted += iteration.attempted
        failures += iteration.failures
        if iteration.cases != first.cases:
            failures.append(f"{workload.name}: an iteration's exact results "
                            f"differ from the first iteration's")

    iter_seconds = iteration_seconds(timed)
    metrics = {"setup_s": setup_seconds,
               "iter_ms": iter_seconds * 1e3,
               "peak_rss_mb": rss_after_checks}
    metrics.update(exact_metrics(cases))
    if trace:
        for name in timed[0].layers:
            layers[name] = statistics.median(
                iteration.layers[name] for iteration in timed)
        layers.update(workload.layer_counts(cases, timed))
        launch_seconds = layers.get("simt.launch_s")
        if launch_seconds:
            issued = layers["simt.instrs"]
            layers["simt.ns_per_instr"] = launch_seconds / issued * 1e9
            layers["simt.kinstr_per_s"] = issued / launch_seconds / 1e3
        layers["obs.trace_overhead_ratio"] = \
            iteration_seconds(traced) / iter_seconds
        layers["obs.rss_growth_mb"] = \
            (peak_rss_mib() - rss_after_checks) / len(timed + traced)
    document = {
        "workload": workload.name, "seed": workload.seed,
        "golden_key": workload.golden_key,
        "seconds": seconds, "trace": trace,
        "iterations": len(timed),
        "iteration_wall_s": quartiles([it.wall for it in timed]),
        "unit_s": unit_estimates(timed),
        "unit_samples": unit_samples(timed),
        "traced_iterations": len(traced),
        "end_to_end": metrics, "per_layer": layers,
        "attempted": attempted, "failures": failures,
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{workload.name}.json").write_text(
            json.dumps(tracer.spans), encoding="utf-8")
    return document, cases
