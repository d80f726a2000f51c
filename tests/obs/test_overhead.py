"""The disabled-observability overhead budget: < 2% of launch time.

Naively diffing two wall-clock runs is flaky on shared CI machines, so
the guard is computed instead of raced: count how many instrumentation
sites a launch actually passes through (by tracing it once), measure the
cost of one disabled-path check (``x is not None``) with ``timeit``, and
require sites x per-check cost to stay under 2% of the untraced launch's
own wall time.  The margin is ~three orders of magnitude in practice, so
the test only fails if someone puts real work on the disabled path.

The same budget covers the aggregate-metrics registry: a disabled
registry adds one more ``is not None`` probe per block entry (the
``obs`` hook next to ``trace``), so the combined disabled cost is two
probes per site — asserted against the same 2% line.  The enabled path
is held to a parity contract instead: the occupancy histogram must
count exactly the block-entry events the tracer sees, per executor.
"""

import time
import timeit

import pytest

import repro
from repro.kernels import build_sb1
from repro.obs import MetricsRegistry, Tracer, use, use_registry
from repro.obs.report import divergence_summary
from repro.simt import MachineConfig, run_kernel

from tests.support import parse

DIVERGENT = """
define void @k(i32 addrspace(1)* %p, i32 %n) {
entry:
  %tid = call i32 @llvm.gpu.tid.x()
  %c = icmp slt i32 %tid, %n
  br i1 %c, label %a, label %b
a:
  %pa = getelementptr i32, i32 addrspace(1)* %p, i32 %tid
  store i32 1, i32 addrspace(1)* %pa
  br label %m
b:
  br label %m
m:
  ret void
}
"""


def launch(executor=None):
    f = parse(DIVERGENT)
    return run_kernel(f.module, "k", 4, 32, buffers={"p": [0] * 128},
                      scalars={"n": 77},
                      machine=executor and MachineConfig(executor=executor))


def count_instrumented_sites(executor=None) -> int:
    """How many record calls one launch would make when traced."""
    tracer = Tracer()
    with use(tracer):
        launch(executor)
    return len(tracer.events)


class TestDisabledOverheadBudget:
    def test_disabled_checks_cost_under_two_percent_of_launch(self):
        sites = count_instrumented_sites()
        assert sites > 0, "the launch must pass instrumentation sites"

        # Per-site disabled cost: one attribute load + `is not None`.
        loops = 100_000
        probe = None
        per_check = timeit.timeit(
            "x = probe is not None", globals={"probe": probe},
            number=loops) / loops

        samples = []
        for _ in range(3):
            start = time.perf_counter()
            launch()
            samples.append(time.perf_counter() - start)
        launch_seconds = sorted(samples)[1]  # median of 3

        overhead = sites * per_check
        assert overhead < 0.02 * launch_seconds, (
            f"{sites} sites x {per_check * 1e9:.1f}ns = "
            f"{overhead * 1e6:.1f}us exceeds 2% of "
            f"{launch_seconds * 1e3:.2f}ms launch")

    @pytest.mark.parametrize("executor", ["fast", "reference"])
    def test_disabled_checks_stay_under_budget_per_executor(self, executor):
        """The 2% budget holds on the fast path specifically: its launch
        is several times shorter than the reference's, so the same
        absolute site count eats a proportionally bigger share."""
        sites = count_instrumented_sites(executor)
        assert sites > 0
        # Both executors must pass the same instrumentation sites — the
        # trace-parity contract implies site-count parity.
        assert sites == count_instrumented_sites(
            "reference" if executor == "fast" else "fast")

        loops = 100_000
        probe = None
        per_check = timeit.timeit(
            "x = probe is not None", globals={"probe": probe},
            number=loops) / loops

        samples = []
        for _ in range(3):
            start = time.perf_counter()
            launch(executor)
            samples.append(time.perf_counter() - start)
        launch_seconds = sorted(samples)[1]  # median of 3

        overhead = sites * per_check
        assert overhead < 0.02 * launch_seconds, (
            f"[{executor}] {sites} sites x {per_check * 1e9:.1f}ns = "
            f"{overhead * 1e6:.1f}us exceeds 2% of "
            f"{launch_seconds * 1e3:.2f}ms launch")


class TestDisabledRegistryBudget:
    """With both the tracer and the registry off, every instrumentation
    site costs two ``is not None`` probes (``trace`` + ``obs``); the pair
    must still clear the same 2% bar."""

    PROBES_PER_SITE = 2

    @pytest.mark.parametrize("executor", ["fast", "reference"])
    def test_two_disabled_probes_per_site_stay_under_budget(self, executor):
        sites = count_instrumented_sites(executor)
        assert sites > 0

        loops = 100_000
        trace_probe = obs_probe = None
        per_site = timeit.timeit(
            "x = trace_probe is not None\ny = obs_probe is not None",
            globals={"trace_probe": trace_probe, "obs_probe": obs_probe},
            number=loops) / loops

        samples = []
        for _ in range(3):
            start = time.perf_counter()
            launch(executor)
            samples.append(time.perf_counter() - start)
        launch_seconds = sorted(samples)[1]  # median of 3

        overhead = sites * per_site
        assert overhead < 0.02 * launch_seconds, (
            f"[{executor}] {sites} sites x {self.PROBES_PER_SITE} probes "
            f"({per_site * 1e9:.1f}ns/site) = {overhead * 1e6:.1f}us "
            f"exceeds 2% of {launch_seconds * 1e3:.2f}ms launch")


class TestRegistryParityWithTrace:
    """Enabled-path correctness: the registry's runtime metrics must
    agree, event for event, with the trace stream both executors are
    already held to."""

    @pytest.mark.parametrize("executor", ["fast", "reference"])
    def test_occupancy_count_equals_traced_block_entries(self, executor):
        tracer = Tracer()
        registry = MetricsRegistry()
        with use(tracer), use_registry(registry):
            launch(executor)
        exec_events = [e for e in tracer.events
                       if e.get("cat") == "sim" and e["name"] == "exec"]
        diverge_events = [e for e in tracer.events
                          if e.get("cat") == "sim"
                          and e["name"] == "diverge"]
        snapshot = registry.snapshot()
        occupancy = snapshot["histograms"]["repro_runtime_active_lanes"]
        (sample,) = occupancy["samples"].values()
        assert sample["count"] == len(exec_events)
        # The occupancy sum is the total of per-entry active-lane counts.
        assert sample["sum"] == sum(e["args"]["active"]
                                    for e in exec_events)
        divergent = snapshot["counters"][
            "repro_runtime_divergent_branches_total"]
        assert sum(divergent["samples"].values()) == len(diverge_events)

    @pytest.mark.parametrize("executor", ["fast", "reference"])
    def test_launch_counter_and_labels(self, executor):
        registry = MetricsRegistry()
        with use_registry(registry):
            launch(executor)
        # A launch count is the cycles histogram's observation count.
        cycles = registry.snapshot()["histograms"][
            "repro_runtime_launch_cycles"]
        (key,) = cycles["samples"]
        assert f"executor={executor or 'reference'}" in key
        assert "policy=ipdom" in key
        assert cycles["samples"][key]["count"] == 1

    def test_both_executors_produce_identical_runtime_aggregates(self):
        """Executor parity, the aggregate edition: modulo the executor
        label, fast and reference runs must fold to identical runtime
        metrics."""
        def snap(executor):
            registry = MetricsRegistry()
            with use_registry(registry):
                launch(executor)
            snapshot = registry.snapshot()
            for kind in ("counters", "gauges", "histograms"):
                for data in snapshot[kind].values():
                    data["samples"] = {
                        key.replace(f"executor={executor},", ""): value
                        for key, value in data["samples"].items()}
            return snapshot

        assert snap("fast") == snap("reference")


class TestGoldenHeatmapFastPath:
    """The SB1 golden divergence numbers (tests/obs/test_determinism.py)
    re-asserted with the executor pinned to "fast": the heatmap is built
    purely from trace events, so identical numbers here mean the fast
    path emits the exact same event stream."""

    def _summary(self, cfm: bool, reconvergence: str = "ipdom"):
        tracer = Tracer()
        with use(tracer):
            case = build_sb1(8)
            repro.compile(case.module.function(case.kernel), level="O3",
                          cfm=cfm)
            args = dict(case.make_buffers(0))
            args.update(case.scalars)
            machine = MachineConfig(executor="fast",
                                    reconvergence=reconvergence)
            repro.launch(case.module, case.grid_dim, case.block_dim, args,
                         kernel=case.kernel, machine=machine,
                         trace_label=("cfm" if cfm else "o3") + ":SB1")
        (summary,) = divergence_summary(tracer.events)
        return summary

    def test_sb1_o3_golden_counts_on_fast_path(self):
        summary = self._summary(cfm=False)
        assert summary.divergent_branch_executions == 8
        assert summary.branch_executions == 24
        entry = summary.blocks["entry"]
        assert entry.divergent_executions == 2
        assert entry.mean_active_lanes == 8.0

    def test_sb1_cfm_golden_counts_on_fast_path(self):
        assert self._summary(cfm=True).divergent_branch_executions == 0

    def test_sb1_o3_golden_counts_under_min_pc(self):
        # SB1's control flow is structured (both branch sides rejoin at
        # the post-dominator), so the min-PC path list fuses exactly
        # where the IPDOM stack reconverges: the heatmap golden is
        # policy-invariant here, and any drift means the min-PC
        # scheduler grouped lanes differently on a structured kernel.
        summary = self._summary(cfm=False, reconvergence="min-pc")
        assert summary.divergent_branch_executions == 8
        assert summary.branch_executions == 24
        entry = summary.blocks["entry"]
        assert entry.divergent_executions == 2
        assert entry.mean_active_lanes == 8.0


class TestValidationOverhead:
    """Compile-side cost of meld translation validation.

    Disabled (the default) it must be invisible: per accepted meld the
    pass pays one ``config.validate`` truthiness check, so the same
    computed budget applies — melds x per-check cost < 2% of the
    compile's own wall time.  Enabled it does real symbolic work whose
    cost is *measured and reported* (per-meld wall-time histogram plus
    a per-verdict counter), deliberately not guarded."""

    def _compile(self, validate: bool):
        case = build_sb1(8)
        cfm = repro.CFMConfig(validate=True) if validate else True
        return repro.compile(case, cfm=cfm)

    def test_disabled_validation_stays_under_compile_budget(self):
        loops = 100_000
        probe = repro.CFMConfig()  # validate defaults to False
        per_check = timeit.timeit(
            "x = probe.validate", globals={"probe": probe},
            number=loops) / loops

        reports = [self._compile(validate=False) for _ in range(3)]
        compile_seconds = sorted(r.seconds for r in reports)[1]  # median
        melds = reports[0].melds
        assert melds > 0, "SB1 must meld or the budget is vacuous"
        assert all(r.cfm_stats.validations == [] for r in reports)

        overhead = melds * per_check
        assert overhead < 0.02 * compile_seconds, (
            f"{melds} melds x {per_check * 1e9:.1f}ns = "
            f"{overhead * 1e6:.2f}us exceeds 2% of "
            f"{compile_seconds * 1e3:.2f}ms compile")

    def test_enabled_validation_cost_is_measured_not_guarded(self):
        from repro.analysis import EQUIVALENT

        registry = MetricsRegistry()
        with use_registry(registry):
            report = self._compile(validate=True)
        validations = report.cfm_stats.validations
        assert validations, "validation on but nothing validated"
        for validation in validations:
            assert validation.verdict == EQUIVALENT
            assert validation.seconds >= 0.0
            assert validation.paths > 0

        snapshot = registry.snapshot()
        verdicts = snapshot["counters"]["repro_compile_validate_total"]
        (key,) = verdicts["samples"]
        assert "verdict=EQUIVALENT" in key
        assert verdicts["samples"][key] == len(validations)
        seconds = snapshot["histograms"]["repro_compile_validate_seconds"]
        (sample,) = seconds["samples"].values()
        assert sample["count"] == len(validations)
        assert sample["sum"] == pytest.approx(
            sum(v.seconds for v in validations), rel=1e-6)
        # Deliberately no bound on the enabled cost: symbolic evaluation
        # is allowed to be slow; the histogram *is* the report.
