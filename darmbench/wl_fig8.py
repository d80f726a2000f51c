"""``fig8_cold`` and ``fig8_warm``: the 16 Figure 8 cases, build ->
compile both arms through a :class:`CompileCache` -> execute both arms.

Cold gives every iteration a fresh empty disk cache (the write side:
what a new kernel, a new ``CFMConfig`` knob or a first sweep pays).
Warm populates the disk cache in set-up and gives every iteration a new
in-process ``CompileCache`` over it (the read side: what a new worker
sees) — no pass may run there, so a compile-pass optimisation predicts
no change on it.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis import compute_divergence, compute_postdominator_tree
from repro.core import CFMPass
from repro.evaluation.experiments import DEFAULT_GRID_DIM, REAL_BLOCK_SIZES
from repro.evaluation.runner import (
    CompileCache,
    cfm_pipeline_id,
    compile_baseline,
    compile_cfm,
    execute,
)
from repro.ir import print_module, verify_function
from repro.ir.parser import parse_module
from repro.kernels import REAL_WORLD_BUILDERS
from repro.kernels.common import KernelCase
from repro.simt import (
    DEFAULT_CONFIG,
    Metrics,
    lower_symbolic,
    materialize_program,
    run_kernel,
)
from repro.transforms import PassTiming, late_pipeline, optimize

from .harness import (
    Cases,
    Iteration,
    Tracer,
    Workload,
    add_into,
    instruction_count,
    simulation_layers,
)

MACHINE = DEFAULT_CONFIG

#: pass names with a per-layer metric of their own; the rest pool in
#: ``transforms.pass.other_s`` so a new pass cannot vanish from the trace
PASS_NAMES = ("constfold", "simplifycfg", "licm", "unroll", "speculate",
              "constfold2", "cse", "simplifycfg2", "dce",
              "late-simplifycfg", "late-speculate", "late-simplifycfg2",
              "late-dce")


def ir_digest(case: KernelCase) -> int:
    """48 bits of the printed module's SHA-256 (traced-vs-untraced IR
    equality; kept out of the golden file)."""
    text = print_module(case.module).encode("utf-8")
    return int(hashlib.sha256(text).hexdigest()[:12], 16)


def pass_layers(timings: List[PassTiming]) -> Dict[str, float]:
    """Per-pass seconds and the run count of the passes that really ran
    (a cache hit replays the original timings flagged ``cached``)."""
    live = [t for t in timings if not t.cached and t.name != "cfm"]
    layers = {"transforms.pass_runs": float(len(live))}
    for timing in live:
        name = timing.name if timing.name in PASS_NAMES else "other"
        key = f"transforms.pass.{name}_s"
        layers[key] = layers.get(key, 0.0) + timing.seconds
    return layers


class Fig8(Workload):
    golden_key = "fig8"

    def __init__(self, seed, work_dir, warm: bool) -> None:
        super().__init__(seed, work_dir)
        self.name = "fig8_warm" if warm else "fig8_cold"
        self.warm = warm
        self.targets = [(f"{kernel}-{size}", builder, size)
                        for kernel, builder in REAL_WORLD_BUILDERS.items()
                        for size in REAL_BLOCK_SIZES[kernel]]
        self.cache_dir: Optional[str] = None
        #: compiled (o3 case, cfm case) pairs of the latest iteration
        self.compiled: List[Tuple[KernelCase, KernelCase]] = []
        self.disk_bytes = 0.0

    # ---- set-up -----------------------------------------------------------

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        if self.warm:
            self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=self.work_dir)
            cache = CompileCache(disk=self.cache_dir)
            for _, builder, size in self.targets:
                for compile_arm in (compile_baseline, compile_cfm):
                    compile_arm(self._build(builder, size), cache=cache,
                                machine=MACHINE)

    def teardown(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    @staticmethod
    def _build(builder, size: int) -> KernelCase:
        return builder(block_size=size, grid_dim=DEFAULT_GRID_DIM)

    # ---- one iteration ----------------------------------------------------

    def _with_cache(self, body) -> Iteration:
        """Run ``body(cache)`` against this workload's kind of cache."""
        if self.warm:
            cache = CompileCache(disk=self.cache_dir)
            iteration = body(cache)
        else:
            fresh = tempfile.mkdtemp(prefix="cold-", dir=self.work_dir)
            try:
                cache = CompileCache(disk=fresh)
                iteration = body(cache)
                self.disk_bytes = self._disk_bytes(fresh)
            finally:
                shutil.rmtree(fresh, ignore_errors=True)
        counters = cache.counters()
        lookups = counters["hits"] + counters["misses"]
        iteration.layers.update({
            "compile_cache.hits": float(counters["hits"]),
            "compile_cache.misses": float(counters["misses"]),
            "compile_cache.hit_ratio": counters["hits"] / lookups,
        })
        if self.warm:
            iteration.attempted += 1
            if counters["misses"] or iteration.layers["transforms.pass_runs"]:
                iteration.failures.append(
                    f"fig8_warm: {counters['misses']} cache misses and "
                    f"{iteration.layers['transforms.pass_runs']:.0f} pass "
                    f"runs on a warm cache (both must be 0)")
        return iteration

    @staticmethod
    def _disk_bytes(directory: str) -> float:
        return float(sum(f.stat().st_size for f in Path(directory).iterdir()))

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        if tracer is None:
            return self._with_cache(self._untraced)
        return self._with_cache(lambda cache: self._traced(tracer, cache))

    def _finish_case(self, iteration: Iteration, label: str,
                     base: KernelCase, cfm: KernelCase, runs, stats,
                     timings: List[PassTiming]) -> None:
        """Record one case's exact results (``runs`` is None if it failed)."""
        iteration.attempted += 1
        if runs is None:
            return
        (base_out, base_metrics), (cfm_out, cfm_metrics) = runs
        if base_out != cfm_out:
            iteration.failures.append(f"{label}: CFM changed the outputs")
        iteration.cases[label] = {
            "o3_cycles": base_metrics.cycles,
            "cfm_cycles": cfm_metrics.cycles,
            "o3_instrs": instruction_count(base.function),
            "cfm_instrs": instruction_count(cfm.function),
            "melds": len(stats.melds),
            "o3_issued": base_metrics.instructions_issued,
            "cfm_issued": cfm_metrics.instructions_issued,
            "o3_ir_digest": ir_digest(base),
            "cfm_ir_digest": ir_digest(cfm),
        }
        self.compiled.append((base, cfm))
        layers = iteration.layers
        add_into(layers, pass_layers(timings))
        add_into(layers, {
            "core.iterations": stats.iterations,
            "core.regions_considered": stats.regions_considered,
            "core.pairs_rejected": stats.pairs_rejected_unprofitable,
            "core.melds": len(stats.melds),
            "core.instrs_melded": stats.total_melded_instructions,
            "core.selects_inserted": stats.total_selects,
        })
        self._metrics += [base_metrics, cfm_metrics]

    def _begin(self) -> Iteration:
        self.compiled = []
        self._metrics: List[Metrics] = []
        return Iteration(layers={"evaluation.compile_s": 0.0,
                                 "evaluation.simulate_s": 0.0,
                                 "transforms.pass_runs": 0.0})

    def _end(self, iteration: Iteration) -> Iteration:
        iteration.layers.update(simulation_layers(self._metrics))
        return iteration

    def _untraced(self, cache: CompileCache) -> Iteration:
        iteration = self._begin()
        for label, builder, size in self.targets:
            runs = stats = None
            timings: List[PassTiming] = []
            start = time.perf_counter()
            base, cfm = self._build(builder, size), self._build(builder, size)
            built = time.perf_counter()
            try:
                base_compile = compile_baseline(base, cache=cache,
                                                machine=MACHINE)
                cfm_compile = compile_cfm(cfm, cache=cache, machine=MACHINE)
                compiled = time.perf_counter()
                runs = [(run.outputs, run.metrics) for run in (
                    execute(base, seed=self.seed, machine=MACHINE, check=True),
                    execute(cfm, seed=self.seed, machine=MACHINE, check=True))]
                end = time.perf_counter()
                iteration.layers["evaluation.compile_s"] += compiled - built
                iteration.layers["evaluation.simulate_s"] += end - compiled
                stats = cfm_compile.cfm_stats
                # replayed passes are flagged ``cached`` and drop out in
                # pass_layers, so each live run is counted exactly once
                timings = (base_compile.pass_timings
                           + cfm_compile.pass_timings)
            except Exception as exc:  # a failed case must not stop the run
                iteration.failures.append(
                    f"{label}: {type(exc).__name__}: {exc}")
                end = time.perf_counter()
            iteration.units.append((label, end - start))
            self._finish_case(iteration, label, base, cfm, runs, stats,
                              timings)
        return self._end(iteration)

    # ---- the staged replica -------------------------------------------------
    #
    # The same work as compile_baseline/compile_cfm/execute, spelled out
    # through the public functions of each layer so that every call into
    # a layer sits inside a span.  The harness requires its exact results
    # to equal the untraced iteration's, so it cannot drift unnoticed.

    def _staged_compile(self, tracer: Tracer, case: KernelCase,
                        cache: CompileCache, cfm: bool):
        """Returns ``(cfm stats or None, live pass timings)``."""
        with tracer.span("ir.print", "ir"):
            printed = print_module(case.module)
        full_key = CompileCache.key(cfm_pipeline_id(None), printed)
        if cfm:
            with tracer.span("compile_cache.lookup", "compile_cache"):
                hit = cache.lookup(full_key, machine=MACHINE)
            if hit is not None:
                case.module = hit.module
                return hit.cfm_stats, []
        o3_key = CompileCache.key("o3", printed)
        with tracer.span("compile_cache.lookup", "compile_cache"):
            hit = cache.lookup(o3_key, machine=None if cfm else MACHINE)
        timings: List[PassTiming] = []
        o3_seconds = 0.0
        if hit is not None:
            case.module = hit.module
            o3_seconds = hit.seconds
        else:
            with tracer.span("transforms.o3", "transforms") as span:
                timings += optimize(case.function).timings
            o3_seconds = span["end"] - span["start"]
            with tracer.span("simt.lowering.lower", "simt.lowering"):
                program = lower_symbolic(case.function, MACHINE.latency)
            with tracer.span("compile_cache.store", "compile_cache"):
                cache.store(o3_key, case.module, o3_seconds, timings,
                            program=program, machine=MACHINE)
            if not cfm:
                with tracer.span("ir.verify", "ir"):
                    verify_function(case.function)
        if not cfm:
            return None, timings
        with tracer.span("core.cfm", "core") as span:
            stats = CFMPass(None).run(case.function).stats
        with tracer.span("transforms.late", "transforms") as late_span:
            late = late_pipeline()
            late.run(case.function)
        timings += late.timings
        with tracer.span("ir.verify", "ir"):
            verify_function(case.function)
        with tracer.span("simt.lowering.lower", "simt.lowering"):
            program = lower_symbolic(case.function, MACHINE.latency)
        with tracer.span("compile_cache.store", "compile_cache"):
            cache.store(full_key, case.module, o3_seconds, timings,
                        program=program, machine=MACHINE,
                        cfm_seconds=late_span["end"] - span["start"],
                        cfm_stats=stats)
        return stats, timings

    def _staged_execute(self, tracer: Tracer, case: KernelCase):
        inputs = case.make_buffers(self.seed)
        buffers = {name: list(data) for name, data in inputs.items()}
        with tracer.span("simt.launch", "simt"):
            outputs, metrics = run_kernel(
                case.module, case.kernel, case.grid_dim, case.block_dim,
                buffers=buffers, scalars=case.scalars, machine=MACHINE)
        case.verify_outputs(inputs, outputs)
        return outputs, metrics

    def _traced(self, tracer: Tracer, cache: CompileCache) -> Iteration:
        iteration = self._begin()
        for label, builder, size in self.targets:
            runs = stats = None
            timings: List[PassTiming] = []
            start = time.perf_counter()
            with tracer.span("case", "bench", case=label):
                with tracer.span("kernels.build", "kernels"):
                    base = self._build(builder, size)
                    cfm = self._build(builder, size)
                try:
                    _, timings = self._staged_compile(tracer, base, cache,
                                                      cfm=False)
                    stats, late = self._staged_compile(tracer, cfm, cache,
                                                       cfm=True)
                    timings = timings + late
                    runs = [self._staged_execute(tracer, base),
                            self._staged_execute(tracer, cfm)]
                except Exception as exc:  # as in the untraced loop
                    iteration.failures.append(
                        f"{label} (traced): {type(exc).__name__}: {exc}")
            iteration.units.append((label, time.perf_counter() - start))
            self._finish_case(iteration, label, base, cfm, runs, stats,
                              timings)
        return self._end(iteration)

    # ---- stand-alone probes -------------------------------------------------

    def probes(self, tracer: Tracer) -> Dict[str, float]:
        """Time the work that hides inside ``CompileCache.lookup`` (parse,
        materialise) and inside the CFM pass (divergence, post-dominators),
        on the modules the last iteration compiled."""
        uops = 0
        for base, cfm in self.compiled:
            with tracer.span("analysis.divergence", "analysis"):
                compute_divergence(base.function)
            with tracer.span("analysis.postdom", "analysis"):
                compute_postdominator_tree(base.function)
            for case in (base, cfm):
                printed = print_module(case.module)
                with tracer.span("ir.parse", "ir"):
                    parse_module(printed)
                program = lower_symbolic(case.function, MACHINE.latency)
                uops += sum(len(block["ops"]) for block in program["blocks"])
                with tracer.span("simt.lowering.materialize",
                                 "simt.lowering"):
                    materialize_program(program, case.function)
        disk = (self._disk_bytes(self.cache_dir) if self.warm
                else self.disk_bytes)
        return {"simt.lowering.uops": float(uops),
                "compile_cache.disk_bytes": disk}

    # ---- results ------------------------------------------------------------

    def layer_counts(self, cases: Cases,
                     iterations: List[Iteration]) -> Dict[str, float]:
        layers = iterations[0].layers
        built = [self._build(builder, size)
                 for _, builder, size in self.targets]
        melds = layers.get("core.melds", 0.0)
        considered = layers.get("core.regions_considered", 0.0)
        return {
            "kernels.cases": float(len(cases)),
            "ir.instrs_in": float(2 * sum(instruction_count(case.function)
                                          for case in built)),
            "transforms.instrs_after_o3":
                float(sum(c["o3_instrs"] for c in cases.values())),
            "core.code_instrs": float(sum(c["o3_instrs"] + c["cfm_instrs"]
                                          for c in cases.values())),
            "core.meld_accept_ratio":
                melds / considered if considered else 0.0,
        }
