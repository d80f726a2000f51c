"""``fuzz_validate``: the five-arm differential oracle with symbolic meld
validation over a block of generated kernels.

It uses the compile layers differently from Fig. 8: many tiny CFGs, five
arms each, ``verify_after_each``, the lint differ, the validator and no
cache — a change that speeds big-kernel alignment by adding fixed
per-function cost shows as a loss here.

The generated *programs* are a fixed block (generator seeds
``0..PROGRAMS-1``); ``--seed`` draws the input data every arm runs on.
Per-program oracle time varies 25x across generator seeds (measured:
0.014-0.36 s), so a seed-drawn block of the size that fits a run would
move ``iter_ms`` by ~10 % from the draw alone.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import repro
from repro.analysis import EQUIVALENT, INEQUIVALENT, UNSUPPORTED
from repro.core import CFMConfig, CFMPass
from repro.difftest.generator import (
    KernelSpec,
    build_kernel,
    generate_spec,
    make_inputs,
)
from repro.difftest.oracle import Verdict, run_oracle
from repro.ir import verify_function
from repro.transforms import o3_pipeline

from .harness import (
    Cases,
    Iteration,
    Tracer,
    Workload,
    add_into,
    instruction_count,
    iteration_seconds,
    span,
)

PROGRAMS = 16
VERDICTS = {EQUIVALENT: "equivalent", UNSUPPORTED: "unsupported",
            INEQUIVALENT: "inequivalent"}


class FuzzValidate(Workload):
    name = "fuzz_validate"
    golden_key = "fuzz"

    def __init__(self, seed, work_dir) -> None:
        super().__init__(seed, work_dir)
        base = seed % 2 ** 31
        self.input_seeds = (base, base + 1)
        self.specs: List[KernelSpec] = []
        #: the latest iteration's verdicts (compiled arms for verify())
        self.verdicts: List[Verdict] = []

    def setup(self) -> None:
        self.specs = [generate_spec(index) for index in range(PROGRAMS)]

    # ---- one iteration ----------------------------------------------------

    def iteration(self, tracer: Optional[Tracer] = None) -> Iteration:
        iteration = Iteration(layers={"difftest.melds": 0.0,
                                      "difftest.failures": 0.0})
        self.verdicts = []
        for spec in self.specs:
            label = f"program-{spec.seed}"
            start = time.perf_counter()
            if tracer is not None:  # generation is set-up work otherwise
                with tracer.span("difftest.generate", "difftest", label):
                    spec = generate_spec(spec.seed)
            with span(tracer, "difftest.oracle", "difftest", label):
                verdict = run_oracle(spec, validate=True,
                                     input_seeds=self.input_seeds)
            iteration.units.append((label, time.perf_counter() - start))
            self.verdicts.append(verdict)
            iteration.attempted += 1
            iteration.failures += [f"{label}: {failure}"
                                   for failure in verdict.failures]
            melds = verdict.arms["o3-cfm"].melds
            iteration.cases[label] = {"melds": melds,
                                      "failures": len(verdict.failures)}
            add_into(iteration.layers, {
                "difftest.melds": melds,
                "difftest.failures": len(verdict.failures)})
        return iteration

    # ---- checks -------------------------------------------------------------

    def _compile_validated(self, spec: KernelSpec,
                           tracer: Optional[Tracer] = None):
        """``-O3`` then CFM with translation validation on, stage by stage
        (what the oracle's ``o3-cfm`` arm runs); returns the CFM stats."""
        tracer = tracer or Tracer()
        function = build_kernel(spec).function
        with tracer.span("transforms.o3", "transforms"):
            o3_pipeline().run_to_fixpoint(function)
        with tracer.span("ir.verify", "ir"):
            verify_function(function)
        with tracer.span("core.cfm", "core"):
            return CFMPass(CFMConfig(validate=True)).run(function).stats

    def verify(self, first: Iteration) -> Tuple[Cases, int, List[str]]:
        """The oracle's verdicts are the correctness check (device memory
        of every arm equals the unoptimised arm's; no verifier, lint or
        validator failure).  Here the ``o3`` and ``o3-cfm`` arms it
        compiled are launched once more for their cycle counts, and the
        validator's verdict counts are read off a staged compile."""
        cases = {label: dict(facts) for label, facts in first.cases.items()}
        for spec, verdict in zip(self.specs, self.verdicts):
            facts = cases[f"program-{spec.seed}"]
            for arm, prefix in (("o3", "o3"), ("o3-cfm", "cfm")):
                builder = verdict.arms[arm].builder
                if builder is None:
                    continue  # the arm failed; already counted
                result = repro.launch(
                    builder.module, spec.grid_dim, spec.block_dim,
                    make_inputs(spec, self.input_seeds[0]))
                facts[f"{prefix}_cycles"] = result.metrics.cycles
                facts[f"{prefix}_instrs"] = instruction_count(
                    builder.function)
            stats = self._compile_validated(spec)
            for verdict_name in VERDICTS.values():
                facts[verdict_name] = 0
            for validation in stats.validations:
                facts[VERDICTS[validation.verdict]] += 1
        return cases, 0, []

    def probes(self, tracer: Tracer) -> Dict[str, float]:
        seconds = 0.0
        for spec in self.specs:
            stats = self._compile_validated(spec, tracer)
            seconds += sum(v.seconds for v in stats.validations)
        # reported by the validator itself; a part of core.cfm_s above
        return {"analysis.validate_s": seconds}

    # ---- results ------------------------------------------------------------

    def layer_counts(self, cases: Cases,
                     iterations: List[Iteration]) -> Dict[str, float]:
        def total(key: str) -> float:
            return float(sum(facts.get(key, 0) for facts in cases.values()))

        return {
            "kernels.cases": float(len(cases)),
            "difftest.seeds_per_s":
                len(cases) / iteration_seconds(iterations),
            "transforms.instrs_after_o3": total("o3_instrs"),
            "core.code_instrs": total("o3_instrs") + total("cfm_instrs"),
            "core.melds": total("melds"),
            "analysis.validate.equivalent": total("equivalent"),
            "analysis.validate.unsupported": total("unsupported"),
        }
