"""The differential oracle: one kernel, five pipelines, one verdict.

Each generated kernel is compiled under every *arm* of the matrix —

==============  ============================================================
arm             pipeline
==============  ============================================================
``noopt``       DSL output run as-is (the reference semantics)
``o3``          the -O3 fixpoint pipeline
``o3-cfm``      -O3, then the CFM melding pass + §V-A late cleanups
``o3-tail``     -O3, then tail merging + late cleanups
``o3-bf``       -O3, then branch fusion + late cleanups
==============  ============================================================

— with ``verify_function`` run after every pass execution that leaves
a *distinct* IR state (the oracle's check hook, an ``after_each`` hook
on :class:`~repro.transforms.PassPipeline`) and the error-capable
:mod:`repro.lint` rules differenced at the same points: a pass that
*introduces* an error-severity
diagnostic the previous IR did not carry — a barrier moved under
divergent control flow, a shared-memory race opened by a deleted
barrier — fails the arm with kind ``"lint"`` and the guilty pass
attached, even when the simulator cannot observe the hazard (a one-warp
block makes a dropped barrier semantically invisible).  Within one
:func:`run_oracle` call the kernel is built once and the ``-O3``
fixpoint runs once, on a clone of the build; each reducer arm compiles
its own clone of the post-``-O3`` module (:class:`_Prefix`).  After
compilation the ``o3-cfm`` arm additionally runs the meld-legality
audit over the pass's decision log.  The kernels are then launched on
the SIMT machine over several deterministic input sets.  Device memory
is compared bit-for-bit against the ``noopt`` arm; any difference,
verifier error, lint regression or simulator trap becomes a
:class:`Failure` carrying the arm, the guilty pass (when known) and the
first diverging buffer index.

With ``validate=True`` the ``o3-cfm`` arm also runs the *static* oracle:
symbolic translation validation of every meld
(:mod:`repro.analysis.validate`), wired in as a second ``after_each``
hook.  An ``INEQUIVALENT`` meld fails the arm with
kind ``"validate"`` whether or not any input set witnesses the
difference — the one oracle class that does not need a run.

One :class:`~repro.simt.GPU` per arm is reused across all input sets via
``GPU.reset()``, so a long fuzzing run touches the device-state
lifecycle the same way a real host application would.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

import repro
from repro import CFMConfig, GPU, MachineConfig, verify_function
from repro.analysis import MeldValidationError, validate_melds_hook
from repro.ir import Function, Module, fingerprint
from repro.lint import LintReport, Severity, rules_emitting
from repro.obs import MeldingDecision, Tracer, use as use_tracer
from repro.pipeline import ARM_STAGES, ARMS, Arm, compile_arm
from repro.transforms import clone_module

from .generator import KernelSpec, build_kernel, make_inputs

#: every arm of the matrix, in reporting order (the compile driver's)
ALL_ARMS = ARMS
#: arms that exercise a divergence-reduction pass on top of -O3
MELDING_ARMS = ("o3-cfm", "o3-tail", "o3-bf")


@dataclass
class Failure:
    """One way one arm disagreed with the reference."""

    arm: str
    #: "mismatch" | "verifier" | "lint" | "validate" | "crash"
    kind: str
    detail: str
    #: pass that broke the IR (verifier failures only)
    pass_name: Optional[str] = None
    input_seed: Optional[int] = None

    def __str__(self) -> str:
        where = f" after pass {self.pass_name!r}" if self.pass_name else ""
        inputs = (f" (input seed {self.input_seed})"
                  if self.input_seed is not None else "")
        return f"[{self.arm}] {self.kind}{where}{inputs}: {self.detail}"


@dataclass
class ArmReport:
    """Compile + run outcome of one arm on one kernel."""

    arm: str
    #: distinct IR states the arm's check hook verified and lint-diffed
    verified_passes: int = 0
    melds: int = 0
    outputs: Optional[List[Dict[str, List[int]]]] = None
    failure: Optional[Failure] = None
    #: the compiled kernel's ``module`` and ``function`` (present when
    #: compilation succeeded)
    builder: Optional[_Kernel] = field(default=None, repr=False)
    #: the CFM pass's melding decision log (``o3-cfm`` arm only)
    decisions: List[MeldingDecision] = field(default_factory=list, repr=False)


@dataclass
class Verdict:
    """Everything the oracle learned about one kernel spec."""

    spec: KernelSpec
    arms: Dict[str, ArmReport] = field(default_factory=dict)
    failures: List[Failure] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def mismatches(self) -> int:
        return sum(1 for f in self.failures if f.kind == "mismatch")

    @property
    def verifier_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "verifier")

    @property
    def lint_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "lint")

    @property
    def validate_failures(self) -> int:
        return sum(1 for f in self.failures if f.kind == "validate")


class _PassChecker:
    """Pass hook: verify each distinct IR state, and lint-diff it.

    :func:`~repro.ir.fingerprint` is read once per pass execution, and a
    state equal to the one checked last is skipped: ``verify_function``
    and ``repro.lint`` are pure functions of the IR, so they would
    return what they returned for it.  (Not the pass's own ``changed``
    flag: that is output of the code under test.)  The blocks and
    instructions of the checked state are held, so no id in its
    fingerprint can be reused by a new object while it is the state
    compared against.  What the fingerprint cannot see is an instruction
    rewritten in place — opcode, predicate, callee or type;
    ``tests/ir/test_fingerprint_blind_spot.py`` pins that no pass does
    that.

    The lint baseline starts as the input IR's own report (pre-existing
    findings are the generator's responsibility, not any pass's) and
    advances after each checked state, so a new error-severity
    diagnostic is attributed to exactly the pass that introduced it.
    """

    def __init__(self, baseline: LintReport) -> None:
        self.baseline = baseline
        #: distinct states checked
        self.count = 0
        self._checked: Optional[tuple] = None
        self._held: List[list] = []

    def __call__(self, pass_name: str, function, result) -> None:
        state = fingerprint(function)
        if state == self._checked:
            return
        try:
            verify_function(function)
        except Exception as exc:
            raise PassVerificationError(pass_name, exc) from exc
        report = repro.lint(function, rules=_ERROR_RULES)
        new = report.new_errors(self.baseline)
        if new:
            raise PassLintError(pass_name, new)
        self.baseline, self._checked = report, state
        self._held = [function.blocks, list(function.instructions())]
        self.count += 1


class PassVerificationError(Exception):
    """verify_function failed right after ``pass_name`` ran."""

    def __init__(self, pass_name: str, cause: Exception) -> None:
        self.pass_name = pass_name
        super().__init__(f"IR invalid after pass {pass_name!r}: {cause}")


class PassLintError(Exception):
    """A pass introduced a new error-severity lint diagnostic."""

    def __init__(self, pass_name: str, diagnostics) -> None:
        self.pass_name = pass_name
        self.diagnostics = list(diagnostics)
        rendered = "; ".join(d.render().split("\n")[0]
                             for d in self.diagnostics)
        super().__init__(
            f"pass {pass_name!r} introduced new lint error(s): {rendered}")


#: the differ compares errors only, so it runs only the rules that can
#: emit one (no interval fixpoint for a warning nobody reads)
_ERROR_RULES = rules_emitting(Severity.ERROR)


class _Kernel(NamedTuple):
    """A compiled arm's module and kernel function."""

    module: Module
    function: Function


def _compile(report: ArmReport, function: Function, stages: Arm,
             checker: Optional[_PassChecker],
             cfm_config: Optional[CFMConfig],
             validate: bool) -> ArmReport:
    """``compile_arm(function, stages)`` with ``checker`` hooked; the
    outcome, or the first failure, lands in ``report``."""
    # Under ``validate`` the CFM arm compiles with translation validation
    # on and carries the hook, so an INEQUIVALENT meld aborts the arm at
    # the guilty pass.
    validate = validate and report.arm == "o3-cfm"
    if validate:
        cfm_config = dataclasses.replace(cfm_config or CFMConfig(),
                                         validate=True)
    hooks = [h for h in (checker, validate_melds_hook if validate else None)
             if h is not None]
    try:
        # A checked compile needs no final verify: its last state is the
        # one the checker checked last, or equal to it.
        result = compile_arm(function, stages, cfm_config,
                             verify=checker is None, after_each=hooks)
    except PassVerificationError as exc:
        report.failure = Failure(arm=report.arm, kind="verifier",
                                 detail=str(exc), pass_name=exc.pass_name)
        return report
    except PassLintError as exc:
        report.failure = Failure(arm=report.arm, kind="lint", detail=str(exc),
                                 pass_name=exc.pass_name)
        return report
    except MeldValidationError as exc:
        report.failure = Failure(arm=report.arm, kind="validate",
                                 detail=str(exc), pass_name=exc.pass_name)
        return report
    except Exception as exc:
        report.failure = Failure(arm=report.arm, kind="crash",
                                 detail=f"{type(exc).__name__}: {exc}")
        return report
    if checker is not None:
        report.verified_passes += checker.count
    if result.cfm_stats is not None:
        report.melds = result.melds
        report.decisions = list(result.cfm_stats.decisions)
        # The per-pass hook cannot see the decision log (it lives on
        # the pass object); audit meld legality once, post-compile.
        audit = repro.lint(function, rules=["meld-legality"],
                           decisions=report.decisions)
        if not audit.ok:
            report.failure = Failure(
                arm=report.arm, kind="lint", pass_name="cfm",
                detail="; ".join(d.render().split("\n")[0]
                                 for d in audit.errors))
            return report
    report.builder = _Kernel(function.module, function)
    return report


def _compile_arm(arm: str, spec: KernelSpec,
                 cfm_config: Optional[CFMConfig],
                 validate: bool = False) -> ArmReport:
    """Build ``spec`` and compile it under ``arm`` in one fully hooked
    ``compile_arm`` call — the standalone compile every arm of
    :func:`run_oracle` equals."""
    function = build_kernel(spec).function
    checker = (None if arm == "noopt"
               else _PassChecker(repro.lint(function, rules=_ERROR_RULES)))
    return _compile(ArmReport(arm=arm), function, arm, checker, cfm_config,
                    validate)


class _Prefix:
    """The build and the ``-O3`` prefix the arms of one
    :func:`run_oracle` call share.

    The kernel is built once, and the ``noopt`` arm compiles that build.
    The ``-O3`` fixpoint runs once, fully hooked, on a clone of it taken
    before anything else reads it: that compile is the ``o3`` arm.  Each
    reducer arm compiles its own clone of the post-``-O3`` module with
    the reducer stage alone, its checker starting from the lint baseline
    where ``-O3`` ended.  :func:`~repro.transforms.clone_module` copies
    exactly, so every arm's IR, melds, decision log and failure are its
    standalone compile's (:func:`_compile_arm`).  A prefix that failed
    fails every ``o3*`` arm with its failure, under the arm's own name.
    """

    def __init__(self, spec: KernelSpec, cfm_config: Optional[CFMConfig],
                 validate: bool) -> None:
        self.cfm_config, self.validate = cfm_config, validate
        self.build = build_kernel(spec)
        name = self.build.function.name
        #: what the ``-O3`` stage compiles in place; cloned first, as
        #: printing the build would name its values
        self._o3_function = clone_module(self.build.module).functions[name]
        self._o3: Optional[ArmReport] = None
        #: the lint baseline where ``-O3`` ended
        self._baseline: Optional[LintReport] = None

    def compile(self, arm: str) -> ArmReport:
        report = ArmReport(arm=arm)
        if arm == "noopt":
            return _compile(report, self.build.function, arm, None,
                            self.cfm_config, self.validate)
        if self._o3 is None:
            function = self._o3_function
            checker = _PassChecker(repro.lint(function, rules=_ERROR_RULES))
            self._o3 = _compile(ArmReport(arm="o3"), function, "o3", checker,
                                self.cfm_config, self.validate)
            self._baseline = checker.baseline
            # The arm that ran the prefix reports its checks.
            report.verified_passes = self._o3.verified_passes
        o3 = self._o3
        if o3.failure is not None:
            report.failure = dataclasses.replace(o3.failure, arm=arm)
        elif arm == "o3":
            report.builder = o3.builder
        else:
            function = clone_module(o3.builder.module).functions[
                o3.builder.function.name]
            _compile(report, function, (False, ARM_STAGES[arm][1]),
                     _PassChecker(self._baseline), self.cfm_config,
                     self.validate)
        return report


def arm_trace(spec: KernelSpec, arm: str,
              cfm_config: Optional[CFMConfig] = None,
              validate: bool = False) -> Dict[str, object]:
    """Re-compile one arm under a fresh tracer and return its artifacts.

    Used when recording a failing seed: the hot fuzz loop runs untraced,
    and only once a failure is being written to the corpus is the guilty
    arm recompiled to capture its pass-span trace and (for ``o3-cfm``)
    the melding decision log.  Compilation is deterministic, so the
    replayed trace describes exactly the compile that failed.
    """
    tracer = Tracer()
    with use_tracer(tracer):
        report = _compile_arm(arm, spec, cfm_config, validate=validate)
    return {
        "arm": arm,
        "events": list(tracer.events),
        "melding_decisions": [d.as_dict() for d in report.decisions],
    }


def _run_arm(report: ArmReport, spec: KernelSpec,
             input_seeds: Sequence[int],
             machine: Optional[MachineConfig] = None) -> None:
    """Launch one compiled arm over every input set, reusing one GPU."""
    builder = report.builder
    outputs: List[Dict[str, List[int]]] = []
    with GPU(builder.module, machine) as gpu:
        for input_seed in input_seeds:
            args = make_inputs(spec, input_seed)
            try:
                result = repro.launch(builder.module, spec.grid_dim,
                                      spec.block_dim, args, gpu=gpu)
            except Exception as exc:
                report.failure = Failure(
                    arm=report.arm, kind="crash", input_seed=input_seed,
                    detail=f"{type(exc).__name__}: {exc}")
                return
            outputs.append(result.outputs)
            gpu.reset()
    report.outputs = outputs


def _first_difference(reference: Dict[str, List[int]],
                      candidate: Dict[str, List[int]]) -> str:
    for name in sorted(reference):
        ref, got = reference[name], candidate.get(name)
        if got == ref:
            continue
        for i, (r, g) in enumerate(zip(ref, got or [])):
            if r != g:
                return f"buffer {name!r}[{i}]: expected {r}, got {g}"
        return f"buffer {name!r}: length {len(ref)} vs {len(got or [])}"
    return "outputs differ"


def run_oracle(spec: KernelSpec,
               arms: Sequence[str] = ALL_ARMS,
               input_seeds: Sequence[int] = (0, 1),
               cfm_config: Optional[CFMConfig] = None,
               machine: Optional[MachineConfig] = None,
               validate: bool = False) -> Verdict:
    """Compile and run ``spec`` under every arm; diff against ``noopt``.

    ``machine`` (a :class:`~repro.simt.MachineConfig`) describes the
    simulated GPU every arm launches on — executor, reconvergence
    policy, latency model.  The executor-differential tests run the same
    compiled arms under both executors; the policy-differential contract
    is that device memory is bit-identical across reconvergence policies
    too.

    ``validate=True`` adds the *static* sixth oracle: the ``o3-cfm`` arm
    compiles with symbolic translation validation enabled
    (``CFMConfig.validate``) and the
    :func:`~repro.analysis.validate.validate_melds_hook` pipeline hook,
    so any meld proven ``INEQUIVALENT`` fails the arm with kind
    ``"validate"`` — even when every run-and-diff input happens to mask
    the miscompile dynamically.
    """
    unknown = set(arms) - set(ALL_ARMS)
    if unknown:
        raise ValueError(f"unknown arms: {sorted(unknown)} "
                         f"(available: {list(ALL_ARMS)})")
    start = time.perf_counter()
    verdict = Verdict(spec=spec)
    arm_list = list(arms)
    if "noopt" not in arm_list:
        arm_list.insert(0, "noopt")

    prefix = _Prefix(spec, cfm_config, validate)
    for arm in arm_list:
        report = prefix.compile(arm)
        if report.failure is None:
            _run_arm(report, spec, input_seeds, machine=machine)
        verdict.arms[arm] = report
        if report.failure is not None:
            verdict.failures.append(report.failure)

    reference = verdict.arms["noopt"]
    if reference.outputs is not None:
        for arm in arm_list:
            report = verdict.arms[arm]
            if arm == "noopt" or report.outputs is None:
                continue
            for input_seed, ref, got in zip(input_seeds, reference.outputs,
                                            report.outputs):
                if got != ref:
                    failure = Failure(
                        arm=arm, kind="mismatch", input_seed=input_seed,
                        detail=_first_difference(ref, got))
                    report.failure = report.failure or failure
                    verdict.failures.append(failure)

    verdict.seconds = time.perf_counter() - start
    return verdict
