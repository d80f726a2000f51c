"""Function-pass infrastructure.

Two pass forms share one pipeline:

* a plain callable ``(Function) -> bool`` returning whether it changed
  the IR — every standard transform in :mod:`repro.transforms` has this
  shape;
* a :class:`Pass` subclass whose ``run(function) -> PassResult`` can
  also surface structured statistics (the CFM pass returns its
  :class:`~repro.core.pass_.CFMStats`, the baselines their change flag).

:class:`PassPipeline` hosts both behind the :class:`Pass` interface
(callables are wrapped on :meth:`PassPipeline.add`) and runs them in
order, optionally to a fixpoint.  This module alone decides what one
pass execution records and who observes it.  Each execution yields one
:class:`PassTiming` — seconds, change flag and the IR's block and
instruction counts on both sides of the pass — and then, in order:

1. the timing joins ``timings`` (the executions of the most recent
   :meth:`PassPipeline.run` / :meth:`PassPipeline.run_to_fixpoint`
   call, which is what Table II and the sweep trace read);
2. it is emitted as one compile-side span when an ambient tracer is
   enabled (``repro.obs``) and as one ``repro_compile_pass_seconds``
   sample;
3. a changed pass invalidates the function's divergence memo;
4. every ``after_each`` hook runs, in list order, as
   ``hook(pass_name, function, result)``.

Raising from a hook aborts the pipeline at that pass.  The
differential-testing oracle (:mod:`repro.difftest`) hooks in the
verifier, the lint differ and the meld validator this way, which is how
it attributes each failure to the exact pass that introduced it.

IR sizes are measured once per pass boundary: no hook mutates the IR,
so the "after" of one execution is the "before" of the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.ir.function import Function
from repro.obs import current_tracer, emit_pass_timing, record_pass_seconds

FunctionPass = Callable[[Function], bool]

#: an ``after_each`` hook: ``hook(pass_name, function, result)``
PassHook = Callable[[str, Function, "PassResult"], None]


@dataclass
class PassResult:
    """Outcome of one :meth:`Pass.run`: the change flag every caller
    needs plus whatever structured statistics the pass produces."""

    changed: bool
    stats: Optional[object] = None

    def __bool__(self) -> bool:
        return self.changed


class Pass:
    """A named function transformation with a uniform invocation surface.

    Subclasses set :attr:`name` and implement
    :meth:`run(function) -> PassResult`.  Instances are also plain
    ``(Function) -> bool`` callables, so a :class:`Pass` drops into any
    code path that still expects the callable form.
    """

    name: str = "pass"

    def run(self, function: Function) -> PassResult:
        raise NotImplementedError

    def __call__(self, function: Function) -> bool:
        return self.run(function).changed

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class CallablePass(Pass):
    """Adapter giving a plain ``(Function) -> bool`` callable the
    :class:`Pass` interface (used by :meth:`PassPipeline.add`)."""

    def __init__(self, name: str, fn: FunctionPass) -> None:
        self.name = name
        self.fn = fn

    def run(self, function: Function) -> PassResult:
        return PassResult(changed=bool(self.fn(function)))


def as_pass(pass_: Union[Pass, FunctionPass], name: Optional[str] = None) -> Pass:
    """Normalize a pass-like object to a :class:`Pass` instance."""
    if isinstance(pass_, Pass):
        return pass_
    return CallablePass(name or getattr(pass_, "__name__", "pass"), pass_)


@dataclass
class PassTiming:
    """One pass execution: wall-clock seconds and the IR's size on both
    sides (Table II's raw material, one sweep-trace pass event)."""

    name: str
    seconds: float
    changed: bool
    blocks_before: int
    blocks_after: int
    instructions_before: int
    instructions_after: int
    #: this timing was replayed from a compile cache, not measured live
    #: (``seconds`` reports the original run; trace spans carry the flag)
    cached: bool = False


class FixpointError(RuntimeError):
    """A pipeline kept reporting changes at the iteration cap."""

    def __init__(self, function_name: str, max_iterations: int,
                 unstable_passes: List[str]) -> None:
        self.function_name = function_name
        self.max_iterations = max_iterations
        self.unstable_passes = list(unstable_passes)
        detail = (", ".join(self.unstable_passes)
                  if self.unstable_passes else "<none recorded>")
        super().__init__(
            f"pipeline did not reach a fixpoint in {max_iterations} "
            f"iterations on @{function_name}; passes still reporting "
            f"changes in the final iteration: {detail}")


def _ir_size(function: Function) -> Tuple[int, int]:
    blocks = function.blocks
    return len(blocks), sum(len(block) for block in blocks)


class PassPipeline:
    """An ordered list of named function passes (:class:`Pass` objects
    or plain callables) and the hooks that observe each execution (see
    module docstring)."""

    def __init__(self,
                 passes: Optional[Sequence[Union[Pass, Tuple[str, FunctionPass]]]] = None,
                 after_each: Sequence[PassHook] = ()) -> None:
        self._passes: List[Pass] = []
        for entry in passes or []:
            if isinstance(entry, Pass):
                self._passes.append(entry)
            else:
                name, fn = entry
                self._passes.append(as_pass(fn, name))
        #: hooks ``(pass_name, function, result)`` run after every pass
        #: execution, in order; raise from one to abort the pipeline
        self.after_each: Tuple[PassHook, ...] = tuple(after_each)
        #: pass executions of the most recent run()/run_to_fixpoint() call
        self.timings: List[PassTiming] = []

    def add(self, pass_or_name: Union[Pass, str],
            pass_: Optional[FunctionPass] = None) -> "PassPipeline":
        """Append a pass: ``add(PassInstance)`` or ``add("name", fn)``."""
        if isinstance(pass_or_name, Pass):
            if pass_ is not None:
                raise TypeError("add(Pass) takes no second argument")
            self._passes.append(pass_or_name)
        else:
            if pass_ is None:
                raise TypeError("add(name, fn) requires the pass callable")
            self._passes.append(as_pass(pass_, pass_or_name))
        return self

    @property
    def passes(self) -> List[Pass]:
        """The hosted passes, in execution order."""
        return list(self._passes)

    def _run_once(self, function: Function,
                  size: Tuple[int, int]) -> Tuple[bool, Tuple[int, int]]:
        """One sweep over the pass list, appending to the current scope;
        ``size`` is the IR's size on entry, the returned one on exit."""
        changed = False
        tracer = current_tracer()
        for pass_ in self._passes:
            start = time.perf_counter()
            result = pass_.run(function)
            seconds = time.perf_counter() - start
            after = _ir_size(function)  # the next pass's "before"
            timing = PassTiming(
                pass_.name, seconds, result.changed,
                blocks_before=size[0], blocks_after=after[0],
                instructions_before=size[1], instructions_after=after[1])
            size = after
            self.timings.append(timing)
            if tracer.enabled:
                emit_pass_timing(timing, tracer)
            record_pass_seconds(timing.name, timing.seconds)
            changed |= result.changed
            for hook in self.after_each:
                hook(pass_.name, function, result)
        return changed, size

    def run(self, function: Function) -> bool:
        """Run each pass once, in order.  Returns True if any changed IR."""
        self.timings = []
        return self._run_once(function, _ir_size(function))[0]

    def run_to_fixpoint(self, function: Function, max_iterations: int = 32) -> bool:
        """Repeat the whole pipeline until nothing changes.

        All iterations share one timing scope: after the call,
        ``timings`` holds every pass execution of this invocation.
        """
        self.timings = []
        size = _ir_size(function)
        any_change = False
        iteration_start = 0
        for _ in range(max_iterations):
            iteration_start = len(self.timings)
            changed, size = self._run_once(function, size)
            if not changed:
                return any_change
            any_change = True
        unstable = sorted({t.name for t in self.timings[iteration_start:]
                           if t.changed})
        raise FixpointError(function.name, max_iterations, unstable)
