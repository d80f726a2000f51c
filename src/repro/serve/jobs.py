"""Job types of the ``repro.serve`` server.

A **job** is what a client submits; a job expands into one or more
scheduler :class:`~repro.scheduler.Task` objects (its *tasks*), each of
which produces one JSON-able **row**.  The server streams rows back as
tasks settle and sends the full, position-ordered row list on the
``done`` event — so a job's row output is deterministic however the
pool interleaved it.

Five built-in kinds, registered in :data:`JOB_KINDS`:

``compile``
    one task per kernel: build + compile under one arm of the compile
    driver (:data:`repro.pipeline.ARMS`); rows report block/instruction
    counts and the CFM meld count.  The ``o3`` and ``o3-cfm`` arms read
    and write the server's compile cache (below); ``noopt`` and the
    Table I arms never touch it.
``launch``
    one task per kernel: compile the ``-O3`` baseline and execute it,
    reporting cycles and divergence counters.  The compile reads and
    writes the server's compile cache, so a warm launch replays the
    stored lowered program: no ``-O3``, no verifier, no lowering.
``sweep``
    one task per ``(kernel, block size)`` — the very
    ``Task(run_task, SweepTask(...))`` that
    :func:`repro.evaluation.run_sweep` submits (DESIGN.md, "The task
    path").  Its outcomes go through the same metrics fold and, with
    ``trace``, the same pid-rebasing event merge, so rows, the merged
    metrics delta and the trace match a ``python -m repro.evaluation``
    run.
``difftest``
    one task per seed: the full differential oracle
    (:func:`repro.difftest.run_oracle`) over the generated kernel.
``lint``
    one task per ``(kernel, level)``: compile-then-lint
    (:func:`repro.lint.lint_at_level`), reporting diagnostics.

With a cache directory (``ServerConfig.cache_dir``, passed to
:func:`make_job`; a client's ``cache_dir`` param is refused like any
param its kind does not read), ``sweep``, ``launch`` and
``compile`` tasks each carry it (``SweepTask.cache_dir`` or the
payload) and open a per-task :class:`~repro.compile_cache.CompileCache`
over it, so every worker — a replacement included — replays what any
job compiled before.  Without one, ``launch`` and ``compile`` run
uncached: a memory-only cache that dies with its task could never hit.
``difftest`` and ``lint`` never use the cache.

Launch geometry is bounded (``block_size``/``block_dim`` at most
:data:`MAX_BLOCK_SIZE`, ``grid_dim`` at most :data:`MAX_GRID_DIM`) and
a job's task count is checked against :data:`MAX_TASKS_PER_JOB` from
its list lengths, before any task list is built.

Payloads pickle and the task functions are module-level — both
requirements of the fork/pickle boundary — and kernels cross the wire
**by name**, resolved against :data:`repro.kernels.ALL_BUILDERS`, so no
closures are ever pickled.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.compile_cache import CompileCache
from repro.evaluation.experiments import (
    DEFAULT_GRID_DIM,
    DEFAULT_SEED,
    REAL_BLOCK_SIZES,
    SYNTHETIC_BLOCK_SIZES,
    SpeedupRow,
)
from repro.evaluation.parallel import (
    SweepTask,
    TaskResult,
    fold_sweep_metrics,
    merge_deltas,
    run_task,
)
from repro.evaluation.trace import SweepTraceCollector
from repro.obs import use_registry
from repro.scheduler import Task
from repro.simt import DEFAULT_CONFIG

from .protocol import ProtocolError

#: job kind -> JobSpec subclass (filled at module bottom)
JOB_KINDS: Dict[str, type] = {}

#: sweeps/difftests above these sizes are rejected as invalid-params —
#: a job is a unit of admission, and the queue cap reasons in tasks
MAX_TASKS_PER_JOB = 512

#: threads per block: the HIP/CUDA per-block limit, which every paper
#: sweep respects
MAX_BLOCK_SIZE = 1024

#: blocks per launch.  A launch costs about a millisecond per simulated
#: thread and the scheduler's timeout is off by default, so one
#: unbounded launch would pin a worker for as long as it likes.
MAX_GRID_DIM = 16

#: launch-geometry params and their upper bounds
_GEOMETRY_LIMITS = {"block_size": MAX_BLOCK_SIZE,
                    "block_sizes": MAX_BLOCK_SIZE,
                    "block_dim": MAX_BLOCK_SIZE,
                    "grid_dim": MAX_GRID_DIM}


class JobParamError(ProtocolError):
    """Params rejected by a job spec (wire code ``invalid-params``)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="invalid-params")


class _ReadParams(dict):
    """Job params that record which keys their spec reads (specs read
    params with ``get`` only), so :func:`make_job` can refuse the rest."""

    def __init__(self, params: Dict[str, Any]) -> None:
        super().__init__(params)
        self.read: set = set()

    def get(self, key: str, default: Any = None) -> Any:
        self.read.add(key)
        return super().get(key, default)


def _is(value: Any, kind: type) -> bool:
    """``isinstance`` where a bool is not an int (JSON ``true`` is no seed)."""
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def _require(params: Dict[str, Any], key: str, kind: type,
             default: Any = None) -> Any:
    value = params.get(key, default)
    if value is default and default is not None:
        return default
    if not _is(value, kind):
        raise JobParamError(
            f"param {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _positive(key: str, value: Any) -> int:
    """Launch geometry and task counts (a zero-warp launch is no row);
    geometry is also bounded above by :data:`_GEOMETRY_LIMITS`."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise JobParamError(
            f"param {key!r} must be a positive integer, got {value!r}")
    limit = _GEOMETRY_LIMITS.get(key)
    if limit is not None and value > limit:
        raise JobParamError(
            f"param {key!r} must be at most {limit}, got {value}")
    return value


def _kernel_names(params: Dict[str, Any]) -> List[str]:
    from repro.kernels import ALL_BUILDERS
    names = params.get("kernels")
    if names is None:
        raise JobParamError("param 'kernels' (list of names) is required")
    if not isinstance(names, list) or not names or \
            not all(isinstance(n, str) for n in names):
        raise JobParamError("param 'kernels' must be a non-empty name list")
    unknown = [n for n in names if n not in ALL_BUILDERS]
    if unknown:
        raise JobParamError(
            f"unknown kernels {unknown}; known: {sorted(ALL_BUILDERS)}")
    return names


# ---------------------------------------------------------------------------
# worker-side task functions (module-level: they cross the fork boundary)


def _builder(name: str) -> Callable:
    from repro.kernels import ALL_BUILDERS
    return ALL_BUILDERS[name]


def _served_cache(payload: Dict[str, Any]) -> Optional[CompileCache]:
    """A per-task cache over the server's directory in ``payload``, or
    None when it has none."""
    directory = payload["cache_dir"]
    return None if directory is None else CompileCache(disk=directory)


def _compile_fn(payload: Dict[str, Any], ctx) -> Dict[str, Any]:
    from repro.pipeline import compile_arm
    name, level = payload["kernel"], payload["level"]
    case = _builder(name)(block_size=payload["block_size"],
                          grid_dim=payload["grid_dim"])
    # Entries carry the launch machine's program, so a launch that hits
    # one lowers nothing; compile_arm verifies whatever it stores.
    result = compile_arm(case, level, verify=False,
                         cache=_served_cache(payload), machine=DEFAULT_CONFIG)
    function = case.function
    return {
        "kernel": name,
        "level": level,
        "blocks": len(list(function.blocks)),
        "instructions": sum(len(list(b.instructions))
                            for b in function.blocks),
        "melds": result.melds,
    }


def _launch_fn(payload: Dict[str, Any], ctx) -> Dict[str, Any]:
    from repro.evaluation.runner import execute
    from repro.pipeline import compile_arm
    name = payload["kernel"]
    case = _builder(name)(block_size=payload["block_size"],
                          grid_dim=payload["grid_dim"])
    compile_arm(case, "o3", cache=_served_cache(payload),
                machine=DEFAULT_CONFIG)
    run = execute(case, seed=payload["seed"], machine=DEFAULT_CONFIG)
    metrics = run.metrics
    return {
        "kernel": name,
        "block_size": payload["block_size"],
        "cycles": metrics.cycles,
        "branches": metrics.branches,
        "divergent_branches": metrics.divergent_branches,
    }


def _difftest_fn(payload: Dict[str, Any], ctx) -> Dict[str, Any]:
    from repro.difftest import generate_spec, run_oracle
    seed = payload["seed"]
    spec = generate_spec(seed, block_dim=payload["block_dim"],
                         grid_dim=payload["grid_dim"])
    verdict = run_oracle(spec)
    return {
        "seed": seed,
        "ok": verdict.ok,
        "failures": [str(f) for f in verdict.failures],
    }


def _lint_fn(payload: Dict[str, Any], ctx) -> Dict[str, Any]:
    from repro.lint.api import lint_at_level
    name, level = payload["kernel"], payload["level"]
    case = _builder(name)(block_size=payload["block_size"],
                          grid_dim=payload["grid_dim"])
    report = lint_at_level(case, level)
    return {
        "kernel": name,
        "level": level,
        "ok": report.ok,
        "diagnostics": [
            f"{d.severity} {d.rule} {d.location}: {d.message}"
            for d in report.diagnostics],
    }


# ---------------------------------------------------------------------------
# job specs


class JobSpec:
    """One submitted job: validated params → scheduler tasks → rows."""

    kind = "abstract"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        #: the server's compile-cache directory (None: no disk cache)
        self.cache_dir = cache_dir

    def tasks(self) -> List[Task]:
        """Scheduler tasks, in job-position order."""
        raise NotImplementedError

    def row(self, value: Any) -> Dict[str, Any]:
        """A task's return value as a JSON-able row."""
        return value

    def finalize(self, outcomes: Sequence[Any], registry,
                 wall_seconds: float) -> None:
        """Fold the job's telemetry into its registry (default: each
        outcome's metrics delta, in position order)."""
        merge_deltas(registry, outcomes)

    def _check_size(self, count: int) -> None:
        if count > MAX_TASKS_PER_JOB:
            raise JobParamError(
                f"job expands to {count} tasks; cap is {MAX_TASKS_PER_JOB}")
        if count == 0:
            raise JobParamError("job expands to zero tasks")


class SweepJob(JobSpec):
    """Figure-style speedup sweep over (kernel, block size) pairs.

    Params: ``kernels`` (names), ``block_sizes`` (list, or per-kernel
    dict of lists; defaults to the figure-7/8 sweep sizes), ``seed``,
    ``grid_dim``, ``trace`` (capture Chrome-trace events per task).
    """

    kind = "sweep"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(params, cache_dir)
        self.kernels = _kernel_names(params)
        self.seed = _require(params, "seed", int, DEFAULT_SEED)
        self.grid_dim = _positive(
            "grid_dim", params.get("grid_dim", DEFAULT_GRID_DIM))
        self.trace = _require(params, "trace", bool, False)
        sizes = params.get("block_sizes")
        if sizes is None:
            sizes = {name: REAL_BLOCK_SIZES.get(name, SYNTHETIC_BLOCK_SIZES)
                     for name in self.kernels}
        elif isinstance(sizes, list):
            sizes = dict.fromkeys(self.kernels, sizes)
        elif isinstance(sizes, dict):
            missing = [n for n in self.kernels if n not in sizes]
            if missing:
                raise JobParamError(f"block_sizes missing kernels {missing}")
            scalar = [n for n in self.kernels if not _is(sizes[n], list)]
            if scalar:
                raise JobParamError(f"block_sizes of {scalar} must be lists")
        else:
            raise JobParamError("block_sizes must be a list or a dict")
        # Counted from the list lengths, before any pair exists.
        self._check_size(sum(len(sizes[name]) for name in self.kernels))
        self.sweep_tasks = [
            SweepTask(kernel=name, builder=_builder(name),
                      block_size=_positive("block_sizes", size),
                      grid_dim=self.grid_dim, seed=self.seed,
                      trace=self.trace, cache_dir=self.cache_dir)
            for name in self.kernels for size in sizes[name]]

    def tasks(self) -> List[Task]:
        return [Task(run_task, task, metrics=True)
                for task in self.sweep_tasks]

    def row(self, value: TaskResult) -> Dict[str, Any]:
        row = dict(vars(SpeedupRow.from_comparison(value.comparison)))
        del row["comparison"]
        return row

    def trace_events(self, outcomes: Sequence[Any]
                     ) -> List[Dict[str, Any]]:
        """The traced tasks' events, merged the way ``run_sweep``'s
        collector merges them: one set of pids per task."""
        collector = SweepTraceCollector()
        collector.merge_events(self.sweep_tasks, outcomes)
        return collector.events

    def finalize(self, outcomes: Sequence[Any], registry,
                 wall_seconds: float) -> None:
        """Reuse the sweep engine's fold so a served sweep's snapshot is
        family-for-family what :func:`~repro.evaluation.run_sweep` would
        have produced (deterministic metrics bit-identical), less the
        ``repro_sched_*`` families: the server's scheduler is shared, so
        its task counts live in the server's ``metrics`` op only."""
        with use_registry(registry):
            fold_sweep_metrics(outcomes, wall_seconds)


class CompileJob(JobSpec):
    """Compile kernels at one opt level; rows report IR shape + melds.

    Params: ``kernels``, ``level`` (one of
    :data:`repro.pipeline.ARMS`, default ``o3-cfm``), ``block_size``,
    ``grid_dim``.
    """

    kind = "compile"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(params, cache_dir)
        from repro.pipeline import ARMS
        self.kernels = _kernel_names(params)
        self.level = _require(params, "level", str, "o3-cfm")
        if self.level not in ARMS:
            raise JobParamError(
                f"unknown level {self.level!r}; expected one of {ARMS}")
        self.block_size = _positive("block_size", params.get("block_size", 32))
        self.grid_dim = _positive("grid_dim", params.get("grid_dim", 2))
        self._check_size(len(self.kernels))

    def tasks(self) -> List[Task]:
        return [Task(_compile_fn, {
            "kernel": name, "level": self.level,
            "block_size": self.block_size, "grid_dim": self.grid_dim,
            "cache_dir": self.cache_dir,
        }, metrics=True) for name in self.kernels]


class LaunchJob(JobSpec):
    """Compile the ``-O3`` baseline and execute it on the simulator.

    Params: ``kernels``, ``block_size``, ``grid_dim``, ``seed``.
    """

    kind = "launch"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(params, cache_dir)
        self.kernels = _kernel_names(params)
        self.block_size = _positive("block_size", params.get("block_size", 32))
        self.grid_dim = _positive("grid_dim", params.get("grid_dim", 2))
        self.seed = _require(params, "seed", int, 1234)
        self._check_size(len(self.kernels))

    def tasks(self) -> List[Task]:
        return [Task(_launch_fn, {
            "kernel": name, "block_size": self.block_size,
            "grid_dim": self.grid_dim, "seed": self.seed,
            "cache_dir": self.cache_dir,
        }, metrics=True) for name in self.kernels]


class DifftestJob(JobSpec):
    """Differential-oracle campaign: one task per generator seed.

    Params: ``seeds`` (explicit list) or ``count`` + ``start``;
    ``block_dim``, ``grid_dim``.
    """

    kind = "difftest"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(params, cache_dir)
        seeds = params.get("seeds")
        if seeds is not None:
            if not _is(seeds, list) or not all(_is(s, int) for s in seeds):
                raise JobParamError("param 'seeds' must be a list of ints")
            self.seeds = seeds
        else:
            count = _positive("count", params.get("count", 10))
            start = _require(params, "start", int, 0)
            self._check_size(count)  # before the list exists
            self.seeds = list(range(start, start + count))
        self.block_dim = _positive("block_dim", params.get("block_dim", 16))
        self.grid_dim = _positive("grid_dim", params.get("grid_dim", 2))
        self._check_size(len(self.seeds))

    def tasks(self) -> List[Task]:
        return [Task(_difftest_fn, {
            "seed": seed, "block_dim": self.block_dim,
            "grid_dim": self.grid_dim,
        }, metrics=True) for seed in self.seeds]


class LintJob(JobSpec):
    """Compile-then-lint sweep over (kernel, level) pairs.

    Params: ``kernels``, ``levels`` (default every lint level),
    ``block_size``, ``grid_dim``.
    """

    kind = "lint"

    def __init__(self, params: Dict[str, Any],
                 cache_dir: Optional[str] = None) -> None:
        super().__init__(params, cache_dir)
        from repro.lint.api import LINT_LEVELS
        self.kernels = _kernel_names(params)
        levels = params.get("levels", list(LINT_LEVELS))
        if not isinstance(levels, list) or not levels or \
                not all(isinstance(lv, str) for lv in levels):
            raise JobParamError("param 'levels' must be a non-empty list")
        unknown = [lv for lv in levels if lv not in LINT_LEVELS]
        if unknown:
            raise JobParamError(
                f"unknown levels {unknown}; expected from {LINT_LEVELS}")
        self.levels = levels
        self.block_size = _positive("block_size", params.get("block_size", 32))
        self.grid_dim = _positive("grid_dim", params.get("grid_dim", 2))
        self._check_size(len(self.kernels) * len(self.levels))

    def tasks(self) -> List[Task]:
        return [Task(_lint_fn, {
            "kernel": name, "level": level,
            "block_size": self.block_size, "grid_dim": self.grid_dim,
        }, metrics=True) for name in self.kernels for level in self.levels]


JOB_KINDS.update({
    spec.kind: spec
    for spec in (SweepJob, CompileJob, LaunchJob, DifftestJob, LintJob)
})


def make_job(kind: Any, params: Optional[Dict[str, Any]],
             cache_dir: Optional[str] = None) -> JobSpec:
    """Instantiate a registered job spec over the server's ``cache_dir``;
    raises :class:`ProtocolError` with the right wire code for unknown
    kinds / bad params.  A param the spec does not read (a typo, another
    kind's spelling, ``count`` beside ``seeds``) is bad params too."""
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ProtocolError(
            f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}",
            code="unknown-job")
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise JobParamError("job params must be an object")
    read = _ReadParams(params)
    spec = JOB_KINDS[kind](read, cache_dir)
    # After the spec's own checks, so each of their messages stands.
    unread = sorted(set(params) - read.read)
    if unread:
        raise JobParamError(
            f"{kind} job does not read params {unread}; "
            f"it reads {sorted(read.read)}")
    return spec
