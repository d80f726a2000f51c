"""Reproduction of DARM/CFM: Control-Flow Melding for SIMT Thread
Divergence Reduction (CGO 2022).

``import repro`` is the public API.  The facade entry points —
:func:`repro.compile`, :func:`repro.launch`, :func:`repro.meld`,
:func:`repro.analyze` (divergence analysis) and the callable
:mod:`repro.lint` package (semantic diagnostics) — cover the whole
compile-analyze-run story, and everything else a client needs
(the kernel DSL, the benchmark builders, the evaluation harness, the
Table-I baselines, pass infrastructure, printer/parser/verifier) is
re-exported here; ``__all__`` below is the supported surface.  Clients
— including this repo's own ``examples/``, ``benchmarks/`` and the
:mod:`repro.difftest` fuzzer — do not import ``repro.ir`` /
``repro.core`` / ``repro.simt`` internals directly.

Internal layout:

* :mod:`repro.ir` — from-scratch SSA IR (the LLVM substitute);
* :mod:`repro.analysis` — dominators, regions, loops, divergence analysis;
* :mod:`repro.transforms` — standard passes (SimplifyCFG, DCE, unrolling);
* :mod:`repro.core` — the paper's contribution: the CFM melding pass;
* :mod:`repro.simt` — warp-level SIMT simulator with two reconvergence
  rules over one path list (IPDOM stack, stack-less min-PC);
* :mod:`repro.baselines` — tail merging and branch fusion comparators;
* :mod:`repro.kernels` — the paper's benchmark kernels in a builder DSL;
* :mod:`repro.evaluation` — harness regenerating every table and figure;
* :mod:`repro.difftest` — differential fuzzing of all of the above;
* :mod:`repro.lint` — divergence-aware static diagnostics (barrier
  divergence, shared-memory races, meld legality) with a CLI;
* :mod:`repro.obs` — span-based tracing (compile passes, melding
  decisions, warp divergence) behind :func:`repro.trace`, plus the
  aggregate-metrics registry (counters/gauges/histograms with
  Prometheus exposition) behind :func:`repro.collect_metrics`;
* :mod:`repro.scheduler` — generic multiprocess task scheduler
  (queueing, retry, timeouts, crash recovery, worker recycling) that
  the sweep engine and the job server share;
* :mod:`repro.serve` — long-running compile-and-simulate job server
  (``python -m repro.serve``) speaking an NDJSON socket protocol.
"""

__version__ = "1.1.0"

from repro.ir import (
    Function,
    Module,
    I1,
    I32,
    ICmpPredicate,
    VerificationError,
    parse_function,
    parse_module,
    print_function,
    print_module,
    verify_function,
)
from repro.ir.dot import function_to_dot, melding_stages_to_dot
from repro.analysis import (
    DivergenceInfo,
    cached_divergence,
    compute_divergence,
    compute_dominator_tree,
    compute_postdominator_tree,
    immediate_postdominator,
)
from repro.transforms import (
    FixpointError,
    Pass,
    PassPipeline,
    PassResult,
    PassTiming,
    eliminate_dead_code,
    late_pipeline,
    o3_pipeline,
    optimize,
    simplify_cfg,
    speculate_hammocks,
)
from repro.core import (
    CFMConfig,
    CFMPass,
    CFMStats,
    find_meldable_region,
    most_profitable_pair,
    path_subgraphs,
    run_cfm,
    simplify_path_subgraphs,
)
from repro.baselines import (
    BranchFusionPass,
    TailMergingPass,
    fuse_branches,
    merge_tails,
)
from repro.kernels import (
    ALL_BUILDERS,
    EXTRA_BUILDERS,
    GLOBAL_I32_PTR,
    REAL_WORLD_BUILDERS,
    SHARED_I32_PTR,
    SYNTHETIC_BUILDERS,
    KernelBuilder,
    KernelCase,
)
from repro.simt import (
    DEFAULT_CONFIG,
    EXECUTORS,
    GPU,
    RECONVERGENCE_POLICIES,
    Buffer,
    MachineConfig,
    Metrics,
    SimulationError,
    run_kernel,
)
from repro.compile_cache import CACHE_ENV_VAR, cfm_pipeline_id
from repro.scheduler import (
    NO_RECYCLE,
    RecyclePolicy,
    Scheduler,
    SchedulerClosed,
    Task,
    TaskOutcome,
)
from repro.serve import (
    JobServer,
    ServeClient,
    ServerConfig,
)
from repro.evaluation import (
    Comparison,
    CompileCache,
    best_improvement_rows,
    compare,
    compile_baseline,
    compile_cfm,
    counters,
    execute,
    figure7,
    figure8,
    format_counters,
    format_figure8,
    format_speedups,
    format_table1,
    format_table2,
    geomean,
    run_sweep,
    table1,
    table2,
)
from repro.facade import (
    COMPILE_LEVELS,
    CompileReport,
    LaunchResult,
    analyze,
    compile,
    launch,
    meld,
)
# ``repro.lint`` is both a subpackage and a callable facade verb: the
# import binds the (callable) module object as the ``lint`` attribute.
from repro import lint
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    collect_metrics,
    current_registry,
    current_tracer,
    divergence_summary,
    trace,
    use_registry,
)

__all__ = [
    # facade verbs
    "compile", "launch", "meld", "analyze", "lint",
    "CompileReport", "LaunchResult", "COMPILE_LEVELS",
    # observability (repro.obs)
    "trace", "Tracer", "NullTracer", "current_tracer", "divergence_summary",
    "MetricsRegistry", "current_registry",
    "use_registry", "collect_metrics",
    # IR essentials
    "Function", "Module", "I1", "I32", "ICmpPredicate",
    "print_function", "print_module", "parse_function", "parse_module",
    "verify_function", "VerificationError",
    "function_to_dot", "melding_stages_to_dot",
    # analyses
    "DivergenceInfo", "compute_divergence", "cached_divergence",
    "compute_dominator_tree", "compute_postdominator_tree",
    "immediate_postdominator",
    # pass infrastructure & standard transforms
    "Pass", "PassResult", "PassPipeline", "PassTiming", "FixpointError",
    "optimize", "o3_pipeline", "late_pipeline",
    "simplify_cfg", "speculate_hammocks", "eliminate_dead_code",
    # CFM
    "CFMConfig", "CFMPass", "CFMStats", "run_cfm",
    "find_meldable_region", "most_profitable_pair",
    "path_subgraphs", "simplify_path_subgraphs",
    # baselines
    "merge_tails", "fuse_branches", "TailMergingPass", "BranchFusionPass",
    # kernels & DSL
    "KernelBuilder", "KernelCase", "GLOBAL_I32_PTR", "SHARED_I32_PTR",
    "ALL_BUILDERS", "SYNTHETIC_BUILDERS", "REAL_WORLD_BUILDERS",
    "EXTRA_BUILDERS",
    # simulator
    "GPU", "Buffer", "run_kernel", "MachineConfig", "Metrics",
    "SimulationError", "DEFAULT_CONFIG", "EXECUTORS",
    "RECONVERGENCE_POLICIES",
    # evaluation harness
    "CACHE_ENV_VAR", "cfm_pipeline_id",
    "compare", "Comparison", "CompileCache", "compile_baseline",
    "compile_cfm", "execute", "geomean", "run_sweep",
    "table1", "table2", "figure7", "figure8",
    "counters", "best_improvement_rows",
    "format_table1", "format_table2", "format_speedups", "format_figure8",
    "format_counters",
    # scheduler & job server
    "Scheduler", "SchedulerClosed", "Task", "TaskOutcome",
    "RecyclePolicy", "NO_RECYCLE",
    "JobServer", "ServerConfig", "ServeClient",
    "__version__",
]
