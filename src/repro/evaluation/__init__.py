"""Evaluation harness regenerating every table and figure of the paper."""

from .runner import (
    CacheHit,
    Comparison,
    CompileCache,
    CompileResult,
    RunResult,
    cfm_pipeline_id,
    compare,
    compile_baseline,
    compile_cfm,
    execute,
    geomean,
)
from .parallel import (
    ProgressCallback,
    SweepError,
    SweepTask,
    TaskResult,
    fold_sweep_metrics,
    run_task,
)
from .progress import ProgressLine
from .trace import (
    SWEEP_TRACE_SCHEMA,
    SweepTraceCollector,
    TRACE_EVENT_POLICIES,
    load_sweep_trace,
)
from .experiments import (
    CapabilityRow,
    CompileTimeRow,
    CounterRow,
    DEFAULT_GRID_DIM,
    DEFAULT_SEED,
    Figure8Result,
    REAL_BLOCK_SIZES,
    SYNTHETIC_BLOCK_SIZES,
    SpeedupRow,
    best_improvement_rows,
    counters,
    figure7,
    figure8,
    run_sweep,
    table1,
    table2,
)
from .reporting import (
    format_counters,
    format_figure8,
    format_speedups,
    format_table1,
    format_table2,
)

__all__ = [
    "CacheHit", "Comparison", "CompileCache", "CompileResult", "RunResult",
    "cfm_pipeline_id", "compare",
    "compile_baseline", "compile_cfm", "execute", "geomean",
    "ProgressCallback", "ProgressLine",
    "SweepError", "SweepTask", "TaskResult",
    "fold_sweep_metrics", "run_task",
    "SWEEP_TRACE_SCHEMA", "SweepTraceCollector",
    "TRACE_EVENT_POLICIES", "load_sweep_trace",
    "CapabilityRow", "CompileTimeRow", "CounterRow",
    "DEFAULT_GRID_DIM", "DEFAULT_SEED", "Figure8Result",
    "REAL_BLOCK_SIZES", "SYNTHETIC_BLOCK_SIZES", "SpeedupRow",
    "best_improvement_rows", "counters", "figure7", "figure8",
    "run_sweep", "table1", "table2",
    "format_counters", "format_figure8", "format_speedups",
    "format_table1", "format_table2",
]
