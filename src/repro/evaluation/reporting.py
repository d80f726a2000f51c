"""Plain-text formatting of experiment results, mirroring the paper's
tables/figures so `pytest benchmarks/ -s` output can be
compared to the paper side by side."""

from __future__ import annotations

from typing import Dict, List

from .experiments import (
    CapabilityRow,
    CompileTimeRow,
    CounterRow,
    Figure8Result,
    SpeedupRow,
)
from .runner import geomean


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def format_speedups(rows: List[SpeedupRow], title: str) -> str:
    body = [[r.kernel, str(r.block_size), f"{r.speedup:.3f}",
             str(r.baseline_cycles), str(r.cfm_cycles), str(r.melds)]
            for r in rows]
    # geomean() raises on empty input; an empty sweep is rendered
    # explicitly rather than as a misleading GM figure.
    gm = f"{geomean([r.speedup for r in rows]):.3f}" if rows else "n/a"
    return (f"{title}\n"
            + _table(["kernel", "block", "speedup", "base cycles",
                      "cfm cycles", "melds"], body)
            + f"\nGM = {gm}")


def format_figure8(result: Figure8Result, suffix: str = "") -> str:
    body = []
    for r in result.rows:
        mark = "+" if result.best_baseline_block[r.kernel] == r.block_size else " "
        body.append([f"{r.kernel}{mark}", str(r.block_size), f"{r.speedup:.3f}",
                     str(r.baseline_cycles), str(r.cfm_cycles), str(r.melds)])
    return ("Figure 8: real-world benchmark speedups "
            f"('+' = best baseline block size){suffix}\n"
            + _table(["kernel", "block", "speedup", "base cycles",
                      "cfm cycles", "melds"], body)
            + f"\nGM = {result.geomean_all:.3f}   GM-best = {result.geomean_best:.3f}")


def format_policy_comparison(rows_by_policy: Dict[str, List[SpeedupRow]],
                             title: str) -> str:
    """Side-by-side reconvergence-policy table over one sweep's rows.

    Device memory is bit-identical across policies (the difftest
    contract), so the comparison is purely about cycles: per-policy
    baseline cycles with a ratio against the first policy, and
    per-policy CFM speedups.  A ratio of 1.000 means the kernel's
    control flow is structured enough that the policies schedule it
    identically.
    """
    policies = list(rows_by_policy)
    base = policies[0]
    index = {policy: {(r.kernel, r.block_size): r for r in rows}
             for policy, rows in rows_by_policy.items()}
    headers = ["kernel", "block"]
    headers += [f"base cycles ({policy})" for policy in policies]
    headers += [f"ratio {policy}/{base}" for policy in policies[1:]]
    headers += [f"speedup ({policy})" for policy in policies]
    body = []
    for row in rows_by_policy[base]:
        key = (row.kernel, row.block_size)
        others = [index[policy].get(key) for policy in policies[1:]]
        cells = [row.kernel, str(row.block_size)]
        cells.append(str(row.baseline_cycles))
        cells += [str(o.baseline_cycles) if o else "n/a" for o in others]
        cells += [f"{o.baseline_cycles / row.baseline_cycles:.3f}"
                  if o else "n/a" for o in others]
        cells.append(f"{row.speedup:.3f}")
        cells += [f"{o.speedup:.3f}" if o else "n/a" for o in others]
        body.append(cells)
    footer = "   ".join(
        f"GM({policy}) = {geomean([r.speedup for r in rows]):.3f}"
        if rows else f"GM({policy}) = n/a"
        for policy, rows in rows_by_policy.items())
    return f"{title}\n" + _table(headers, body) + "\n" + footer


def format_counters(rows: List[CounterRow]) -> str:
    alu = [[r.kernel, str(r.block_size),
            f"{r.baseline_alu_utilization:.1%}", f"{r.cfm_alu_utilization:.1%}"]
           for r in rows]
    mem = [[r.kernel, str(r.block_size),
            f"{r.normalized_vector_memory:.3f}",
            f"{r.normalized_shared_memory:.3f}",
            f"{r.normalized_flat_memory:.3f}"]
           for r in rows]
    return ("Figure 9: ALU utilization (baseline vs CFM)\n"
            + _table(["kernel", "block", "baseline", "cfm"], alu)
            + "\n\nFigure 10: memory instruction counters (CFM / baseline)\n"
            + _table(["kernel", "block", "vmem", "lds", "flat"], mem))


def format_table1(rows: List[CapabilityRow]) -> str:
    body = [[r.pattern, r.technique,
             "yes" if r.melds else "no",
             f"{r.divergent_branches_before}->{r.divergent_branches_after}",
             "ok" if r.outputs_correct else "WRONG"]
            for r in rows]
    return ("Table I: capability matrix\n"
            + _table(["pattern", "technique", "melds", "divergent brs",
                      "outputs"], body))


def format_table2(rows: List[CompileTimeRow]) -> str:
    body = [[r.kernel, f"{r.o3_seconds:.4f}", f"{r.cfm_seconds:.4f}",
             f"{r.normalized:.4f}"]
            for r in rows]
    return ("Table II: compile time in seconds\n"
            + _table(["kernel", "O3", "CFM", "normalized"], body))
