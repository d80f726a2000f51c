"""Every name a ``repro.*`` package exports is used by the project or is
a deliberate entry point — pinned by walking the source, so a helper
whose last caller goes away shows up here instead of lingering in an
``__all__`` for tests alone.

"Used" means read as a name or an attribute somewhere under ``src/``,
``examples/`` or ``darmbench/`` — the defining module counts, the
``__all__`` string and the re-exporting import do not.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
USERS = (REPO / "src", REPO / "examples", REPO / "darmbench")

#: exported but read nowhere in the project, on purpose
ENTRY_POINTS = {
    # the facade and package metadata users call directly
    "analyze", "__version__", "collect_metrics",
    # IR vocabulary a hand-written kernel or test may need
    "I8", "I16", "I64", "const_int", "is_well_formed",
    # kernel-authoring constants and the extra builders
    "SHARED_I32_PTR", "EXTRA_BUILDERS",
    # closed vocabularies documented with the data they label
    "ACTIONS", "MELDING_ARMS",
    # result readers: corpus replay, sweep-trace loader, lint summary
    "replay", "load_sweep_trace", "worst_severity",
    # the paper's Figures 9 and 10 in one call
    "figures9_and_10",
    # kept only for their tests; next in line for deletion together
    # with them (the dense dataflow engine behind live_variables, and
    # cfg.postorder)
    "live_variables",
}

#: names an earlier spelling of the compile cache, the memo quarantine,
#: the latency key, the reconvergence policies, the pass hooks and
#: timings, the meld records, the dead-code audit, the second
#: per-task sweep record and the optimal subgraph alignment left behind
RETIRED = {
    "DiskCompileCache", "clear_lowering_memo", "invalidate_lowering",
    "latency_token_key", "key_for", "record_cache_lookup",
    "record_cache_eviction", "unroll_partial", "move_before",
    "list_entries", "merge_reports",
    "ReconvergencePolicy", "IPDOMPolicy", "MinPCPolicy", "get_policy",
    "_POLICIES", "_IPDOMScheduler", "_MinPCScheduler",
    "smith_waterman", "enclosing_simple_regions", "split_edge",
    "MeldRecord", "AfterPassHook", "ValidateMeldsHook",
    "cumulative_timings", "want_ir_stats",
    "ParallelRunner", "from_outcome", "from_result",
    "record_task_seconds", "update_cache_hit_ratio",
    "align_subgraphs",
}


def _trees(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _exports():
    """``{name: [module, ...]}`` over every ``__all__`` in ``repro``."""
    exports = {}
    for path, tree in _trees(SRC):
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                module = ".".join(path.relative_to(SRC.parent)
                                  .with_suffix("").parts)
                for name in ast.literal_eval(node.value):
                    exports.setdefault(name, []).append(
                        module.removesuffix(".__init__"))
    return exports


def _read_names():
    names = set()
    for _, tree in _trees(*USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_or_an_entry_point():
    exports = _exports()
    unused = set(exports) - _read_names()
    assert unused == ENTRY_POINTS, {
        "newly unused (delete, or allow-list with a reason)":
            {name: exports[name] for name in unused - ENTRY_POINTS},
        "used again (drop from ENTRY_POINTS)": ENTRY_POINTS - unused,
    }


def test_retired_names_stay_gone():
    defined = set()
    for _, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.alias):
                defined.add(node.asname or node.name)
            elif isinstance(node, ast.Name):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute):
                defined.add(node.attr)
    assert not RETIRED & (defined | set(_exports()))
