"""Every definition in ``repro`` is used by the project or is a
deliberate entry point — pinned by walking the source, so a helper whose
last caller goes away shows up here instead of lingering for its own
unit test alone.

"Used" means read as a name or an attribute somewhere under ``src/``,
``examples/`` or ``darmbench/`` — the defining module counts, the
``__all__`` string, the re-exporting import and the definition itself
do not.  Two gates apply it: one to every name an ``__all__`` exports,
one to every module-level and class-level function, class and method.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
REPO = SRC.parent.parent
USERS = (REPO / "src", REPO / "examples", REPO / "darmbench")

#: exported but read nowhere in the project, on purpose
ENTRY_POINTS = {
    "analyze": "facade divergence query (README, docs/analysis.md)",
    "__version__": "package metadata",
    "collect_metrics": "metrics context manager (docs/observability.md)",
    "I8": "IR type for hand-written kernels (docs/ir.md, Types)",
    "I64": "IR type for hand-written kernels (docs/ir.md, Types)",
    "const_int": "IR constant for hand-written kernels (docs/ir.md, Types)",
    "SHARED_I32_PTR": "kernel parameter type (docs/dsl.md)",
    "EXTRA_BUILDERS": "kernels beyond the paper's set (README)",
    "ACTIONS": "the decision log's vocabulary (docs/observability.md)",
    "MELDING_ARMS": "the oracle's reducer arms (docs/difftest.md)",
    "replay": "corpus replay (docs/difftest.md)",
    "load_sweep_trace": "sweep-trace loader (docs/evaluation.md)",
}

#: defined but read nowhere in the project, on purpose (module-level
#: definitions named in ENTRY_POINTS need no second entry)
UNREAD_DEFINITIONS = {
    "analysis.divergence._join_blocks":
        "reference join sets that tests/analysis/reference_divergence.py "
        "and tests/core/test_maintained_facts.py compare against",
    "ir.builder.IRBuilder.sext": "cast for hand-written kernels (docs/ir.md)",
    "ir.builder.IRBuilder.zext": "cast for hand-written kernels (docs/ir.md)",
    "ir.builder.IRBuilder.trunc":
        "cast for hand-written kernels (docs/ir.md)",
    "ir.builder.IRBuilder.undef":
        "undef operand for hand-written kernels (docs/ir.md)",
    "ir.values.Value.num_uses": "use-list query named in docs/ir.md",
    "ir.instructions.Instruction.may_write_memory":
        "classification property named in docs/ir.md",
    "lint.diagnostics.LintReport.by_rule":
        "the lint tests read their findings through it (18 sites)",
    "lint.diagnostics.Diagnostic.is_error":
        "the lint rule tests check severities through it (5 sites)",
    "core.alignment.AlignmentResult.matches":
        "the alignment tests read the aligned pairs through it (3 tests)",
}

#: names an earlier spelling of the compile cache, the memo quarantine,
#: the latency key, the reconvergence policies, the pass hooks and
#: timings, the meld records, the dead-code audit, the second
#: per-task sweep record, the optimal subgraph alignment, the dense
#: dataflow engine, the opt-in branch profile, the no-op metrics
#: registry, lint severity overrides and the corpus /1 reader left behind
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
    "align_subgraphs", "postorder", "live_variables",
    "run_dataflow", "DataflowAnalysis", "DataflowResult", "FORWARD",
    "BACKWARD", "preorder", "first_non_phi", "top_level",
    "innermost_loops", "traced_pid_count", "chrome_events",
    "resolve_space", "unsigned_max", "is_float", "block_latency",
    "num_matches", "num_gaps", "is_gap", "error_fingerprints",
    "is_simple", "assert_no_undef", "figures9_and_10", "I16",
    "is_well_formed", "worst_severity", "_as_function",
    "UnrollLimits", "DEFAULT_LIMITS",
    "profile_branches", "branch_profile", "NullRegistry", "NULL_REGISTRY",
    "severity_overrides", "severity_for", "ENTRY_SCHEMA_V1",
    "verify_preds_consistent", "invalidate_divergence", "function_fingerprint",
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


def _definitions():
    """``{"module.Qual.name": (name, is_module_level)}`` for every
    module-level and class-level function and class in ``repro``, minus
    the three structural exemptions: dunders, lint rules ``@register``
    adds to the registry, and the generator statements ``_emit_body``
    dispatches by name."""
    found = {}

    def walk(body, prefix, module_level, generator):
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if isinstance(node, ast.ClassDef):
                walk(node.body, f"{prefix}.{name}", False, generator)
                if any(isinstance(d, ast.Name) and d.id == "register"
                       for d in node.decorator_list):
                    continue
            if ((name.startswith("__") and name.endswith("__"))
                    or (generator and name.startswith("_emit_"))):
                continue
            found[f"{prefix}.{name}"] = (name, module_level)

    for path, tree in _trees(SRC):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        walk(tree.body, module, True, module == "difftest.generator")
    return found


def test_every_export_is_used_or_an_entry_point():
    exports = _exports()
    unused = set(exports) - _read_names()
    assert unused == set(ENTRY_POINTS), {
        "newly unused (delete, or allow-list with a reason)":
            {name: exports[name] for name in unused - set(ENTRY_POINTS)},
        "used again (drop from ENTRY_POINTS)": set(ENTRY_POINTS) - unused,
    }


def test_every_definition_is_read_or_allow_listed():
    read = _read_names()
    unread = {qualname
              for qualname, (name, module_level) in _definitions().items()
              if name not in read
              and not (module_level and name in ENTRY_POINTS)}
    assert unread == set(UNREAD_DEFINITIONS), {
        "newly unread (delete with its self-test, or allow-list with a "
        "reason)": sorted(unread - set(UNREAD_DEFINITIONS)),
        "read again (drop from UNREAD_DEFINITIONS)":
            sorted(set(UNREAD_DEFINITIONS) - unread),
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
