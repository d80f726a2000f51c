"""The compile driver (``repro.pipeline``): one pipeline, one cache
protocol, and every public compile entry point a thin caller of it.

Four contracts:

* every entry point produces byte-identical IR to ``compile_arm`` for
  every benchmark kernel and arm, cold or replayed from a cache;
* cache entries are interchangeable between entry points (the facade
  and the evaluation runner used to write incompatible payloads);
* every entry point is observable the same way: one ``compile:<kernel>``
  span, and the hosted reducer's ``pass:cfm`` span and histogram sample;
* *replaced, not forked*: an AST walk over ``src/repro`` pins that the
  retired spellings stay retired.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.compile_cache import cfm_stats_from_data, cfm_stats_to_data
from repro.difftest.generator import build_kernel, generate_spec
from repro.difftest.oracle import ALL_ARMS, _compile_arm
from repro.evaluation import runner
from repro.lint import LINT_LEVELS, compile_at_level
from repro.pipeline import ARM_STAGES, ARMS, CompileResult, compile_arm

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def printed(kernel) -> str:
    return repro.print_module(kernel.module)


def shape(text: str) -> str:
    """Printed IR with value and block names erased."""
    return re.sub(r"%[\w.]+", "%_", text)


def build(name):
    return repro.ALL_BUILDERS[name]()


def via_lint(level):
    def entry(case, **kwargs):
        compile_at_level(case.function, level)
    return entry


#: arm -> the public entry points that spell it (all compile in place)
ENTRIES = {
    "noopt": [via_lint("noopt"),
              lambda case, **kw: repro.compile(case, level="none", **kw)],
    "o3": [via_lint("o3"), runner.compile_baseline,
           lambda case, **kw: repro.compile(case, **kw)],
    "o3-cfm": [via_lint("o3-cfm"), runner.compile_cfm,
               lambda case, **kw: repro.compile(case, cfm=True, **kw)],
    "o3-tail": [via_lint("o3-tail")],
    "o3-bf": [via_lint("o3-bf")],
}


class TestOneArmMatrix:
    def test_arm_tuple_has_one_home(self):
        assert LINT_LEVELS is ALL_ARMS is ARMS == tuple(ARM_STAGES)

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm"):
            compile_arm(build("SB1"), "o4")

    def test_one_result_type(self):
        assert repro.CompileReport is runner.CompileResult is CompileResult

    def test_result_speaks_both_dialects(self):
        result = repro.compile(build("SB1"), cfm=True)
        assert result.level == "O3" and result.arm == (True, "cfm")
        assert result.melds == len(result.cfm_stats.melds) > 0
        assert result.seconds == result.total_seconds \
            == result.o3_seconds + result.cfm_seconds
        assert not result.cached


@pytest.mark.parametrize("name", sorted(repro.ALL_BUILDERS))
@pytest.mark.parametrize("arm", ARMS)
def test_every_entry_point_compiles_identical_ir(name, arm):
    reference = build(name)
    compile_arm(reference, arm)
    expected = printed(reference)
    for entry in ENTRIES[arm]:
        case = build(name)
        entry(case)
        assert printed(case) == expected, entry
    if arm not in ("o3", "o3-cfm"):
        return
    # The cacheable arms: a cold compile through a cache and its warm
    # replay through every entry point that takes one agree too.  (The
    # cache prints the IR it keys and stores, which numbers unnamed
    # values — the cold compile matches the uncached one up to names.)
    cache = repro.CompileCache()
    cold = build(name)
    assert not compile_arm(cold, arm, cache=cache).cached
    assert shape(printed(cold)) == shape(expected)
    for entry in ENTRIES[arm][1:]:
        warm = build(name)
        result = entry(warm, cache=cache)
        assert result.cached and printed(warm) == printed(cold), entry
        assert all(t.cached for t in result.pass_timings)


@pytest.mark.parametrize("seed", [3, 130])
@pytest.mark.parametrize("arm", ARMS)
def test_oracle_arm_is_the_driver_arm(seed, arm):
    spec = generate_spec(seed)
    report = _compile_arm(arm, spec, None)
    assert report.failure is None
    builder = build_kernel(spec)
    result = compile_arm(builder, arm)
    assert printed(report.builder) == printed(builder)
    assert report.melds == result.melds


class TestCacheProtocol:
    def test_facade_entry_replays_in_the_runner(self):
        # Drift (a): the facade used to store unsplit seconds, no "o3"
        # entry, and timings without IR sizes under the key compile_cfm
        # reads (every entry carries the sizes now).
        cache = repro.CompileCache()
        first = repro.compile(build("BIT"), cfm=True, cache=cache)
        assert len(cache) == 2  # the shared "o3" entry and the full one
        replay = runner.compile_cfm(build("BIT"), cache=cache)
        assert replay.cfm_cached and replay.o3_cached
        assert replay.o3_seconds == first.o3_seconds > 0
        assert replay.cfm_seconds == first.cfm_seconds > 0
        assert replay.melds == first.melds
        # ... and its "o3" entry serves the CFM arm of a new config
        tuned = runner.compile_cfm(
            build("BIT"), repro.CFMConfig(profitability_threshold=0.3),
            cache=cache)
        assert tuned.o3_cached and not tuned.cfm_cached

    def test_runner_entry_replays_in_the_facade(self):
        cache = repro.CompileCache()
        first = runner.compile_cfm(build("BIT"), cache=cache)
        replay = repro.compile(build("BIT"), cfm=True, cache=cache)
        assert replay.cached
        assert replay.seconds == first.o3_seconds + first.cfm_seconds
        assert [t.name for t in replay.pass_timings] \
            == [t.name for t in first.pass_timings]

    def test_cold_figure8_case_is_miss_miss_hit(self, tmp_path):
        cache = repro.CompileCache(disk=tmp_path)
        lookups = []
        lookup = cache.lookup

        def recording_lookup(key, **kwargs):
            hit = lookup(key, **kwargs)
            lookups.append((key[0].split(":")[0], hit is not None,
                            kwargs.get("machine") is not None))
            return hit

        cache.lookup = recording_lookup
        machine = repro.DEFAULT_CONFIG
        base = runner.compile_baseline(build("BIT"), cache=cache,
                                       machine=machine)
        cfm = runner.compile_cfm(build("BIT"), cache=cache, machine=machine)
        # (pipeline, hit, probed with the machine): the o3 arm misses,
        # the CFM arm misses its full key and replays the shared -O3
        # entry, which it probes without a machine
        assert lookups == [("o3", False, True), ("cfm", False, True),
                           ("o3", True, False)]
        assert not base.o3_cached and cfm.o3_cached and not cfm.cfm_cached
        assert cache.counters()["hits"] == 1
        assert cache.counters()["misses"] == 2
        assert len(list(tmp_path.iterdir())) == 2

    def test_raw_function_is_never_cached(self):
        cache = repro.CompileCache()
        result = compile_arm(build("SB1").function, "o3-cfm", cache=cache)
        assert not result.cached and len(cache) == 0
        assert cache.counters()["misses"] == 0

    def test_uncached_arms_leave_the_cache_alone(self):
        cache = repro.CompileCache()
        for arm in ("noopt", "o3-tail", "o3-bf", (False, "cfm")):
            compile_arm(build("SB1"), arm, cache=cache)
        assert len(cache) == 0 and cache.counters()["misses"] == 0


class TestValidateIsPartOfTheKey:
    def test_every_config_field_changes_the_pipeline_id(self):
        default = repro.CFMConfig()
        changed = {"profitability_threshold": 0.7, "max_iterations": 3}
        ids = {repro.cfm_pipeline_id(default)}
        for f in dataclasses.fields(repro.CFMConfig):
            value = changed.get(f.name, None)
            if value is None:
                assert isinstance(getattr(default, f.name), bool), f.name
                value = not getattr(default, f.name)
            ids.add(repro.cfm_pipeline_id(
                dataclasses.replace(default, **{f.name: value})))
        assert len(ids) == 1 + len(dataclasses.fields(repro.CFMConfig))

    def test_validated_compile_does_not_replay_an_unvalidated_one(self):
        cache = repro.CompileCache()
        runner.compile_cfm(build("BIT"), cache=cache)
        validated = runner.compile_cfm(
            build("BIT"), repro.CFMConfig(validate=True), cache=cache)
        assert not validated.cfm_cached and validated.o3_cached
        verdicts = [v.verdict for v in validated.cfm_stats.validations]
        assert verdicts and set(verdicts) == {"EQUIVALENT"}

    def test_validations_survive_a_replay(self):
        cache = repro.CompileCache()
        config = repro.CFMConfig(validate=True)
        first = runner.compile_cfm(build("BIT"), config, cache=cache)
        replay = runner.compile_cfm(build("BIT"), config, cache=cache)
        assert replay.cfm_cached
        assert replay.cfm_stats.validations == first.cfm_stats.validations
        assert all(d.validation == "EQUIVALENT"
                   for d in replay.cfm_stats.decisions
                   if d.action == "melded")

    def test_entries_without_validations_still_load(self):
        data = cfm_stats_to_data(repro.CFMStats())
        del data["validations"]
        assert cfm_stats_from_data(data).validations == []


def _oracle_cfm(case):
    report = _compile_arm("o3-cfm", generate_spec(130), None)
    assert report.failure is None


@pytest.mark.parametrize("entry", [
    lambda case: compile_arm(case, "o3-cfm"),
    lambda case: repro.compile(case, cfm=True),
    lambda case: repro.compile(case, level="none", cfm=True),
    runner.compile_cfm,
    via_lint("o3-cfm"),
    _oracle_cfm,
], ids=["driver", "facade", "facade-noopt", "runner", "lint", "oracle"])
def test_every_entry_point_is_observable_the_same_way(entry):
    # Drift (b): only compile_cfm recorded the reducer's span and
    # histogram sample (by hand); the facade and the lint levels did not.
    case = build("SB1")
    with repro.collect_metrics() as registry, repro.trace() as tracer:
        entry(case)
    names = [event["name"] for event in tracer.events]
    assert names.count("pass:cfm") == 1
    assert sum(name.startswith("compile:") for name in names) == 1
    samples = registry.snapshot()["histograms"][
        "repro_compile_pass_seconds"]["samples"]
    assert samples["pass=cfm"]["count"] == 1
    assert samples["pass=late-dce"]["count"] == 1


# ---- replaced, not forked ---------------------------------------------------


def _uses(path):
    """``(name, enclosing function)`` of every name a file loads and of
    every method it calls (named by the attribute; ``node`` rides along)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, scope, node))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            found.append((node.func.attr, scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def _sites(names):
    """``{relative path: {enclosing functions}}`` using any of ``names``."""
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        scopes = {scope for name, scope, _ in _uses(path) if name in names}
        if scopes:
            sites[str(path.relative_to(SRC))] = scopes
    return sites


class TestReplacedNotForked:
    def test_pipelines_are_built_only_by_the_driver(self):
        assert _sites({"late_pipeline", "o3_pipeline", "optimize"}) == {
            "pipeline.py": {"stages"},
            "transforms/__init__.py": {"optimize"}}
        assert _sites({"TailMergingPass", "BranchFusionPass"}) == {
            "pipeline.py": {"<module>"}}
        assert _sites({"CFMPass", "run_cfm"}) == {
            "pipeline.py": {"<module>", "stages"}, "facade.py": {"meld"},
            "core/pass_.py": {"run_cfm"}}

    def test_cache_protocol_has_one_caller(self):
        assert _sites({"lookup"}) == {"pipeline.py": {"compile_arm"}}
        cache_calls = {
            (str(path.relative_to(SRC)), scope)
            for path in SRC.rglob("*.py")
            for name, scope, node in _uses(path)
            if name in ("lookup", "store") and isinstance(node, ast.Call)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cache"}
        assert cache_calls == {("pipeline.py", "compile_arm")}
        # The oracle lowers each compiled arm once, for its launch key,
        # and seeds the program it launches (no cache involved).
        assert _sites({"lower_symbolic"}) == {
            "pipeline.py": {"compile_arm"},
            "difftest/oracle.py": {"_run_arm"},
            "simt/lowering.py": {"lower_function"}}

    def test_pass_bookkeeping_lives_in_the_pass_manager(self):
        sites = _sites({"emit_pass_timing", "record_pass_seconds"})
        assert set(sites) == {"transforms/pass_manager.py",
                              "compile_cache.py"}
        for path in SRC.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and node.args and \
                        getattr(node.func, "id", None) == "PassTiming":
                    assert getattr(node.args[0], "value", None) != "cfm", \
                        path

    def test_the_arm_matrix_is_declared_once(self):
        declared = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                items = (node.keys if isinstance(node, ast.Dict)
                         else node.elts if isinstance(
                             node, (ast.Tuple, ast.List, ast.Set))
                         else [])
                strings = {item.value for item in items
                           if isinstance(item, ast.Constant)}
                if set(ARMS) <= strings:
                    declared.append(str(path.relative_to(SRC)))
        assert declared == ["pipeline.py"]

    def test_the_legacy_machine_spellings_are_gone(self):
        assert not (SRC / "_deprecation.py").exists()
        assert not hasattr(repro.simt, "resolve_machine")
