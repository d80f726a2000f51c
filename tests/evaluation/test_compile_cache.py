"""The persistent compile cache: poisoned entries, digest keys, the
disk tier's failure matrix, unusable directories, counter agreement,
and cross-"process" warm replays.

``tests/evaluation/test_parallel.py`` covers the in-process hit/miss
contract of one comparison; this file covers everything the persistence
layer adds — and the regression the tentpole fixed: a cache entry whose
stored IR no longer parses used to fail every lookup forever, instead of
being evicted and recompiled.
"""

import dataclasses
import gc
import json
import multiprocessing
import os
import re
import time
import weakref
from pathlib import Path

import pytest

from repro import compile_cache
from repro.compile_cache import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA,
    COUNTERS,
    CompileCache,
    cache_dir_setting,
    cfm_pipeline_id,
    digest_text,
)
from repro.analysis.latency import DEFAULT_LATENCY_MODEL
from repro.core import CFMConfig
from repro.difftest.generator import build_kernel, generate_spec
from repro.evaluation import (
    SweepTask,
    SweepTraceCollector,
    compare,
    compile_baseline,
    compile_cfm,
    run_task,
)
from repro.ir import print_module
from repro.kernels import build_sb1
from repro.obs import MetricsRegistry, pass_timing_events, trace, use_registry
from repro.pipeline import compile_arm
from repro.simt import DEFAULT_CONFIG
from tests.support import run_sweep_tasks

SEED = 99


def _case():
    return build_sb1(block_size=16, grid_dim=1)


def _cold(cache):
    return compare(build_sb1, block_size=16, grid_dim=1, seed=SEED,
                   cache=cache)


def _o3_key(case):
    return CompileCache.key("o3", print_module(case.module))


NO_TRAFFIC = dict.fromkeys(COUNTERS, 0)


# ---------------------------------------------------------------------------
# keys


class TestKeys:
    def test_keys_are_digests_not_ir_text(self):
        key = _o3_key(_case())
        assert key[0] == "o3"
        assert len(key[1]) == 64
        assert set(key[1]) <= set("0123456789abcdef")

    def test_same_source_same_key(self):
        assert _o3_key(_case()) == _o3_key(_case())

    def test_digest_boundaries_count(self):
        assert digest_text("ab", "c") != digest_text("a", "bc")

    def test_cfm_pipeline_id_covers_config_knobs(self):
        default = cfm_pipeline_id()
        assert default == cfm_pipeline_id(CFMConfig())
        assert default.startswith("cfm:")
        tuned = cfm_pipeline_id(CFMConfig(profitability_threshold=0.9))
        assert tuned != default

    def test_cfm_pipeline_ids_are_pinned(self):
        # Stored entries are addressed by these ids: a change that moves
        # them strands every disk cache.
        assert cfm_pipeline_id() == "cfm:24b05d4c794066e2"
        assert cfm_pipeline_id(CFMConfig(validate=True)) \
            == "cfm:222758b6e16b6e84"

    def test_cfm_pipeline_id_covers_the_latency_table(self, monkeypatch):
        # CFM scores with the one latency table, so an edit of the table
        # must miss every stored entry.
        default = cfm_pipeline_id()
        monkeypatch.setattr(
            compile_cache, "DEFAULT_LATENCY_MODEL",
            dataclasses.replace(DEFAULT_LATENCY_MODEL, barrier_latency=99))
        assert cfm_pipeline_id() != default


# ---------------------------------------------------------------------------
# poisoned entries (the regression this PR's tentpole fixed)


class TestPoisonedEntries:
    def test_unparseable_entry_is_evicted_and_recompiled(self):
        cache = CompileCache()
        case = _case()
        compile_baseline(case, cache=cache)
        (key,) = cache._entries
        cache._entries[key]["optimized_ir"] = "garbage("

        # The poisoned entry is a miss, evicted, and the recompile
        # repopulates it — the third compile hits cleanly again.
        second = compile_baseline(_case(), cache=cache)
        assert not second.o3_cached
        assert cache.counters() == {**NO_TRAFFIC, "misses": 2,  # cold +
                                    "evictions": 1}            # poisoned
        third = compile_baseline(_case(), cache=cache)
        assert third.o3_cached

    def test_poisoned_disk_entry_evicts_file(self, tmp_path):
        cache = CompileCache(disk=tmp_path)
        compile_baseline(_case(), cache=cache)
        (key,) = cache._entries
        file = cache._file(key)
        payload = json.loads(file.read_text())
        payload["optimized_ir"] = "garbage("
        file.write_text(json.dumps(payload))

        fresh = CompileCache(disk=tmp_path)  # cold process, warm disk
        assert fresh.lookup(key) is None
        assert not file.exists()
        assert fresh.counters() == {**NO_TRAFFIC, "misses": 1,
                                    "evictions": 1}


# ---------------------------------------------------------------------------
# disk tier failure matrix


def _store_one(tmp_path):
    """Populate a disk cache with one real o3 entry; return its key."""
    cache = CompileCache(disk=tmp_path)
    compile_baseline(_case(), cache=cache)
    (key,) = cache._entries
    return key, cache._file(key)


def _variants(count):
    """One real o3 entry's key and ``count`` valid payloads for it, told
    apart by ``seconds`` and padded so a write takes a while."""
    cache = CompileCache()
    compile_baseline(_case(), cache=cache)
    ((key, payload),) = cache._entries.items()
    return key, [dict(payload, seconds=float(i), filler="x" * 65536)
                 for i in range(count)]


def _miss_and_evict(tmp_path, key, file):
    """A cold cache over ``tmp_path`` misses ``key`` and evicts its file."""
    cache = CompileCache(disk=tmp_path)
    assert cache.lookup(key) is None
    assert not file.exists()
    return cache.counters()


class TestDiskCache:
    """Every unreadable file is a counted eviction and a miss.  A file
    opens with the SHA-256 of the rest of it, so the checks behind the
    digest (schema, key, fields) are reached only by files the cache
    itself sealed — which is how the tests below make them."""

    def test_version_mismatch_is_miss_and_evicts(self, tmp_path):
        """A file as the ``/1`` schema wrote it: no digest."""
        key, file = _store_one(tmp_path)
        payload = json.loads(file.read_text())
        del payload["sha256"], payload["ir_sha256"]
        payload["schema"] = "repro.compile-cache/1"
        file.write_text(json.dumps(payload))

        assert _miss_and_evict(tmp_path, key, file) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_sealed_foreign_schema_is_miss_and_evicts(self, tmp_path,
                                                      monkeypatch):
        assert CACHE_SCHEMA == "repro.compile-cache/3"
        with monkeypatch.context() as patch:
            patch.setattr(compile_cache, "CACHE_SCHEMA",
                          "repro.compile-cache/4")
            key, file = _store_one(tmp_path)
        assert json.loads(file.read_text())["schema"].endswith("/4")

        assert _miss_and_evict(tmp_path, key, file) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_truncated_file_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        text = file.read_text()
        file.write_text(text[: len(text) // 2])

        assert _miss_and_evict(tmp_path, key, file) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_key_mismatch_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        other = ("o3", "0" * 64)  # file renamed / content swapped
        moved = CompileCache(disk=tmp_path)._file(other)
        file.rename(moved)

        assert _miss_and_evict(tmp_path, other, moved) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_missing_required_field_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        payload = json.loads(file.read_text())
        del payload["sha256"], payload["timings"]
        CompileCache(disk=tmp_path)._write(key, payload)

        assert _miss_and_evict(tmp_path, key, file) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_non_utf8_byte_is_miss_not_a_stack_trace(self, tmp_path):
        key, file = _store_one(tmp_path)
        raw = bytearray(file.read_bytes())
        raw[len(raw) // 2] = 0xFF
        file.write_bytes(bytes(raw))

        cache = CompileCache(disk=tmp_path)
        assert not compile_baseline(_case(), cache=cache).o3_cached
        assert cache.counters() == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1, "writes": 1}
        assert compile_baseline(_case(), cache=CompileCache(disk=tmp_path)
                                ).o3_cached

    @pytest.mark.parametrize("pattern", [
        r'"program": \{.*?"const_slots": \[\[(\d)',  # a slot number
        r'"stats": \{.*?"iterations": (\d)',
        r'"optimized_ir": ".*?ashr i32 %\w+, (\d)',
    ], ids=["program", "cfm-stats", "ir"])
    def test_flipped_digit_is_miss_and_recompiles_the_same_row(
            self, tmp_path, pattern):
        """Well-formed JSON, a valid descriptor, a parseable module:
        only the digest over the whole file can tell."""
        cold = _cold(CompileCache(disk=tmp_path))
        (file,) = [f for f in tmp_path.iterdir() if '"cfm": {' in f.read_text()]
        text = file.read_text()
        at = re.search(pattern, text).start(1)
        flipped = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
        json.loads(flipped)
        file.write_text(flipped)

        cache = CompileCache(disk=tmp_path)
        warm = _cold(cache)
        assert cache.counters() == {**NO_TRAFFIC, "hits": 2, "disk_hits": 1,
                                    "misses": 1, "evictions": 1,
                                    "writes": 1}
        assert warm.baseline_compile.o3_cached
        assert not warm.cfm_compile.cfm_cached
        assert warm.melded.as_dict() == cold.melded.as_dict()
        assert warm.melds == cold.melds

    @pytest.mark.parametrize("target, name", [(os, "replace"),
                                              (Path, "write_text")])
    def test_failed_write_keeps_the_result(self, tmp_path, monkeypatch,
                                           target, name):
        real = getattr(target, name)

        def full_disk(*args, **kwargs):
            if name == "write_text":  # leave a torn temp file behind
                real(args[0], args[1][:100], **kwargs)
            raise OSError(28, "No space left on device")

        cache = CompileCache(disk=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(target, name, full_disk)
            result = compile_cfm(_case(), cache=cache, machine=DEFAULT_CONFIG)
        assert result.melds and not result.cached
        assert cache.counters() == {**NO_TRAFFIC, "misses": 2,
                                    "write_errors": 2}
        assert list(tmp_path.iterdir()) == []
        # the memory tier kept both entries
        assert compile_cfm(_case(), cache=cache, machine=DEFAULT_CONFIG).cached

    def test_absent_file_is_plain_miss(self, tmp_path):
        cache = CompileCache(disk=tmp_path)
        assert cache.lookup(("o3", "0" * 64)) is None
        assert cache.counters() == {**NO_TRAFFIC, "misses": 1}

    def test_concurrent_writers_leave_one_complete_winner(self, tmp_path):
        key, payloads = _variants(8)

        def writer(i):
            CompileCache(disk=tmp_path)._write(key, payloads[i])

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=writer, args=(i,)) for i in range(8)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)

        cache = CompileCache(disk=tmp_path)
        hit = cache.lookup(key)
        assert hit is not None  # never torn: some writer won outright
        assert cache.counters() == {**NO_TRAFFIC, "hits": 1, "disk_hits": 1}
        stored = dict(payloads[int(hit.seconds)], schema=CACHE_SCHEMA,
                      pipeline_id=key[0], digest=key[1])
        loaded = json.loads(cache._file(key).read_text())
        del loaded["sha256"]
        assert loaded == stored
        # No temp droppings left behind.
        assert [f.name for f in tmp_path.iterdir()] == [cache._file(key).name]

    def test_reader_racing_renames_sees_whole_entries(self, tmp_path):
        """A reader looping ``lookup`` while writers keep ``os.replace``-ing
        the same key: every lookup is a full hit or a counted plain miss
        (before the first write lands) — never an exception, and never
        an eviction, because no reader can open a torn file."""
        key, payloads = _variants(3)

        def writer(i):
            cache = CompileCache(disk=tmp_path)
            for _ in range(30):
                cache._write(key, payloads[i])
            assert cache.counters()["writes"] == 30

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=writer, args=(i,)) for i in range(3)]
        for p in procs:
            p.start()
        seen = []
        deadline = time.monotonic() + 60
        while (any(p.is_alive() for p in procs) or not seen) \
                and time.monotonic() < deadline:
            cache = CompileCache(disk=tmp_path)  # no memory tier to hide in
            hit = cache.lookup(key)
            if hit is None:
                assert cache.counters() == {**NO_TRAFFIC, "misses": 1}
            else:
                assert cache.counters() == {**NO_TRAFFIC, "hits": 1,
                                            "disk_hits": 1}
                seen.append(hit.seconds)
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        assert seen and set(seen) <= {0.0, 1.0, 2.0}


# ---------------------------------------------------------------------------
# one entry shape: every entry carries IR sizes, so any caller replays it


class TestOneEntryShape:
    def test_sweep_task_replays_what_the_facade_and_runner_stored(
            self, tmp_path):
        # A sweep task used to demand entries "with IR sizes" and missed
        # on every entry repro.compile or compile_baseline had stored.
        import repro
        cache = CompileCache(disk=tmp_path)
        repro.compile(build_sb1(block_size=32), cfm=True, cache=cache)
        compile_baseline(build_sb1(block_size=32), cache=cache,
                         machine=DEFAULT_CONFIG)
        result = run_task(SweepTask(kernel="SB1", builder=build_sb1,
                                    block_size=32, cache_dir=str(tmp_path)))
        assert result.compile_cache["misses"] == 0
        comparison = result.comparison
        assert comparison.cfm_compile.cfm_cached
        for arm in (comparison.baseline_compile, comparison.cfm_compile):
            events = pass_timing_events(arm.pass_timings)
            assert events and all("blocks_before" in e for e in events)

    def test_a_sealed_schema_2_file_is_one_eviction_and_one_miss(
            self, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(compile_cache, "CACHE_SCHEMA",
                          "repro.compile-cache/2")
            key, file = _store_one(tmp_path)
        assert _miss_and_evict(tmp_path, key, file) == {
            **NO_TRAFFIC, "misses": 1, "evictions": 1}


# ---------------------------------------------------------------------------
# cross-process warm replay (two CompileCache instances = two processes)


class TestWarmReplay:
    def test_fresh_process_replays_from_disk(self, tmp_path):
        cold = _cold(CompileCache(disk=tmp_path))

        warm_cache = CompileCache(disk=tmp_path)
        warm = _cold(warm_cache)
        # Both arms replay from disk: no in-process misses at all.
        assert warm_cache.counters() == {**NO_TRAFFIC, "hits": 2,
                                         "disk_hits": 2}
        assert warm.baseline_compile.o3_cached
        assert warm.cfm_compile.cfm_cached
        assert warm.baseline.cycles == cold.baseline.cycles
        assert warm.melded.cycles == cold.melded.cycles
        assert warm.melds == cold.melds
        assert all(t.cached for t in warm.cfm_compile.pass_timings)

    def test_disk_replay_is_observably_identical(self, tmp_path):
        plain = compare(build_sb1, block_size=16, grid_dim=1, seed=SEED)
        _cold(CompileCache(disk=tmp_path))
        warm = _cold(CompileCache(disk=tmp_path))
        assert warm.baseline.cycles == plain.baseline.cycles
        assert warm.melded.cycles == plain.melded.cycles
        assert warm.melds == plain.melds
        assert warm.baseline.as_dict() == plain.baseline.as_dict()
        assert warm.melded.as_dict() == plain.melded.as_dict()


    def test_entry_stored_under_ipdom_serves_a_min_pc_launch(
            self, tmp_path, monkeypatch):
        """A stored program's key is its latency model: the warm launch
        under the other reconvergence policy lowers nothing."""
        from repro.simt import MachineConfig, lowering
        compare(build_sb1, block_size=16, grid_dim=1, seed=SEED,
                cache=CompileCache(disk=tmp_path),
                machine=MachineConfig(reconvergence="ipdom"))
        lowered = []
        real = lowering.lower_function
        monkeypatch.setattr(
            lowering, "lower_function",
            lambda function, latency: (lowered.append(function.name),
                                       real(function, latency))[1])
        warm = compare(build_sb1, block_size=16, grid_dim=1, seed=SEED,
                       cache=CompileCache(disk=tmp_path),
                       machine=MachineConfig(reconvergence="min-pc"))
        assert warm.baseline_compile.o3_cached and warm.cfm_compile.cfm_cached
        assert lowered == []

    def test_a_cold_compile_and_its_launch_lower_once(self, monkeypatch):
        """The program a cold compile lowers for the cache entry seeds
        the launch memo, as a hit's does: the launch does not lower
        the same function again."""
        from repro import pipeline
        from repro.evaluation.runner import execute
        from repro.simt import MachineConfig, lowering
        lowered = []

        def counting(real):
            return lambda function, latency: (lowered.append(function.name),
                                              real(function, latency))[1]

        monkeypatch.setattr(pipeline, "lower_symbolic",
                            counting(pipeline.lower_symbolic))
        monkeypatch.setattr(lowering, "lower_symbolic",
                            counting(lowering.lower_symbolic))
        machine = MachineConfig()
        case = _case()
        result = compile_arm(case, "o3-cfm", cache=CompileCache(),
                             machine=machine)
        assert not result.cached and lowered == [result.function.name]
        execute(case, SEED, machine=machine)
        assert lowered == [result.function.name]

    def test_a_hit_releases_the_function_it_replaced(self):
        """A hit swaps a replayed module into the builder; the finished
        builder's emitter state used to pin the un-optimised function
        for as long as the builder lived."""
        cache = CompileCache()
        spec = generate_spec(3)
        compile_arm(build_kernel(spec), "o3", cache=cache)
        builder = build_kernel(spec)
        replaced = weakref.ref(builder.function)
        assert compile_arm(builder, "o3", cache=cache).cached
        gc.collect()
        assert replaced() is None
        assert builder.function.module is builder.module


# ---------------------------------------------------------------------------
# the cache directory setting / observability


def _writes(cache):
    """How many disk files one o3 compile through ``cache`` writes."""
    compile_baseline(_case(), cache=cache)
    return cache.counters()["writes"]


def _cli_cache_dir(monkeypatch, *argv):
    """The ``cache_dir`` ``python -m repro.evaluation *argv`` sweeps with."""
    from repro.evaluation import __main__ as cli
    seen = []
    monkeypatch.setattr(cli, "build_report", lambda **kwargs: (
        seen.append(kwargs["cache_dir"]) or ("", {})))
    assert cli.main(["--no-trace", *argv]) == 0
    (cache_dir,) = seen
    return cache_dir


class TestFromEnv:
    """The cache directory from the environment: ``REPRO_COMPILE_CACHE``
    is the default of the CLI flag, parsed by ``cache_dir_setting``;
    below the CLI a directory is an argument and nothing reads the
    variable."""

    def test_env_var_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert _cli_cache_dir(monkeypatch) == str(tmp_path)
        cache = CompileCache(disk=cache_dir_setting(str(tmp_path)))
        assert _writes(cache) == 1
        assert [f.name for f in tmp_path.iterdir()] == \
            [cache._file(_o3_key(_case())).name]

    @pytest.mark.parametrize("value", ["off", "0", "none", "OFF", ""])
    def test_off_values_disable_disk(self, value, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        monkeypatch.chdir(tmp_path)
        assert cache_dir_setting(value) is None
        assert _cli_cache_dir(monkeypatch) is None
        monkeypatch.setenv(CACHE_ENV_VAR, "env-dir")
        assert _cli_cache_dir(monkeypatch, "--compile-cache", value) is None
        assert _writes(CompileCache(disk=cache_dir_setting(value))) == 0
        assert list(tmp_path.iterdir()) == []

    def test_the_flag_wins_over_the_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "env-dir")
        assert _cli_cache_dir(monkeypatch, "--compile-cache",
                              str(tmp_path)) == str(tmp_path)
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert _cli_cache_dir(monkeypatch) is None
        assert cache_dir_setting(None) is None

    def test_run_task_never_reads_the_env_var(self, tmp_path, monkeypatch):
        # run_task used to fall back to the variable when the task named
        # no directory.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        task = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                         grid_dim=1, seed=SEED)
        result = run_task(task)
        assert result.compile_cache["writes"] == 0
        assert list(tmp_path.iterdir()) == []


class TestUnusableDirectory:
    """A cache directory that cannot exist is lost persistence: one
    ``write_error`` when the cache is built, a working memory tier, and
    the rows of an uncached run — never a failed task."""

    @pytest.mark.parametrize("where", ["file", "under-a-file"])
    def test_run_task_rows_equal_an_uncached_run(self, where, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        task = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                         grid_dim=1, seed=SEED)
        plain = run_task(task)
        result = run_task(dataclasses.replace(task, cache_dir=str(
            blocker if where == "file" else blocker / "cache")))

        for arm in ("baseline", "melded"):
            assert getattr(result.comparison, arm).as_dict() == \
                getattr(plain.comparison, arm).as_dict()
        assert result.comparison.melds == plain.comparison.melds
        assert result.compile_cache == {**NO_TRAFFIC, "hits": 1,
                                        "misses": 2, "write_errors": 1}
        assert blocker.read_text() == "not a directory"


class TestObservability:
    def test_hit_and_miss_instants(self):
        cache = CompileCache()
        with trace() as tracer:
            _cold(cache)
        names = [e["name"] for e in tracer.events]
        misses = [e for e in tracer.events
                  if e["name"] == "compile-cache:miss"]
        hits = [e for e in tracer.events if e["name"] == "compile-cache:hit"]
        assert len(misses) == 2 and len(hits) == 1
        assert names.index("compile-cache:miss") < \
            names.index("compile-cache:hit")
        hit = hits[0]
        assert hit["args"]["pipeline"] == "o3"
        assert hit["args"]["source"] == "memory"
        assert len(hit["args"]["digest"]) == 12

    def test_disk_hits_are_attributed_to_disk(self, tmp_path):
        _cold(CompileCache(disk=tmp_path))
        with trace() as tracer:
            _cold(CompileCache(disk=tmp_path))
        hits = [e for e in tracer.events if e["name"] == "compile-cache:hit"]
        assert [h["args"]["source"] for h in hits] == ["disk", "disk"]

    def test_truncated_entry_is_one_eviction_everywhere(self, tmp_path):
        """The cache's counters, the metrics registry and the sweep-trace
        entry agree on a disk eviction."""
        task = SweepTask(kernel="SB1", builder=build_sb1, block_size=16,
                         grid_dim=1, seed=SEED, cache_dir=str(tmp_path))
        run_task(task)
        (file,) = [f for f in tmp_path.iterdir() if '"cfm": {' in f.read_text()]
        text = file.read_text()
        file.write_text(text[: len(text) // 2])

        registry = MetricsRegistry()
        with use_registry(registry):
            (outcome,) = run_sweep_tasks([task])
        result = outcome.value
        assert result.compile_cache == {**NO_TRAFFIC, "hits": 2,
                                        "disk_hits": 1, "misses": 1,
                                        "evictions": 1, "writes": 1}
        assert registry.counter(
            "repro_compile_cache_evictions_total").total() == 1
        assert registry.counter(
            "repro_compile_cache_misses_total").total() == 1
        collector = SweepTraceCollector()
        collector.record("sweep", [task], [outcome])
        (entry,) = collector.payload()["sections"]["sweep"]
        assert entry["compile_cache"]["evictions"] == 1

    def test_replayed_pass_spans_are_flagged_cached(self, tmp_path):
        _cold(CompileCache(disk=tmp_path))
        with trace() as tracer:
            _cold(CompileCache(disk=tmp_path))
        spans = [e for e in tracer.events
                 if e["name"].startswith("pass:") and e.get("ph") == "X"]
        assert spans
        assert all(e["args"].get("cached") for e in spans)
