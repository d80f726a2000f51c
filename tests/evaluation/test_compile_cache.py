"""The persistent compile cache: poisoned entries, digest keys, the
disk layer's failure matrix, and cross-"process" warm replays.

``tests/evaluation/test_parallel.py`` covers the in-process hit/miss
contract of one comparison; this file covers everything the persistence
layer adds — and the regression the tentpole fixed: a cache entry whose
stored IR no longer parses used to fail every lookup forever, instead of
being evicted and recompiled.
"""

import gc
import json
import multiprocessing
import os
import re
import weakref
from pathlib import Path

import pytest

from repro import compile_cache
from repro.compile_cache import (
    CACHE_ENV_VAR,
    CACHE_SCHEMA,
    CompileCache,
    DiskCompileCache,
    cfm_pipeline_id,
    digest_text,
)
from repro.core import CFMConfig
from repro.difftest.generator import build_kernel, generate_spec
from repro.evaluation import compare, compile_baseline, compile_cfm
from repro.kernels import build_sb1
from repro.obs import trace
from repro.pipeline import compile_arm
from repro.simt import DEFAULT_CONFIG

SEED = 99


def _case():
    return build_sb1(block_size=16, grid_dim=1)


def _cold(cache):
    return compare(build_sb1, block_size=16, grid_dim=1, seed=SEED,
                   cache=cache)


# ---------------------------------------------------------------------------
# keys


class TestKeys:
    def test_keys_are_digests_not_ir_text(self):
        key = CompileCache.key_for(_case())
        assert key[0] == "o3"
        assert len(key[1]) == 64
        assert set(key[1]) <= set("0123456789abcdef")

    def test_same_source_same_key(self):
        assert CompileCache.key_for(_case()) == CompileCache.key_for(_case())

    def test_digest_boundaries_count(self):
        assert digest_text("ab", "c") != digest_text("a", "bc")

    def test_cfm_pipeline_id_covers_config_knobs(self):
        default = cfm_pipeline_id()
        assert default == cfm_pipeline_id(CFMConfig())
        assert default.startswith("cfm:")
        tuned = cfm_pipeline_id(CFMConfig(profitability_threshold=0.9))
        assert tuned != default


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
        assert cache.evictions == 1
        assert cache.misses == 2  # cold + poisoned
        third = compile_baseline(_case(), cache=cache)
        assert third.o3_cached

    def test_poisoned_disk_entry_evicts_file(self, tmp_path):
        cache = CompileCache(disk=tmp_path)
        compile_baseline(_case(), cache=cache)
        (key,) = cache._entries
        file = cache.disk.file_for(key)
        payload = json.loads(file.read_text())
        payload["optimized_ir"] = "garbage("
        file.write_text(json.dumps(payload))

        fresh = CompileCache(disk=tmp_path)  # cold process, warm disk
        assert fresh.lookup(key) is None
        assert not file.exists()
        assert fresh.misses == 1


# ---------------------------------------------------------------------------
# disk layer failure matrix


def _store_one(tmp_path):
    """Populate a disk cache with one real o3 entry; return its key."""
    cache = CompileCache(disk=tmp_path)
    compile_baseline(_case(), cache=cache)
    (key,) = cache._entries
    return key, cache.disk.file_for(key)


NO_TRAFFIC = {"hits": 0, "misses": 0, "evictions": 0, "writes": 0,
              "write_errors": 0}


class TestDiskCache:
    """Every unreadable file is a counted eviction and a miss.  A file
    opens with the SHA-256 of the rest of it, so the checks behind the
    digest (schema, key, required fields) are reached only by files
    ``store`` itself sealed — which is how the tests below make them."""

    def test_version_mismatch_is_miss_and_evicts(self, tmp_path):
        """A file as the ``/1`` schema wrote it: no digest."""
        key, file = _store_one(tmp_path)
        payload = json.loads(file.read_text())
        del payload["sha256"], payload["ir_sha256"]
        payload["schema"] = "repro.compile-cache/1"
        file.write_text(json.dumps(payload))

        disk = DiskCompileCache(tmp_path)
        assert disk.load(key) is None
        assert not file.exists()
        assert disk.counters() == {**NO_TRAFFIC, "misses": 1, "evictions": 1}

    def test_sealed_foreign_schema_is_miss_and_evicts(self, tmp_path,
                                                      monkeypatch):
        assert CACHE_SCHEMA == "repro.compile-cache/2"
        with monkeypatch.context() as patch:
            patch.setattr(compile_cache, "CACHE_SCHEMA",
                          "repro.compile-cache/3")
            key, file = _store_one(tmp_path)
        assert json.loads(file.read_text())["schema"].endswith("/3")

        disk = DiskCompileCache(tmp_path)
        assert disk.load(key) is None
        assert not file.exists()
        assert disk.evictions == 1

    def test_truncated_file_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        text = file.read_text()
        file.write_text(text[: len(text) // 2])

        disk = DiskCompileCache(tmp_path)
        assert disk.load(key) is None
        assert not file.exists()
        assert disk.evictions == 1

    def test_key_mismatch_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        disk = DiskCompileCache(tmp_path)
        other = ("o3", "0" * 64)  # file renamed / content swapped
        file.rename(disk.file_for(other))

        assert disk.load(other) is None
        assert not disk.file_for(other).exists()
        assert disk.evictions == 1

    def test_missing_required_field_is_miss_and_evicts(self, tmp_path):
        key, file = _store_one(tmp_path)
        payload = json.loads(file.read_text())
        del payload["sha256"], payload["timings"]
        disk = DiskCompileCache(tmp_path)
        disk.store(key, payload)

        assert disk.load(key) is None
        assert not file.exists()
        assert disk.evictions == 1

    def test_non_utf8_byte_is_miss_not_a_stack_trace(self, tmp_path):
        key, file = _store_one(tmp_path)
        raw = bytearray(file.read_bytes())
        raw[len(raw) // 2] = 0xFF
        file.write_bytes(bytes(raw))

        cache = CompileCache(disk=tmp_path)
        assert not compile_baseline(_case(), cache=cache).o3_cached
        assert cache.disk.counters() == {
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
        assert cache.disk.evictions == 1 and cache.misses == 1
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
        assert cache.disk.counters() == {**NO_TRAFFIC, "misses": 2,
                                         "write_errors": 2}
        assert list(tmp_path.iterdir()) == []
        # the memory tier kept both entries
        assert compile_cfm(_case(), cache=cache, machine=DEFAULT_CONFIG).cached

    def test_absent_file_is_plain_miss(self, tmp_path):
        disk = DiskCompileCache(tmp_path)
        assert disk.load(("o3", "0" * 64)) is None
        assert disk.counters() == {**NO_TRAFFIC, "misses": 1}

    def test_concurrent_writers_leave_one_complete_winner(self, tmp_path):
        key = ("o3", digest_text("concurrent"))
        payloads = [{"optimized_ir": f"module {i}", "seconds": float(i),
                     "timings": [], "ir_stats": False, "filler": "x" * 65536}
                    for i in range(8)]

        def writer(i):
            DiskCompileCache(tmp_path).store(key, payloads[i])

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=writer, args=(i,)) for i in range(8)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        assert all(p.exitcode == 0 for p in procs)

        loaded = DiskCompileCache(tmp_path).load(key)
        assert loaded is not None  # never torn: some writer won outright
        winner = int(loaded["optimized_ir"].split()[1])
        stored = dict(payloads[winner])
        stored["schema"] = CACHE_SCHEMA
        stored["pipeline_id"], stored["digest"] = key
        assert loaded == stored
        # No temp droppings left behind.
        assert [f.name for f in tmp_path.iterdir()] == \
            [DiskCompileCache(tmp_path).file_for(key).name]


# ---------------------------------------------------------------------------
# cross-process warm replay (two CompileCache instances = two processes)


class TestWarmReplay:
    def test_fresh_process_replays_from_disk(self, tmp_path):
        cold = _cold(CompileCache(disk=tmp_path))

        warm_cache = CompileCache(disk=tmp_path)
        warm = _cold(warm_cache)
        # Both arms replay from disk: no in-process misses at all.
        assert warm_cache.hits == 2 and warm_cache.misses == 0
        assert warm_cache.disk.counters()["hits"] == 2
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
# environment / observability


class TestFromEnv:
    def test_env_var_names_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cache = CompileCache.from_env()
        assert cache.disk is not None
        assert cache.disk.path == tmp_path

    @pytest.mark.parametrize("value", ["off", "0", "none", "OFF", ""])
    def test_off_values_disable_disk(self, value, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        assert CompileCache.from_env("ignored-default").disk is None

    def test_unset_falls_back_to_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert CompileCache.from_env().disk is None
        cache = CompileCache.from_env(str(tmp_path))
        assert cache.disk is not None


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

    def test_replayed_pass_spans_are_flagged_cached(self, tmp_path):
        _cold(CompileCache(disk=tmp_path))
        with trace() as tracer:
            _cold(CompileCache(disk=tmp_path))
        spans = [e for e in tracer.events
                 if e["name"].startswith("pass:") and e.get("ph") == "X"]
        assert spans
        assert all(e["args"].get("cached") for e in spans)
