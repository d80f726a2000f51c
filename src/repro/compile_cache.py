"""Persistent, content-addressed compile cache.

PR 1 introduced an in-process :class:`CompileCache` so the two arms of
one baseline-vs-CFM comparison share a single ``-O3`` run.  Profiling
the ``pass:<name>`` spans (see ``docs/performance.md``) showed that was
never going to amortize the real cost: on the Figure 8 workload the CFM
stage itself — alignment, divergence analysis, postdominator trees —
dominates compile time by ~4× over ``-O3``, and inter-pass verification
is noise.  So this module caches the **whole pipeline result**, and
persists it to disk so the cost is paid once per machine, not once per
process:

* **keys** are ``(pipeline_id, digest)`` where ``digest`` is the SHA-256
  of the printed pre-pipeline IR — content addressing, so any process
  that builds the same kernel hits, regardless of object identity;
* **values** are the printed optimized module, the per-pass timings of
  the run that produced it, the symbolic lowered µop program
  (:func:`repro.simt.lower_symbolic`), and — for full-pipeline entries —
  the serialized :class:`~repro.core.CFMStats`.  Every hit gets a module
  of its own (never aliased into live modules) whose function bodies
  stay text until something reads their blocks — a launch of the stored
  program never does.  That is sound because the text is vouched for: an
  entry carries the SHA-256 of its IR, checked on every lookup from
  either tier, and a disk file the SHA-256 of all its other bytes,
  checked before it is decoded; a mismatch is an eviction and a miss;
* **two pipeline ids** per kernel: ``"o3"`` (the baseline arm) and
  ``cfm:<digest>`` (:func:`cfm_pipeline_id`, covering every
  :class:`~repro.core.CFMConfig` knob plus its latency model), so a
  warm CFM arm replays O3 + melding + late cleanups in one lookup;
* the **disk layer** (:class:`DiskCompileCache`) writes one JSON file
  per key via write-to-temp + :func:`os.replace`, so concurrent writers
  race benignly (last full file wins, readers never see a torn write).
  Files carry a versioned ``schema`` header; version mismatch,
  truncation or corruption is treated as a miss and the file is evicted.

Hits and misses are visible in ``repro.obs`` traces as
``compile-cache:hit`` / ``compile-cache:miss`` instants, and replayed
pass spans carry ``"cached": true`` so Perfetto timelines distinguish a
replay from a live run.

The cache directory comes from the ``REPRO_COMPILE_CACHE`` environment
variable (``--compile-cache`` on the CLIs); unset or ``"off"`` keeps the
cache purely in-process.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core import CFMConfig, CFMStats, MeldRecord
from repro.ir import print_module
from repro.ir.parser import parse_module_deferred
from repro.obs import (
    current_tracer,
    emit_pass_timing,
    record_cache_eviction,
    record_cache_lookup,
)
from repro.obs.decisions import MeldingDecision
from repro.obs.passes import pass_timing_events
from repro.obs.tracer import COMPILE_PID
from repro.analysis.validate import MeldValidation
from repro.simt import (
    ProgramDecodeError,
    latency_token_key,
    materialize_program,
    seed_program,
)
from repro.transforms import PassTiming

#: on-disk entry format; bump on any incompatible payload change
CACHE_SCHEMA = "repro.compile-cache/2"

#: how a disk entry starts: its first member is the SHA-256 of its text
#: without that member
_SEAL = '{"sha256": "'

#: environment variable naming the cache directory ("off"/"0" disables)
CACHE_ENV_VAR = "REPRO_COMPILE_CACHE"

CacheKey = Tuple[str, str]


def cache_dir_setting(value: Optional[str]) -> Optional[str]:
    """``value`` (of :data:`CACHE_ENV_VAR` or ``--compile-cache``) as a
    cache directory; unset, empty and ``off``/``0``/``none`` mean none."""
    if not value or value.lower() in ("off", "0", "none"):
        return None
    return value


def digest_text(*parts: str) -> str:
    """SHA-256 hex digest of ``parts`` (NUL-joined, so boundaries count)."""
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(b"\x00")
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def cfm_pipeline_id(config: Optional[CFMConfig] = None) -> str:
    """Pipeline id of the full ``-O3 + CFM + late cleanups`` pipeline.

    The token is derived from ``dataclasses.fields(CFMConfig)`` — every
    knob (``validate`` included, and the latency model feeding the
    profitability heuristics) lands in the digest by construction, so
    sweeps over melding configurations never share entries and a new
    knob cannot be forgotten.
    """
    config = config or CFMConfig()
    token = {f.name: getattr(config, f.name) for f in fields(CFMConfig)}
    token["latency"] = latency_token_key(config.latency)
    return "cfm:" + digest_text(json.dumps(token, sort_keys=True))[:16]


# ---------------------------------------------------------------------------
# CFMStats serialization (melds are plain dataclasses; decisions already
# define the as_dict/from_dict pair for trace args and corpus entries)


def cfm_stats_to_data(stats: CFMStats) -> Dict[str, object]:
    return {
        "melds": [asdict(m) for m in stats.melds],
        "decisions": [d.as_dict() for d in stats.decisions],
        "validations": [asdict(v) for v in stats.validations],
        "iterations": stats.iterations,
        "regions_considered": stats.regions_considered,
        "pairs_rejected_unprofitable": stats.pairs_rejected_unprofitable,
        "seconds": stats.seconds,
    }


def cfm_stats_from_data(data: Dict[str, object]) -> CFMStats:
    return CFMStats(
        melds=[MeldRecord(**m) for m in data["melds"]],
        decisions=[MeldingDecision.from_dict(d) for d in data["decisions"]],
        # absent in entries written before validations were persisted
        validations=[MeldValidation(**v)
                     for v in data.get("validations", [])],
        iterations=data["iterations"],
        regions_considered=data["regions_considered"],
        pairs_rejected_unprofitable=data["pairs_rejected_unprofitable"],
        seconds=data["seconds"],
    )


def _timing_from_event(event: Dict[str, object]) -> PassTiming:
    """Rebuild a :class:`PassTiming` from its serialized event form,
    flagged as a cache replay."""
    return PassTiming(
        name=event["pass"],
        seconds=event["seconds"],
        changed=event["changed"],
        blocks_before=event.get("blocks_before"),
        blocks_after=event.get("blocks_after"),
        instructions_before=event.get("instructions_before"),
        instructions_after=event.get("instructions_after"),
        cached=True,
    )


# ---------------------------------------------------------------------------
# disk layer


class DiskCompileCache:
    """One JSON file per key under ``path``; crash- and race-safe.

    Writes go to a per-process temp file and land via :func:`os.replace`
    (atomic within a directory), so two workers storing the same key
    leave one complete winner and readers never observe a torn file.
    Anything unreadable — bytes that do not hash to the digest the file
    opens with (truncated, bit-flipped, written before digests), a
    foreign schema version, a payload missing required fields — counts as
    a miss and the file is evicted so the next lookup doesn't re-fail on
    it.  A refused write (read-only directory, ``ENOSPC``) is counted in
    ``write_errors`` and loses only the persistence.
    """

    REQUIRED_FIELDS = ("optimized_ir", "seconds", "timings", "ir_stats")

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0
        self.write_errors = 0

    def file_for(self, key: CacheKey) -> Path:
        return self.path / (digest_text(key[0], key[1])[:40] + ".json")

    def load(self, key: CacheKey) -> Optional[Dict[str, object]]:
        file = self.file_for(key)
        try:
            text = file.read_text(encoding="utf-8")
            digest, _, rest = text[len(_SEAL):].partition('", ')
            if (not text.startswith(_SEAL)
                    or digest != digest_text("{" + rest)):
                raise ValueError("entry does not match its digest")
            payload = json.loads(text)
            del payload["sha256"]
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(
                    f"schema {payload.get('schema')!r} != {CACHE_SCHEMA!r}")
            if (payload.get("pipeline_id"), payload.get("digest")) != key:
                raise ValueError("entry key does not match its filename")
            for name in self.REQUIRED_FIELDS:
                if name not in payload:
                    raise ValueError(f"missing field {name!r}")
        except Exception:
            self.evict(key)  # (counts nothing if there was no file)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, key: CacheKey, payload: Dict[str, object]) -> None:
        record = dict(payload)
        record["schema"] = CACHE_SCHEMA
        record["pipeline_id"], record["digest"] = key
        body = json.dumps(record)
        file = self.file_for(key)
        tmp = file.with_name(f"{file.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(f"{_SEAL}{digest_text(body)}\", {body[1:]}",
                           encoding="utf-8")
            os.replace(tmp, file)
        except OSError:
            self.write_errors += 1
            with contextlib.suppress(OSError):
                tmp.unlink()
            return
        self.writes += 1

    def evict(self, key: CacheKey) -> None:
        try:
            self.file_for(key).unlink()
        except OSError:
            return
        self.evictions += 1

    def counters(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "writes": self.writes,
                "write_errors": self.write_errors}


# ---------------------------------------------------------------------------
# the cache


@dataclass
class CacheHit:
    """One successful lookup, fully rehydrated.

    ``module`` is this hit's own (never aliased with other hits), its
    function bodies parsed on first touch; ``timings`` are the original
    run's, each flagged ``cached``; ``program`` is the lowered µop
    program materialized against that module and pre-seeded into the
    launch memo (None when the entry has no program for the requested
    latency model).
    """

    module: object
    seconds: float
    timings: List[PassTiming] = field(default_factory=list)
    program: Optional[object] = None
    cfm_seconds: float = 0.0
    cfm_stats: Optional[CFMStats] = None


class CompileCache:
    """Content-keyed cache of compile-pipeline results.

    In-process dict by default; pass ``disk=`` (a directory path or a
    :class:`DiskCompileCache`) to persist entries across processes —
    memory then acts as a write-through promotion layer over disk.

    Each hit yields an independent module over the (digest-checked)
    stored text, a function body parsed when something first reads its
    blocks.  Printing and parsing round-trip exactly
    (``tests/ir/test_function_module.py``), so a replayed module is
    indistinguishable from a freshly optimized one; a replayed lowered
    program is bit-identical to re-lowering the replayed module
    (``tests/simt/test_program_serialize.py``) and launches with the body
    still text (``tests/evaluation/test_deferred_replay.py``).
    """

    def __init__(self, disk: Union[None, str, os.PathLike,
                                   DiskCompileCache] = None) -> None:
        if disk is not None and not isinstance(disk, DiskCompileCache):
            disk = DiskCompileCache(disk)
        self.disk: Optional[DiskCompileCache] = disk
        self._entries: Dict[CacheKey, Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_env(cls, default_dir: Optional[str] = None) -> "CompileCache":
        """Cache configured by :data:`CACHE_ENV_VAR` (``"off"``/``"0"``/
        empty → in-process only; otherwise the value is the cache dir)."""
        return cls(disk=cache_dir_setting(
            os.environ.get(CACHE_ENV_VAR, default_dir)))

    def __len__(self) -> int:
        return len(self._entries)

    # ---- keys --------------------------------------------------------------

    @staticmethod
    def key(pipeline_id: str, printed_ir: str) -> CacheKey:
        """Key for ``pipeline_id`` over already-printed input IR (callers
        holding the text avoid a second ``print_module``)."""
        return (pipeline_id, digest_text(printed_ir))

    @staticmethod
    def key_for(case, pipeline_id: str = "o3") -> CacheKey:
        """Key for a :class:`~repro.kernels.common.KernelCase`'s module."""
        return CompileCache.key(pipeline_id, print_module(case.module))

    # ---- lookup / store ----------------------------------------------------

    def lookup(self, key: CacheKey, want_ir_stats: bool = False,
               machine=None) -> Optional[CacheHit]:
        """Return a :class:`CacheHit`, or None (counted as a miss).

        ``want_ir_stats=True`` rejects entries whose timings lack IR
        size stats (stored by a run that didn't collect them) — the
        entry stays valid for callers that don't need stats.  With a
        ``machine`` (a :class:`~repro.simt.MachineConfig`), a stored
        program matching its program token is materialized and seeded
        into the launch memo so the first launch skips lowering.
        """
        source = "memory"
        payload = self._entries.get(key)
        if payload is None and self.disk is not None:
            payload = self.disk.load(key)
            source = "disk"
        if payload is None:
            return self._miss(key)
        try:
            text = payload["optimized_ir"]
            if digest_text(text) != payload["ir_sha256"]:
                raise ValueError("stored IR does not match its digest")
            if want_ir_stats and not payload["ir_stats"]:
                # Valid but not rich enough for this caller; the
                # recompile's store() below will upgrade the entry in place.
                return self._miss(key)
            module = parse_module_deferred(text)
            timings = [_timing_from_event(e) for e in payload["timings"]]
            cfm_payload = payload.get("cfm")
            cfm_stats = (cfm_stats_from_data(cfm_payload["stats"])
                         if cfm_payload else None)
        except Exception:
            # Poisoned entry (not the IR that was stored, malformed
            # payload): evict so the next lookup recompiles instead of
            # re-failing here, then report a plain miss.
            self._evict(key)
            return self._miss(key)
        program = self._seed(payload, module, machine)
        self._entries[key] = payload  # promote disk hits to memory
        self.hits += 1
        record_cache_lookup(True, source=source)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant("compile-cache:hit", cat="compile",
                           pid=COMPILE_PID,
                           args={"pipeline": key[0], "digest": key[1][:12],
                                 "source": source})
            for timing in timings:
                # Replay the original run's pass spans (flagged cached)
                # so the Perfetto timeline agrees with pass_timings.
                emit_pass_timing(timing, tracer)
        return CacheHit(
            module=module,
            seconds=payload["seconds"],
            timings=timings,
            program=program,
            cfm_seconds=cfm_payload["seconds"] if cfm_payload else 0.0,
            cfm_stats=cfm_stats,
        )

    def store(self, key: CacheKey, module: object, seconds: float,
              timings: List[PassTiming], *,
              ir_stats: bool = False,
              program: Optional[Dict[str, object]] = None,
              machine=None,
              cfm_seconds: float = 0.0,
              cfm_stats: Optional[CFMStats] = None) -> None:
        """Store one pipeline result (write-through to disk if attached).

        ``program`` is a symbolic lowered program
        (:func:`repro.simt.lower_symbolic` of the optimized function)
        keyed by the ``machine``'s latency model.  ``cfm_stats`` marks a
        full-pipeline entry.
        """
        text = print_module(module)
        payload: Dict[str, object] = {
            "optimized_ir": text,
            "ir_sha256": digest_text(text),
            "seconds": seconds,
            "timings": pass_timing_events(timings),
            "ir_stats": bool(ir_stats),
        }
        if program is not None and machine is not None:
            payload["program"] = program
            payload["machine_key"] = latency_token_key(machine.latency)
        if cfm_stats is not None:
            payload["cfm"] = {"seconds": cfm_seconds,
                              "stats": cfm_stats_to_data(cfm_stats)}
        self._entries[key] = payload
        if self.disk is not None:
            self.disk.store(key, payload)

    # ---- internals ---------------------------------------------------------

    def _seed(self, payload: Dict[str, object], module,
              machine) -> Optional[object]:
        """Materialize + memo-seed the entry's program, if usable."""
        data = payload.get("program")
        if data is None or machine is None:
            return None
        if payload.get("machine_key") != latency_token_key(machine.latency):
            # Program was lowered under a different latency model (or
            # the entry carries an older key): the IR replay is still
            # good, the launch just re-lowers.
            return None
        try:
            function = module.functions[data["function"]]
            program = materialize_program(data, function)
        except (ProgramDecodeError, KeyError, TypeError):
            # The IR replay is still good; the launch just re-lowers.
            return None
        seed_program(function, machine, program)
        return program

    def _miss(self, key: CacheKey) -> None:
        self.misses += 1
        record_cache_lookup(False)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant("compile-cache:miss", cat="compile",
                           pid=COMPILE_PID,
                           args={"pipeline": key[0], "digest": key[1][:12]})
        return None

    def _evict(self, key: CacheKey) -> None:
        if self._entries.pop(key, None) is not None:
            self.evictions += 1
            record_cache_eviction()
        if self.disk is not None:
            self.disk.evict(key)

    def counters(self) -> Dict[str, object]:
        """Hit/miss/eviction counts (plus the disk layer's, if any)."""
        out: Dict[str, object] = {"hits": self.hits, "misses": self.misses,
                                  "evictions": self.evictions}
        if self.disk is not None:
            out["disk"] = self.disk.counters()
        return out
