"""Persistent, content-addressed compile cache: one object, two tiers.

Caching only the ``-O3`` run would never amortize the real cost: on the
Figure 8 workload the CFM stage itself — alignment, divergence
analysis, postdominator trees — dominates compile time by ~4× over
``-O3`` (see ``docs/performance.md``).  So :class:`CompileCache` keeps
the **whole pipeline result**, in memory and — given a directory — on
disk, so the cost is paid once per machine, not once per process:

* **keys** are ``(pipeline_id, digest)`` where ``digest`` is the SHA-256
  of the printed pre-pipeline IR — content addressing, so any process
  that builds the same kernel hits, regardless of object identity;
* **values** are the printed optimized module, the per-pass timings of
  the run that produced it (IR sizes included — every entry carries
  them, so any caller replays any entry), the symbolic lowered µop program
  (:func:`repro.simt.lower_symbolic`) keyed by
  :func:`~repro.analysis.latency.latency_token`, and — for
  full-pipeline entries — the :class:`~repro.core.CFMStats` decision
  log, validations, iteration count and seconds.
  Every hit gets a module of its own (never aliased into live modules)
  whose function bodies stay text until something reads their blocks —
  a launch of the stored program never does;
* **two pipeline ids** per kernel: ``"o3"`` (the baseline arm) and
  ``cfm:<digest>`` (:func:`cfm_pipeline_id`, covering every
  :class:`~repro.core.CFMConfig` knob plus CFM's latency table), so a
  warm CFM arm replays O3 + melding + late cleanups in one lookup;
* the **disk tier** is one JSON file per key, written to a temp file
  and landed by :func:`os.replace`, so concurrent writers race benignly
  (last full file wins, readers never see a torn write).

Nothing stored is trusted: an entry carries the SHA-256 of its IR,
checked on every lookup from either tier, and a disk file opens with
the SHA-256 of the rest of its text, checked before it is decoded.
:meth:`CompileCache.lookup` runs every check in one guarded region, and
any failure is one eviction (from both tiers) plus one miss.  Every
count goes through one method, which moves :meth:`CompileCache.counters`
and the ``repro_compile_cache_*`` metric families together.

Hits and misses are visible in ``repro.obs`` traces as
``compile-cache:hit`` / ``compile-cache:miss`` instants, and replayed
pass spans carry ``"cached": true`` so Perfetto timelines distinguish a
replay from a live run.

The cache directory comes from the ``REPRO_COMPILE_CACHE`` environment
variable (``--compile-cache`` on the CLIs); unset or ``"off"`` keeps the
cache purely in-process, and a directory that cannot be created only
loses the persistence.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core import CFMConfig, CFMStats
from repro.ir import print_module
from repro.ir.parser import parse_module_deferred
from repro.obs import current_tracer, emit_pass_timing, record_cache_event
from repro.obs.decisions import MeldingDecision
from repro.obs.passes import pass_timing_events
from repro.obs.tracer import COMPILE_PID
from repro.analysis.validate import MeldValidation
from repro.analysis.latency import DEFAULT_LATENCY_MODEL, latency_token
from repro.simt import ProgramDecodeError, materialize_program, seed_program
from repro.transforms import PassTiming

#: on-disk entry format; bump on any incompatible payload change
CACHE_SCHEMA = "repro.compile-cache/3"

#: how a disk entry starts: its first member is the SHA-256 of its text
#: without that member
_SEAL = '{"sha256": "'

#: environment variable naming the cache directory ("off"/"0" disables)
CACHE_ENV_VAR = "REPRO_COMPILE_CACHE"

CacheKey = Tuple[str, str]

#: what :meth:`CompileCache.counters` counts
COUNTERS = ("hits", "disk_hits", "misses", "evictions", "writes",
            "write_errors")


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
    knob (``validate`` included) lands in the digest by construction, so
    sweeps over melding configurations never share entries and a new
    knob cannot be forgotten.  The latency table the profitability
    heuristics score with is in it too, so editing the table misses
    every stored entry.
    """
    config = config or CFMConfig()
    token = {f.name: getattr(config, f.name) for f in fields(CFMConfig)}
    token["latency"] = latency_token(DEFAULT_LATENCY_MODEL)
    return "cfm:" + digest_text(json.dumps(token, sort_keys=True))[:16]


# ---------------------------------------------------------------------------
# CFMStats serialization: its four stored fields (decisions already
# define the as_dict/from_dict pair for trace args and corpus entries;
# everything else CFMStats reports is derived from them)


def cfm_stats_to_data(stats: CFMStats) -> Dict[str, object]:
    return {"decisions": [d.as_dict() for d in stats.decisions],
            "validations": [asdict(v) for v in stats.validations],
            "iterations": stats.iterations, "seconds": stats.seconds}


def cfm_stats_from_data(data: Dict[str, object]) -> CFMStats:
    return CFMStats(
        [MeldingDecision.from_dict(d) for d in data["decisions"]],
        [MeldValidation(**v) for v in data.get("validations", [])],
        data["iterations"], data["seconds"])


def _timing_from_event(event: Dict[str, object]) -> PassTiming:
    """Rebuild a :class:`PassTiming` from its serialized event form,
    flagged as a cache replay."""
    return PassTiming(event["pass"], event["seconds"], event["changed"],
                      event["blocks_before"], event["blocks_after"],
                      event["instructions_before"],
                      event["instructions_after"], cached=True)


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
    """Content-keyed cache of compile-pipeline results, in two tiers.

    In-process dict by default; pass ``disk=`` (a directory path) to
    persist entries across processes — memory then acts as a
    write-through promotion layer over one JSON file per key.  A
    directory that cannot be created, or a refused write (read-only
    directory, ``ENOSPC``), counts a ``write_error`` and loses only the
    persistence.

    Each hit yields an independent module over the (digest-checked)
    stored text, a function body parsed when something first reads its
    blocks.  Printing and parsing round-trip exactly
    (``tests/ir/test_function_module.py``), so a replayed module is
    indistinguishable from a freshly optimized one; a replayed lowered
    program is bit-identical to re-lowering the replayed module
    (``tests/simt/test_program_serialize.py``) and launches with the body
    still text (``tests/evaluation/test_deferred_replay.py``).
    """

    def __init__(self, disk: Union[None, str, os.PathLike] = None) -> None:
        self._entries: Dict[CacheKey, Dict[str, object]] = {}
        self._counts = dict.fromkeys(COUNTERS, 0)
        self._dir: Optional[Path] = None
        if disk is not None:
            try:
                Path(disk).mkdir(parents=True, exist_ok=True)
                self._dir = Path(disk)
            except (OSError, ValueError):
                # e.g. the path names a file, or lies under one
                self._count("write_errors")

    @classmethod
    def from_env(cls, default_dir: Optional[str] = None) -> "CompileCache":
        """Cache configured by :data:`CACHE_ENV_VAR` (``"off"``/``"0"``/
        empty → in-process only; otherwise the value is the cache dir)."""
        return cls(disk=cache_dir_setting(
            os.environ.get(CACHE_ENV_VAR, default_dir)))

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(pipeline_id: str, printed_ir: str) -> CacheKey:
        """Key for ``pipeline_id`` over already-printed input IR (callers
        holding the text avoid a second ``print_module``)."""
        return (pipeline_id, digest_text(printed_ir))

    def counters(self) -> Dict[str, int]:
        """Lookup, eviction and write counts of this cache (:data:`COUNTERS`;
        ``hits`` includes ``disk_hits``)."""
        return dict(self._counts)

    # ---- lookup / store ----------------------------------------------------

    def lookup(self, key: CacheKey, machine=None) -> Optional[CacheHit]:
        """Return a :class:`CacheHit`, or None (counted as a miss).

        With a ``machine`` (a :class:`~repro.simt.MachineConfig`), a stored
        program matching its latency model is materialized and seeded
        into the launch memo so the first launch skips lowering.

        An entry failing any check — a disk file not hashing to the
        digest it opens with (truncated, bit-flipped, not UTF-8), a
        foreign schema or key, IR not matching its digest, a missing or
        malformed field — is evicted from both tiers and reported as a
        plain miss, so the recompile's :meth:`store` replaces it.
        """
        payload = self._entries.get(key)
        raw = None if payload is not None else self._read(key)
        if payload is None and raw is None:
            return self._miss(key)
        try:
            if raw is not None:
                text = raw.decode("utf-8")
                digest, _, rest = text[len(_SEAL):].partition('", ')
                if (not text.startswith(_SEAL)
                        or digest != digest_text("{" + rest)):
                    raise ValueError("entry does not match its digest")
                payload = json.loads(text)
                del payload["sha256"]
                if (payload["schema"], payload["pipeline_id"],
                        payload["digest"]) != (CACHE_SCHEMA, *key):
                    raise ValueError("entry of another schema or key")
            ir = payload["optimized_ir"]
            if digest_text(ir) != payload["ir_sha256"]:
                raise ValueError("stored IR does not match its digest")
            module = parse_module_deferred(ir)
            timings = [_timing_from_event(e) for e in payload["timings"]]
            seconds = payload["seconds"]
            cfm_payload = payload.get("cfm")
            cfm_seconds = cfm_payload["seconds"] if cfm_payload else 0.0
            cfm_stats = (cfm_stats_from_data(cfm_payload["stats"])
                         if cfm_payload else None)
        except Exception:
            self._drop(key)
            return self._miss(key)
        source = "memory" if raw is None else "disk"
        program = self._seed(payload, module, machine)
        self._entries[key] = payload  # promote disk hits to memory
        self._count("hits", source)
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
        return CacheHit(module=module, seconds=seconds, timings=timings,
                        program=program, cfm_seconds=cfm_seconds,
                        cfm_stats=cfm_stats)

    def store(self, key: CacheKey, module: object, seconds: float,
              timings: List[PassTiming], *,
              program: Optional[Dict[str, object]] = None,
              machine=None,
              cfm_seconds: float = 0.0,
              cfm_stats: Optional[CFMStats] = None) -> None:
        """Store one pipeline result (write-through to disk if attached).

        ``program`` is a symbolic lowered program
        (:func:`repro.simt.lower_symbolic` of the optimized function)
        keyed by the ``machine``'s latency model; it also seeds the
        launch memo of ``module``'s function, as a hit does, so the
        first launch after a cold compile lowers nothing again.
        ``cfm_stats`` marks a full-pipeline entry.
        """
        text = print_module(module)
        payload: Dict[str, object] = {
            "optimized_ir": text,
            "ir_sha256": digest_text(text),
            "seconds": seconds,
            "timings": pass_timing_events(timings),
        }
        if program is not None and machine is not None:
            payload["program"] = program
            payload["machine_key"] = latency_token(machine.latency)
        if cfm_stats is not None:
            payload["cfm"] = {"seconds": cfm_seconds,
                              "stats": cfm_stats_to_data(cfm_stats)}
        self._entries[key] = payload
        self._write(key, payload)
        self._seed(payload, module, machine)

    # ---- internals ---------------------------------------------------------

    def _seed(self, payload: Dict[str, object], module,
              machine) -> Optional[object]:
        """Materialize + memo-seed the entry's program, if usable."""
        data = payload.get("program")
        if data is None or machine is None:
            return None
        if payload.get("machine_key") != latency_token(machine.latency):
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

    def _file(self, key: CacheKey) -> Path:
        return self._dir / (digest_text(key[0], key[1])[:40] + ".json")

    def _read(self, key: CacheKey) -> Optional[bytes]:
        """The bytes of ``key``'s file; None without a disk tier or file."""
        if self._dir is None:
            return None
        try:
            return self._file(key).read_bytes()
        except OSError:
            return None

    def _write(self, key: CacheKey, payload: Dict[str, object]) -> None:
        """Seal ``payload`` into ``key``'s file (a no-op without a disk
        tier): the file opens with the SHA-256 of the rest of its text."""
        if self._dir is None:
            return
        body = json.dumps(dict(payload, schema=CACHE_SCHEMA,
                               pipeline_id=key[0], digest=key[1]))
        file = self._file(key)
        tmp = file.with_name(f"{file.name}.tmp.{os.getpid()}")
        try:
            tmp.write_text(f"{_SEAL}{digest_text(body)}\", {body[1:]}",
                           encoding="utf-8")
            os.replace(tmp, file)
        except OSError:
            self._count("write_errors")
            with contextlib.suppress(OSError):
                tmp.unlink()
            return
        self._count("writes")

    def _drop(self, key: CacheKey) -> None:
        """Evict ``key`` from both tiers: one eviction."""
        self._entries.pop(key, None)
        if self._dir is not None:
            with contextlib.suppress(OSError):
                self._file(key).unlink()
        self._count("evictions")

    def _miss(self, key: CacheKey) -> None:
        self._count("misses")
        tracer = current_tracer()
        if tracer.enabled:
            tracer.instant("compile-cache:miss", cat="compile",
                           pid=COMPILE_PID,
                           args={"pipeline": key[0], "digest": key[1][:12]})
        return None

    def _count(self, counter: str, source: str = "memory") -> None:
        """The one place a count moves: this cache's :meth:`counters`
        and, for hits, misses and evictions, the ambient registry's
        ``repro_compile_cache_*`` families — so the two always agree."""
        self._counts[counter] += 1
        if counter == "hits" and source == "disk":
            self._counts["disk_hits"] += 1
        if counter in ("hits", "misses", "evictions"):
            record_cache_event(counter, source)
