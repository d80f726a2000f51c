"""``repro.obs.metrics`` — the aggregate-metrics registry.

The span tracer (:mod:`repro.obs.tracer`) answers "what happened in this
one run"; this module answers the complementary, serving-oriented
question: "what is the system doing in aggregate".  A
:class:`MetricsRegistry` holds labeled **counters**, **gauges** and
fixed-bucket **histograms** (exponential buckets for latencies and
cycles, linear 0–``warp_size`` buckets for active-lane occupancy), named
``repro_<layer>_<name>`` after the four instrumented layers: compile
(pass wall time, compile-cache hits/misses, CFM melding decisions),
runtime (per-policy divergence-rate and occupancy distributions from
both executors), evaluation (task throughput and worker utilization) and
difftest (seeds/sec, failures by oracle arm); the scheduler's
``repro_sched_*`` families count settled tasks.  Each fact is stored
once: a count a histogram already carries, or a ratio of two counters,
is derived by the reader, never kept as a second family.

Like tracing, collection is *ambient*: instrumented code reads
:func:`current_registry`, which is None — metrics off — outside a
collection scope, so the disabled path costs one ``is None`` check
(the same budget ``tests/obs/test_overhead.py`` holds the tracer to).

There is one family type, :class:`Family`, held in its snapshot layout:
a kind (counter, gauge or histogram), a help text, the histogram
buckets, and one child per flat ``k=v,k2=v2`` sample key.  A child is a
:class:`Value` (a counter's only goes up) or a :class:`Histogram`.

Snapshots are plain JSON-able dicts (:meth:`MetricsRegistry.snapshot`)
and merge additively (:meth:`MetricsRegistry.merge`: each family folds
its entry in by sample key), which is what makes **cross-process
aggregation** work: every scheduler worker returns its task's delta on
the task's ``TaskOutcome`` and ``merge_deltas`` merges the deltas — in
task order — into one registry.
Histogram merges reject mismatched bucket boundaries exactly the way
:meth:`repro.simt.Metrics.merge` rejects mismatched warp widths: a side
that has not observed anything yet adopts the other's buckets; two
counted sides with different buckets raise :class:`ValueError`.

Three exposition paths, each a walk over one snapshot:

* Prometheus text format v0.0.4 — :func:`render_prometheus`,
  :meth:`MetricsRegistry.write_prom`, and ``python -m repro.obs metrics
  FILE --format prom|json``;
* the evaluation sweep trace — schema v3+ embeds the merged snapshot
  under a top-level ``"metrics"`` key;
* Chrome-trace counter tracks — :func:`bridge_to_tracer` replays a
  snapshot through :meth:`repro.obs.Tracer.counter` so Perfetto shows
  the aggregates next to the spans.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .tracer import COMPILE_PID

#: snapshot layout version; bump on incompatible changes
SNAPSHOT_SCHEMA = "repro.obs.metrics/1"

#: characters label values must not contain (they would corrupt the
#: flat ``k=v,k2=v2`` sample key and the Prometheus exposition)
_FORBIDDEN_IN_LABELS = ("=", ",", '"', "\n")

# ---------------------------------------------------------------------------
# bucket helpers


def exponential_buckets(start: float, factor: float,
                        count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    The implicit ``+Inf`` overflow bucket is always present; these are
    the finite ``le`` bounds only.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("exponential_buckets needs start>0, factor>1, "
                         "count>=1")
    return tuple(start * factor ** i for i in range(count))


def linear_buckets(start: float, width: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds spaced ``width`` apart from ``start``."""
    if width <= 0 or count < 1:
        raise ValueError("linear_buckets needs width>0, count>=1")
    return tuple(start + width * i for i in range(count))


def occupancy_buckets(warp_size: int) -> Tuple[float, ...]:
    """Linear 0–``warp_size`` bounds for active-lane occupancy (eight
    buckets for the usual widths, one per lane for tiny warps)."""
    if warp_size >= 8:
        width = warp_size / 8
        return linear_buckets(width, width, 8)
    return linear_buckets(1, 1, max(1, warp_size))


#: wall-time histograms: 100µs … ~26s
SECONDS_BUCKETS = exponential_buckets(1e-4, 4.0, 10)
#: issue-cycle histograms: 64 … ~2.7e8 cycles
CYCLES_BUCKETS = exponential_buckets(64, 4.0, 12)
#: divergence-rate histograms: 0.1 … 1.0
RATE_BUCKETS = linear_buckets(0.1, 0.1, 10)


# ---------------------------------------------------------------------------
# sample keys


def _label_key(labels: Dict[str, object]) -> str:
    """Flat, deterministic sample key: ``"k=v,k2=v2"`` (sorted)."""
    if not labels:
        return ""
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _parse_label_key(key: str) -> List[Tuple[str, str]]:
    if not key:
        return []
    return [tuple(part.split("=", 1)) for part in key.split(",")]


def _check_key(key: str) -> None:
    """Reject a sample key whose label names or values would corrupt it:
    every ``k=v`` part must split on exactly one ``=``."""
    for part in key.split(",") if key else ():
        _, sep, value = part.partition("=")
        if not sep or "=" in value or '"' in part or "\n" in part:
            raise ValueError(
                f"label key {key!r} is malformed; metric label "
                f"names/values must avoid {_FORBIDDEN_IN_LABELS}")


# ---------------------------------------------------------------------------
# children (the things instrumentation sites actually touch)


class Value:
    """A counter or gauge sample.  A counter only goes up; a gauge is
    last-write-wins, also across merges."""

    __slots__ = ("value", "counter")

    def __init__(self, counter: bool) -> None:
        self.value = 0
        self.counter = counter

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0 and self.counter:
            raise ValueError("counters only go up")
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.inc(-amount)

    def set(self, value: Union[int, float]) -> None:
        if self.counter:
            raise ValueError("counters only go up")
        self.value = value

    def sample(self) -> Union[int, float]:
        return self.value

    def fold(self, sample: Union[int, float]) -> None:
        if self.counter:
            self.value += sample
        else:
            self.value = sample


class Histogram:
    """Fixed-bucket histogram: ``bounds[i]`` is the *upper* (``le``)
    bound of bucket ``i``; ``counts`` has one extra overflow (``+Inf``)
    slot at the end."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0
        self.count = 0

    def observe(self, value: Union[int, float]) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def sample(self) -> Dict[str, object]:
        return {"counts": list(self.counts), "sum": self.sum,
                "count": self.count}

    def fold(self, sample: Dict[str, object]) -> None:
        counts = sample.get("counts", [])
        if len(counts) != len(self.counts):
            raise ValueError(
                f"histogram sample has {len(counts)} buckets, expected "
                f"{len(self.counts)}")
        for i, count in enumerate(counts):
            self.counts[i] += count
        self.sum += sample.get("sum", 0)
        self.count += sample.get("count", 0)


# ---------------------------------------------------------------------------
# the family (name + help + one child per sample key)

#: family kind -> its snapshot section, in snapshot order
_SECTIONS = {"counter": "counters", "gauge": "gauges",
             "histogram": "histograms"}


class Family:
    """One metric family, held in its snapshot layout: a ``kind``, a
    help text, the histogram ``buckets`` (None for a counter or gauge)
    and one child per flat sample key."""

    def __init__(self, kind: str, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.buckets: Optional[Tuple[float, ...]] = None
        if kind == "histogram":
            self.buckets = tuple(buckets or ())
            if not self.buckets:
                raise ValueError(f"histogram {name}: needs at least one bucket")
            if list(self.buckets) != sorted(set(self.buckets)):
                raise ValueError(
                    f"histogram {name}: bucket bounds must be strictly "
                    f"increasing, got {self.buckets}")
        self._children: Dict[str, Union[Value, Histogram]] = {}

    def _child(self, key: str) -> Union[Value, Histogram]:
        """The child for sample key ``key`` (created on first use)."""
        child = self._children.get(key)
        if child is None:
            _check_key(key)
            child = (Histogram(self.buckets) if self.buckets is not None
                     else Value(self.kind == "counter"))
            self._children[key] = child
        return child

    def labels(self, **labels) -> Union[Value, Histogram]:
        """The child for this label set (created on first use)."""
        return self._child(_label_key(labels))

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: Union[int, float]) -> None:
        self.labels().set(value)

    def observe(self, value: Union[int, float]) -> None:
        self.labels().observe(value)

    def total(self) -> Union[int, float]:
        """Sum over every label set (the un-labeled view of the family):
        the values of a counter or gauge, a histogram's observations."""
        if self.buckets is None:
            return sum(child.value for child in self._children.values())
        return sum(child.count for child in self._children.values())

    def entry(self) -> Dict[str, object]:
        """The family's snapshot entry, samples in key order."""
        entry: Dict[str, object] = {"help": self.help}
        if self.buckets is not None:
            entry["buckets"] = list(self.buckets)
        entry["samples"] = {key: self._children[key].sample()
                            for key in sorted(self._children)}
        return entry

    def fold(self, entry: Dict[str, object]) -> None:
        """Fold a snapshot entry of this family in, by sample key.

        Histogram bucket-boundary mismatches follow
        :meth:`repro.simt.Metrics.merge`'s warp-size rule: an empty side
        adopts the other's buckets, two counted sides raise."""
        samples = entry.get("samples", {})
        bounds = tuple(entry.get("buckets", ()))
        if self.buckets is not None and self.buckets != bounds:
            if self.total() == 0:
                self.buckets = bounds
                self._children = {key: Histogram(bounds)
                                  for key in self._children}
            elif any(sample.get("count", 0) for sample in samples.values()):
                raise ValueError(
                    f"cannot merge histogram {self.name} with buckets "
                    f"{bounds} into buckets {self.buckets}: bucket sums "
                    f"would be meaningless")
            else:
                return  # nothing observed on the incoming side
        for key, sample in samples.items():
            self._child(key).fold(sample)


# ---------------------------------------------------------------------------
# the registry


class MetricsRegistry:
    """A process-wide collection of metric families.

    Families are created on first access and returned on every later
    one; re-registering a name as a different kind (or a histogram with
    different buckets) raises, because silently forking a metric is how
    dashboards lie.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    # ---- registration ----------------------------------------------------

    def _family(self, kind: str, name: str, help: str,
                buckets: Optional[Sequence[float]] = None) -> Family:
        family = self._families.get(name)
        if family is None:
            family = Family(kind, name, help, buckets)
            self._families[name] = family
            return family
        if family.kind != kind:
            raise ValueError(
                f"metric {name} already registered as {family.kind}, "
                f"not {kind}")
        if help and not family.help:
            # A family can be touched help-less first (e.g. reading a
            # counter's total before anything incremented it); the first
            # real registration supplies the help text.
            family.help = help
        return family

    def counter(self, name: str, help: str = "") -> Family:
        return self._family("counter", name, help)

    def gauge(self, name: str, help: str = "") -> Family:
        return self._family("gauge", name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = SECONDS_BUCKETS) -> Family:
        family = self._family("histogram", name, help, buckets)
        if family.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name} already registered with buckets "
                f"{family.buckets}, not {tuple(buckets)}")
        return family

    # ---- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable state: deterministic key order, loss-free."""
        snapshot: Dict[str, object] = {"schema": SNAPSHOT_SCHEMA}
        snapshot.update((section, {}) for section in _SECTIONS.values())
        for name in sorted(self._families):
            family = self._families[name]
            snapshot[_SECTIONS[family.kind]][name] = family.entry()
        return snapshot

    def merge(self, delta: Union[Dict[str, object], "MetricsRegistry"]
              ) -> None:
        """Fold ``delta`` (a snapshot dict, or another registry) in.

        Counters and histogram buckets add; gauges take the delta's
        value (last write wins, so merge deltas in a deterministic
        order); histogram buckets follow :meth:`Family.fold`'s rule.
        """
        if isinstance(delta, MetricsRegistry):
            delta = delta.snapshot()
        schema = delta.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot merge metrics snapshot with schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})")
        for kind, section in _SECTIONS.items():
            for name, entry in delta.get(section, {}).items():
                self._family(kind, name, entry.get("help", ""),
                             entry.get("buckets")).fold(entry)

    # ---- exposition ------------------------------------------------------

    def write_prom(self, path: str) -> None:
        """Write the current snapshot as Prometheus text format v0.0.4."""
        with open(path, "w") as handle:
            handle.write(render_prometheus(self.snapshot()))


# ---------------------------------------------------------------------------
# ambient registry (mirrors the tracer's current/use/set trio)

_current: Optional[MetricsRegistry] = None


def current_registry() -> Optional[MetricsRegistry]:
    """The ambient registry: None — metrics off — unless one is installed."""
    return _current


def set_registry(registry: Optional[MetricsRegistry]
                 ) -> Optional[MetricsRegistry]:
    """Install ``registry`` (None: metrics off) as ambient; returns the
    previous one."""
    global _current
    previous = _current
    _current = registry
    return previous


@contextmanager
def use_registry(registry) -> Iterator[object]:
    """Install ``registry`` as the ambient registry for the scope."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


@contextmanager
def collect_metrics(path: Optional[str] = None,
                    registry: Optional[MetricsRegistry] = None
                    ) -> Iterator[MetricsRegistry]:
    """Collect everything in the scope; optionally write prom on exit.

    The metrics twin of :func:`repro.obs.trace`: yields the (fresh or
    given) registry, and ``path`` gets a Prometheus text snapshot when
    the scope closes.
    """
    active = registry if registry is not None else MetricsRegistry()
    with use_registry(active):
        yield active
    if path is not None:
        active.write_prom(path)


# ---------------------------------------------------------------------------
# Prometheus text exposition v0.0.4


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Render a snapshot dict as Prometheus text format v0.0.4."""
    lines: List[str] = []
    for kind, section in _SECTIONS.items():
        for name, entry in snapshot.get(section, {}).items():
            if entry.get("help"):
                lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {kind}")
            bounds = (entry.get("buckets", ()) if kind == "histogram"
                      else None)
            for key, sample in entry.get("samples", {}).items():
                pairs = _parse_label_key(key)
                if bounds is None:
                    lines.append(f"{name}{_prom_labels(pairs)} "
                                 f"{_format_value(sample)}")
                    continue
                cumulative = 0
                for bound, count in zip(bounds, sample.get("counts", [])):
                    cumulative += count
                    le = pairs + [("le", _format_value(bound))]
                    lines.append(
                        f"{name}_bucket{_prom_labels(le)} {cumulative}")
                count = sample.get("count", 0)
                le = pairs + [("le", "+Inf")]
                lines.append(f"{name}_bucket{_prom_labels(le)} {count}")
                lines.append(f"{name}_sum{_prom_labels(pairs)} "
                             f"{_format_value(sample.get('sum', 0))}")
                lines.append(f"{name}_count{_prom_labels(pairs)} {count}")
    return "\n".join(lines) + "\n" if lines else ""


def bridge_to_tracer(source, tracer, pid: int = COMPILE_PID) -> None:
    """Replay a snapshot (or registry) as Chrome-trace counter tracks.

    Every counter/gauge sample becomes one :meth:`Tracer.counter` event
    (one track per label set); histograms contribute their observation
    counts.  No-op under a disabled tracer or without a ``source``.
    """
    if source is None or not getattr(tracer, "enabled", False):
        return
    snapshot = source.snapshot() if hasattr(source, "snapshot") else source
    for kind, section in _SECTIONS.items():
        for name, entry in snapshot.get(section, {}).items():
            for key, sample in entry.get("samples", {}).items():
                if kind == "histogram":
                    tracer.counter(f"{name}:count",
                                   {key or "value": sample.get("count", 0)},
                                   pid=pid)
                else:
                    tracer.counter(name, {key or "value": sample}, pid=pid)


# ---------------------------------------------------------------------------
# layer instrumentation helpers (each checks for a registry itself, so
# call sites stay one function call when collection is off)

def record_pass_seconds(pass_name: str, seconds: float) -> None:
    """Compile layer: one wall-time observation for one pass execution."""
    registry = _current
    if registry is None:
        return
    registry.histogram(
        "repro_compile_pass_seconds",
        "Wall time of one compiler-pass execution, by pass",
        buckets=SECONDS_BUCKETS).labels(**{"pass": pass_name}
                                        ).observe(seconds)


def record_cache_event(event: str, source: str = "memory") -> None:
    """Compile layer: one compile-cache ``"hits"`` (from the ``source``
    tier), ``"misses"`` or ``"evictions"`` event.  No ratio is stored:
    readers derive hits / (hits + misses) from the two counters, which
    stay right across merges."""
    registry = _current
    if registry is None:
        return
    if event == "hits":
        registry.counter(
            "repro_compile_cache_hits_total",
            "Compile-cache hits, by layer the entry came from"
        ).labels(source=source).inc()
    elif event == "misses":
        registry.counter("repro_compile_cache_misses_total",
                         "Compile-cache misses").inc()
    else:
        registry.counter("repro_compile_cache_evictions_total",
                         "Compile-cache entries evicted as unusable").inc()


def record_cfm_decisions(decisions) -> None:
    """Compile layer: CFM melding decisions, counted by action."""
    registry = _current
    if registry is None or not decisions:
        return
    family = registry.counter(
        "repro_compile_cfm_decisions_total",
        "CFM melding decisions, by action (accepted = melded)")
    for decision in decisions:
        family.labels(action=decision.action).inc()


def record_validate_verdict(verdict: str, seconds: float) -> None:
    """Compile layer: one meld's translation-validation outcome."""
    registry = _current
    if registry is None:
        return
    registry.counter(
        "repro_compile_validate_total",
        "Meld translation validations, by verdict"
    ).labels(verdict=verdict).inc()
    registry.histogram(
        "repro_compile_validate_seconds",
        "Wall time of one meld's symbolic translation validation",
        buckets=SECONDS_BUCKETS).observe(seconds)


class RuntimeSink:
    """Pre-bound metric children for one kernel launch.

    Built once per launch (only when an ambient registry is installed),
    so the executors' per-block-entry cost is one bound-method call —
    :attr:`block` is the occupancy histogram's ``observe`` itself, and
    untraced, un-metered launches keep their ``obs is None`` fast path.
    """

    __slots__ = ("block", "_divergence", "_cycles", "_traps",
                 "_branches", "_divergent", "_barriers")

    def __init__(self, registry: MetricsRegistry, policy: str, executor: str,
                 warp_size: int) -> None:
        labels = {"policy": policy, "executor": executor}
        occupancy = registry.histogram(
            "repro_runtime_active_lanes",
            "Active lanes at block entry (linear 0..warp_size buckets)",
            buckets=occupancy_buckets(warp_size)).labels(**labels)
        #: the per-block-entry hot path: bound Histogram.observe
        self.block = occupancy.observe
        self._divergence = registry.histogram(
            "repro_runtime_warp_divergence_rate",
            "Per-warp divergent/total branch ratio, by policy",
            buckets=RATE_BUCKETS).labels(**labels)
        self._cycles = registry.histogram(
            "repro_runtime_launch_cycles",
            "Issue cycles per launch", buckets=CYCLES_BUCKETS).labels(**labels)
        self._traps = registry.counter(
            "repro_runtime_traps_total",
            "Launches aborted by a simulation trap").labels(**labels)
        self._branches = registry.counter(
            "repro_runtime_branches_total",
            "Branch instructions issued").labels(**labels)
        self._divergent = registry.counter(
            "repro_runtime_divergent_branches_total",
            "Branch issues whose warp diverged").labels(**labels)
        self._barriers = registry.counter(
            "repro_runtime_barriers_total",
            "Block-wide barriers issued").labels(**labels)

    def warp_done(self, metrics) -> None:
        """Fold one retired warp's counters in (per-warp distributions)."""
        if metrics.branches:
            self._divergence.observe(
                metrics.divergent_branches / metrics.branches)
            self._branches.inc(metrics.branches)
        if metrics.divergent_branches:
            self._divergent.inc(metrics.divergent_branches)
        if metrics.barriers:
            self._barriers.inc(metrics.barriers)

    def launch_done(self, metrics) -> None:
        self._cycles.observe(metrics.cycles)

    def trap(self) -> None:
        self._traps.inc()


def runtime_sink(registry, policy: str, executor: str,
                 warp_size: int) -> Optional[RuntimeSink]:
    """A :class:`RuntimeSink` for one launch, or None when disabled."""
    if registry is None:
        return None
    return RuntimeSink(registry, policy, executor, warp_size)
