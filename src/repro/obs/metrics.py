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

Snapshots are plain JSON-able dicts (:meth:`MetricsRegistry.snapshot`)
and merge additively (:meth:`MetricsRegistry.merge`), which is what
makes **cross-process aggregation** work: every scheduler worker
returns its task's delta on the task's ``TaskOutcome`` and
``fold_sweep_metrics`` merges the deltas — in task order — into one
sweep-level registry.
Histogram merges reject mismatched bucket boundaries exactly the way
:meth:`repro.simt.Metrics.merge` rejects mismatched warp widths: a side
that has not observed anything yet adopts the other's buckets; two
counted sides with different buckets raise :class:`ValueError`.

Three exposition paths:

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


def _check_labels(labels: Dict[str, object]) -> None:
    for name, value in labels.items():
        text = str(value)
        for bad in _FORBIDDEN_IN_LABELS:
            if bad in name or bad in text:
                raise ValueError(
                    f"label {name}={text!r} contains {bad!r}; metric label "
                    f"names/values must avoid {_FORBIDDEN_IN_LABELS}")


# ---------------------------------------------------------------------------
# children (the things instrumentation sites actually touch)


class Counter:
    """A monotonically-increasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time sample (last write wins, also across merges)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        self.value -= amount


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


# ---------------------------------------------------------------------------
# families (name + help + labeled children)


class _Family:
    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._children: Dict[str, object] = {}

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels):
        """The child for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            _check_labels(labels)
            child = self._new_child()
            self._children[key] = child
        return child

    def samples(self) -> Dict[str, object]:
        """``label key -> child``, sorted (snapshot order)."""
        return {key: self._children[key] for key in sorted(self._children)}


class CounterFamily(_Family):
    kind = "counter"

    def _new_child(self) -> Counter:
        return Counter()

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.labels().inc(amount)

    def total(self) -> Union[int, float]:
        """Sum over every label set (the un-labeled view of the family)."""
        return sum(child.value for child in self._children.values())


class GaugeFamily(_Family):
    kind = "gauge"

    def _new_child(self) -> Gauge:
        return Gauge()

    def set(self, value: Union[int, float]) -> None:
        self.labels().set(value)


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = SECONDS_BUCKETS) -> None:
        super().__init__(name, help)
        self.buckets: Tuple[float, ...] = tuple(buckets)
        if not self.buckets:
            raise ValueError(f"histogram {name}: needs at least one bucket")
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(
                f"histogram {name}: bucket bounds must be strictly "
                f"increasing, got {self.buckets}")

    def _new_child(self) -> Histogram:
        return Histogram(self.buckets)

    def observe(self, value: Union[int, float]) -> None:
        self.labels().observe(value)

    def total_count(self) -> int:
        return sum(child.count for child in self._children.values())

    def _rebucket(self, buckets: Sequence[float]) -> None:
        """Adopt new bounds; only legal while nothing has been observed
        (existing children are re-created empty at the new width)."""
        assert self.total_count() == 0
        self.buckets = tuple(buckets)
        self._children = {key: Histogram(self.buckets)
                          for key in self._children}


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
        self._families: Dict[str, _Family] = {}

    # ---- registration ----------------------------------------------------

    def _family(self, cls, name: str, help: str, **kwargs) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name} already registered as {family.kind}, "
                f"not {cls.kind}")
        if help and not family.help:
            # A family can be touched help-less first (e.g. reading a
            # counter's total before anything incremented it); the first
            # real registration supplies the help text.
            family.help = help
        return family

    def counter(self, name: str, help: str = "") -> CounterFamily:
        return self._family(CounterFamily, name, help)

    def gauge(self, name: str, help: str = "") -> GaugeFamily:
        return self._family(GaugeFamily, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = SECONDS_BUCKETS
                  ) -> HistogramFamily:
        family = self._family(HistogramFamily, name, help, buckets=buckets)
        if family.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name} already registered with buckets "
                f"{family.buckets}, not {tuple(buckets)}")
        return family

    def families(self) -> List[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    # ---- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable state: deterministic key order, loss-free."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for family in self.families():
            if isinstance(family, CounterFamily):
                counters[family.name] = {
                    "help": family.help,
                    "samples": {key: child.value
                                for key, child in family.samples().items()},
                }
            elif isinstance(family, GaugeFamily):
                gauges[family.name] = {
                    "help": family.help,
                    "samples": {key: child.value
                                for key, child in family.samples().items()},
                }
            else:
                histograms[family.name] = {
                    "help": family.help,
                    "buckets": list(family.buckets),
                    "samples": {
                        key: {"counts": list(child.counts),
                              "sum": child.sum, "count": child.count}
                        for key, child in family.samples().items()},
                }
        return {"schema": SNAPSHOT_SCHEMA, "counters": counters,
                "gauges": gauges, "histograms": histograms}

    def merge(self, delta: Union[Dict[str, object], "MetricsRegistry"]
              ) -> None:
        """Fold ``delta`` (a snapshot dict, or another registry) in.

        Counters and histogram buckets add; gauges take the delta's
        value (last write wins, so merge deltas in a deterministic
        order).  Histogram bucket-boundary mismatches follow
        :meth:`repro.simt.Metrics.merge`'s warp-size rule: an empty side
        adopts the other's buckets, two counted sides raise.
        """
        if isinstance(delta, MetricsRegistry):
            delta = delta.snapshot()
        schema = delta.get("schema")
        if schema != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"cannot merge metrics snapshot with schema {schema!r} "
                f"(expected {SNAPSHOT_SCHEMA!r})")
        for name, data in delta.get("counters", {}).items():
            family = self.counter(name, data.get("help", ""))
            for key, value in data.get("samples", {}).items():
                family.labels(**dict(_parse_label_key(key))).value += value
        for name, data in delta.get("gauges", {}).items():
            family = self.gauge(name, data.get("help", ""))
            for key, value in data.get("samples", {}).items():
                family.labels(**dict(_parse_label_key(key))).value = value
        for name, data in delta.get("histograms", {}).items():
            bounds = tuple(data.get("buckets", ()))
            samples = data.get("samples", {})
            incoming = sum(s.get("count", 0) for s in samples.values())
            family = self._families.get(name)
            if family is None:
                family = self.histogram(name, data.get("help", ""),
                                        buckets=bounds)
            elif not isinstance(family, HistogramFamily):
                raise ValueError(
                    f"metric {name} already registered as {family.kind}, "
                    f"not histogram")
            elif family.buckets != bounds:
                if family.total_count() == 0:
                    family._rebucket(bounds)
                elif incoming != 0:
                    raise ValueError(
                        f"cannot merge histogram {name} with buckets "
                        f"{bounds} into buckets {family.buckets}: bucket "
                        f"sums would be meaningless")
                else:
                    continue  # nothing observed on the incoming side
            if data.get("help") and not family.help:
                family.help = data["help"]
            for key, sample in samples.items():
                child = family.labels(**dict(_parse_label_key(key)))
                counts = sample.get("counts", [])
                if len(counts) != len(child.counts):
                    raise ValueError(
                        f"histogram {name}: sample has {len(counts)} "
                        f"buckets, expected {len(child.counts)}")
                for i, count in enumerate(counts):
                    child.counts[i] += count
                child.sum += sample.get("sum", 0)
                child.count += sample.get("count", 0)

    # ---- exposition ------------------------------------------------------

    def render_prom(self) -> str:
        return render_prometheus(self.snapshot())

    def write_prom(self, path: str) -> None:
        """Write the current snapshot as Prometheus text format v0.0.4."""
        with open(path, "w") as handle:
            handle.write(self.render_prom())


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

    def header(name: str, kind: str, help: str) -> None:
        if help:
            lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")

    for kind in ("counters", "gauges"):
        prom_kind = "counter" if kind == "counters" else "gauge"
        for name, data in snapshot.get(kind, {}).items():
            header(name, prom_kind, data.get("help", ""))
            for key, value in data.get("samples", {}).items():
                lines.append(f"{name}{_prom_labels(_parse_label_key(key))} "
                             f"{_format_value(value)}")
    for name, data in snapshot.get("histograms", {}).items():
        header(name, "histogram", data.get("help", ""))
        bounds = list(data.get("buckets", []))
        for key, sample in data.get("samples", {}).items():
            pairs = _parse_label_key(key)
            cumulative = 0
            counts = sample.get("counts", [])
            for bound, count in zip(bounds, counts):
                cumulative += count
                le = pairs + [("le", _format_value(bound))]
                lines.append(f"{name}_bucket{_prom_labels(le)} {cumulative}")
            le = pairs + [("le", "+Inf")]
            lines.append(f"{name}_bucket{_prom_labels(le)} "
                         f"{sample.get('count', 0)}")
            lines.append(f"{name}_sum{_prom_labels(pairs)} "
                         f"{_format_value(sample.get('sum', 0))}")
            lines.append(f"{name}_count{_prom_labels(pairs)} "
                         f"{sample.get('count', 0)}")
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
    for kind in ("counters", "gauges"):
        for name, data in snapshot.get(kind, {}).items():
            for key, value in data.get("samples", {}).items():
                tracer.counter(name, {key or "value": value}, pid=pid)
    for name, data in snapshot.get("histograms", {}).items():
        for key, sample in data.get("samples", {}).items():
            tracer.counter(f"{name}:count",
                           {key or "value": sample.get("count", 0)}, pid=pid)


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
