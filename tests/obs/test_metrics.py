"""Unit tests for the aggregate-metrics registry (repro.obs.metrics).

Covers the family/child model, snapshot/merge round-trips (the
cross-process aggregation contract), the histogram bucket-mismatch rule
mirroring ``repro.simt.Metrics.merge``'s warp-size rule, the Prometheus
text exposition, and the ambient registry's "None means metrics off"
discipline.
"""

import json

import pytest

from repro.obs import (
    CYCLES_BUCKETS,
    MetricsRegistry,
    RATE_BUCKETS,
    SECONDS_BUCKETS,
    SNAPSHOT_SCHEMA,
    bridge_to_tracer,
    collect_metrics,
    current_registry,
    exponential_buckets,
    linear_buckets,
    occupancy_buckets,
    record_cache_event,
    record_cfm_decisions,
    record_pass_seconds,
    record_validate_verdict,
    render_prometheus,
    runtime_sink,
    set_registry,
    use_registry,
    Tracer,
)


class TestBuckets:
    def test_exponential_buckets_grow_geometrically(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_linear_buckets_are_evenly_spaced(self):
        assert linear_buckets(4.0, 4.0, 3) == (4.0, 8.0, 12.0)

    def test_occupancy_buckets_cover_zero_to_warp_size(self):
        buckets = occupancy_buckets(32)
        assert len(buckets) == 8
        assert buckets[-1] == 32.0

    def test_occupancy_buckets_for_tiny_warps(self):
        assert occupancy_buckets(4) == (1.0, 2.0, 3.0, 4.0)

    def test_standard_buckets_are_sane(self):
        for bounds in (SECONDS_BUCKETS, CYCLES_BUCKETS, RATE_BUCKETS):
            assert list(bounds) == sorted(set(bounds))

    def test_invalid_bucket_specs_raise(self):
        with pytest.raises(ValueError):
            exponential_buckets(0, 2, 3)
        with pytest.raises(ValueError):
            linear_buckets(0, -1, 3)


class TestCountersAndGauges:
    def test_counter_inc_and_total(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_total", "help text")
        family.inc()
        family.labels(arm="cfm").inc(3)
        assert family.total() == 4
        assert family.labels(arm="cfm").value == 3

    def test_counters_refuse_to_go_down(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_counters_cannot_be_set_or_decremented(self):
        child = MetricsRegistry().counter("c").labels()
        with pytest.raises(ValueError, match="only go up"):
            child.set(0)
        with pytest.raises(ValueError, match="only go up"):
            child.dec()

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_ratio")
        gauge.set(0.5)
        gauge.set(0.25)
        assert gauge.labels().value == 0.25

    def test_same_name_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_late_help_registration_sticks(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x", "the real help")
        assert registry.snapshot()["counters"]["x"]["help"] == "the real help"

    def test_forbidden_label_characters_raise(self):
        family = MetricsRegistry().counter("x")
        with pytest.raises(ValueError, match="must avoid"):
            family.labels(bad="a=b")
        with pytest.raises(ValueError, match="must avoid"):
            family.labels(bad="a,b")


class TestHistograms:
    def test_observations_land_in_the_right_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        child = hist.labels()
        assert child.counts == [1, 1, 1, 1]  # last slot = +Inf overflow
        assert child.count == 4
        assert child.sum == 105.0

    def test_bucket_redefinition_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_unsorted_buckets_raise(self):
        with pytest.raises(ValueError, match="increasing"):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))


class TestSnapshotMerge:
    def _loaded_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "c help").labels(arm="o3").inc(2)
        registry.gauge("repro_g", "g help").set(0.75)
        registry.histogram("repro_h_seconds", "h help",
                           buckets=(1.0, 2.0)).observe(1.5)
        return registry

    def test_snapshot_is_json_serializable_and_schemad(self):
        snapshot = self._loaded_registry().snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_adds_counters_and_histograms(self):
        a = self._loaded_registry()
        a.merge(self._loaded_registry().snapshot())
        assert a.counter("repro_c_total").total() == 4
        child = a.histogram("repro_h_seconds",
                            buckets=(1.0, 2.0)).labels()
        assert child.count == 2
        assert child.sum == 3.0

    def test_merge_is_commutative_for_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        delta1 = self._loaded_registry().snapshot()
        delta2 = MetricsRegistry()
        delta2.counter("repro_c_total").labels(arm="cfm").inc(5)
        delta2.histogram("repro_h_seconds", buckets=(1.0, 2.0)).observe(0.25)
        delta2 = delta2.snapshot()

        a.merge(delta1)
        a.merge(delta2)
        b.merge(delta2)
        b.merge(delta1)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        assert snap_a["counters"] == snap_b["counters"]
        assert snap_a["histograms"] == snap_b["histograms"]

    def test_merge_registry_object_directly(self):
        a = MetricsRegistry()
        a.merge(self._loaded_registry())
        assert a.counter("repro_c_total").total() == 2

    def test_merge_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            MetricsRegistry().merge({"schema": "repro.obs.metrics/99"})

    def test_merge_rejects_malformed_sample_keys(self):
        for key in ("a=b=c", "a", 'a="b"', "a=1,,b=2"):
            delta = {"schema": SNAPSHOT_SCHEMA,
                     "counters": {"c": {"help": "", "samples": {key: 1}}}}
            with pytest.raises(ValueError, match="must avoid"):
                MetricsRegistry().merge(delta)

    def test_merge_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("repro_c_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.merge(self._loaded_registry().snapshot())

    def test_empty_side_adopts_other_buckets(self):
        # Mirrors Metrics.merge: a fresh side takes the counted side's
        # width instead of raising.
        registry = MetricsRegistry()
        registry.histogram("repro_h_seconds", buckets=(9.0, 99.0))
        registry.merge(self._loaded_registry().snapshot())
        family = registry.histogram("repro_h_seconds", buckets=(1.0, 2.0))
        assert family.buckets == (1.0, 2.0)
        assert family.total() == 1

    def test_two_counted_sides_with_different_buckets_raise(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h_seconds",
                           buckets=(9.0, 99.0)).observe(5.0)
        with pytest.raises(ValueError, match="cannot merge histogram"):
            registry.merge(self._loaded_registry().snapshot())

    def test_empty_incoming_side_with_different_buckets_is_ignored(self):
        registry = self._loaded_registry()
        other = MetricsRegistry()
        other.histogram("repro_h_seconds", buckets=(9.0, 99.0))
        registry.merge(other.snapshot())
        assert registry.histogram("repro_h_seconds",
                                  buckets=(1.0, 2.0)).total() == 1


class TestPrometheusExposition:
    def test_counter_gauge_histogram_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total", "counts things"
                         ).labels(arm="o3").inc(2)
        registry.gauge("repro_g", "a ratio").set(0.5)
        registry.histogram("repro_h", "a histogram",
                           buckets=(1.0, 2.0)).observe(1.5)
        text = render_prometheus(registry.snapshot())
        assert "# HELP repro_c_total counts things" in text
        assert "# TYPE repro_c_total counter" in text
        assert 'repro_c_total{arm="o3"} 2' in text
        assert "# TYPE repro_g gauge" in text
        assert "repro_g 0.5" in text
        assert "# TYPE repro_h histogram" in text
        assert 'repro_h_bucket{le="1"} 0' in text
        assert 'repro_h_bucket{le="2"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 1' in text
        assert "repro_h_sum 1.5" in text
        assert "repro_h_count 1" in text

    def test_bucket_counts_are_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 3.0))
        for value in (0.5, 1.5, 2.5):
            hist.observe(value)
        text = render_prometheus(registry.snapshot())
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="3"} 3' in text

    def test_render_from_raw_snapshot_matches_registry_render(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = tmp_path / "metrics.prom"
        registry.write_prom(str(path))
        assert render_prometheus(registry.snapshot()) == path.read_text()

    def test_write_prom(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c", "h").inc()
        path = tmp_path / "metrics.prom"
        registry.write_prom(str(path))
        assert "# TYPE c counter" in path.read_text()


class TestAmbientRegistry:
    def test_default_is_null_registry(self):
        assert current_registry() is None

    def test_null_registry_is_inert_and_allocation_free(self):
        # With no registry installed every metrics site returns before
        # building a family or a label set.
        record_pass_seconds("dce", 0.1)
        record_cache_event("hits")
        record_cfm_decisions([object()])
        record_validate_verdict("equivalent", 0.1)
        assert runtime_sink(None, "ipdom", "fast", 32) is None
        tracer = Tracer()
        bridge_to_tracer(None, tracer)
        assert tracer.events == []
        assert current_registry() is None

    def test_use_registry_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            assert current_registry() is registry
        assert current_registry() is None

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        assert previous is None
        set_registry(None)
        assert current_registry() is None

    def test_collect_metrics_writes_prom_on_exit(self, tmp_path):
        path = tmp_path / "out.prom"
        with collect_metrics(str(path)) as registry:
            registry.counter("repro_x_total", "x").inc()
        assert "repro_x_total 1" in path.read_text()


class TestBridgeToTracer:
    def test_snapshot_becomes_counter_tracks(self):
        registry = MetricsRegistry()
        registry.counter("repro_c_total").labels(arm="o3").inc(2)
        registry.histogram("repro_h", buckets=(1.0,)).observe(0.5)
        tracer = Tracer()
        bridge_to_tracer(registry, tracer)
        names = [e["name"] for e in tracer.events if e.get("ph") == "C"]
        assert "repro_c_total" in names
        assert "repro_h:count" in names

    def test_noop_under_disabled_tracer(self):
        from repro.obs import NULL_TRACER
        registry = MetricsRegistry()
        registry.counter("c").inc()
        bridge_to_tracer(registry, NULL_TRACER)  # must not raise
