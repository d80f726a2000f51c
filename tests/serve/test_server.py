"""End-to-end tests of the job server over real sockets.

Each test boots a :class:`~repro.serve.ServerThread` (a real asyncio
server with a real worker pool) and drives it with
:class:`~repro.serve.ServeClient`.  The headline contracts:

* a figure sweep served over the socket is **bit-identical** to a
  serial ``repro.evaluation`` run — rows and (deterministic) metrics —
  including when a worker is killed mid-run (chaos injection);
* admission is bounded and **typed**: quota and queue-full pressure
  reject with machine-readable codes (or block, per config), never
  stall silently;
* graceful shutdown drains in-flight jobs and folds retiring workers'
  metrics snapshots before the process exits.
"""

import json
import os
import socket
import time
import urllib.request

import pytest

from repro.compile_cache import CACHE_ENV_VAR
from repro.evaluation import SweepTraceCollector, run_sweep
from repro.kernels import ALL_BUILDERS
from repro.obs import MetricsRegistry, divergence_summary, use_registry
from repro.scheduler import worker as scheduler_worker
from repro.serve import (
    JobRejected,
    ServeClient,
    ServerConfig,
    ServerThread,
)

#: metric-name fragments whose values depend on wall time (mirrors
#: tests/evaluation/test_metrics_aggregation.py)
TIME_DEPENDENT = ("seconds", "per_second", "utilization")

SWEEP_KERNELS = ["SB1", "SB2"]
SWEEP_SIZES = [8, 16]
SWEEP_PARAMS = {"kernels": SWEEP_KERNELS, "block_sizes": SWEEP_SIZES,
                "grid_dim": 1, "seed": 7}

_SERIAL = {}


def strip_time_dependent(snapshot):
    snapshot = json.loads(json.dumps(snapshot))
    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {
            name: data for name, data in snapshot[kind].items()
            if not any(fragment in name for fragment in TIME_DEPENDENT)}
    return snapshot


#: every metric family a settled task was once counted or timed under
#: besides the scheduler's, and two families a reader derives instead
RETIRED = (
    "repro_eval_tasks_", "repro_eval_task_seconds", "repro_serve_tasks_total",
    "repro_runtime_launches_total", "repro_compile_cache_hit_ratio")


def without_sched(snapshot):
    """A serial sweep's snapshot less the ``repro_sched_*`` families: a
    served job's ``done.metrics`` has none (the pool is the server's)."""
    for kind in ("counters", "gauges", "histograms"):
        snapshot[kind] = {name: data for name, data in snapshot[kind].items()
                          if not name.startswith("repro_sched_")}
    return snapshot


def _counter(snapshot, name):
    family = snapshot["counters"].get(name, {"samples": {}})
    return sum(family["samples"].values())


def serial_sweep():
    """Serial-run reference rows + metrics snapshot (memoized)."""
    if not _SERIAL:
        registry = MetricsRegistry()
        with use_registry(registry):
            rows = run_sweep({name: ALL_BUILDERS[name]
                              for name in SWEEP_KERNELS},
                             {name: SWEEP_SIZES for name in SWEEP_KERNELS},
                             grid_dim=1, seed=7, workers=1)
        _SERIAL["rows"] = [{
            "kernel": r.kernel, "block_size": r.block_size,
            "speedup": r.speedup, "baseline_cycles": r.baseline_cycles,
            "cfm_cycles": r.cfm_cycles, "melds": r.melds,
        } for r in rows]
        _SERIAL["metrics"] = registry.snapshot()
    return _SERIAL["rows"], _SERIAL["metrics"]


@pytest.fixture(autouse=True)
def _clean_chaos():
    scheduler_worker._TEST_WORKER_CHAOS.clear()
    yield
    scheduler_worker._TEST_WORKER_CHAOS.clear()


class TestLifecycle:
    def test_hello_announces_limits(self):
        config = ServerConfig(workers=1, queue_limit=9, client_quota=5,
                              when_full="block")
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                assert client.hello["protocol"] == "repro.serve/1"
                assert client.hello["workers"] == 1
                assert client.hello["queue_limit"] == 9
                assert client.hello["client_quota"] == 5
                assert client.hello["when_full"] == "block"

    @pytest.mark.parametrize("field,value", [
        ("timeout", 0), ("timeout", -1.5), ("client_quota", 0),
        ("recycle_tasks", 0), ("recycle_rss_bytes", 0), ("retries", -1),
        ("queue_limit", 0)])
    def test_config_rejects_out_of_range_knobs(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})

    def test_config_none_still_means_off(self):
        ServerConfig(timeout=None, client_quota=None, recycle_tasks=None,
                     recycle_rss_bytes=None)

    def test_cli_reports_a_bad_knob_in_one_line(self, capsys, monkeypatch):
        from repro.serve import __main__ as cli

        def serve_forever(config):  # an accepted config would block here
            pytest.fail(f"serve started with {config}")

        monkeypatch.setattr(cli, "JobServer", serve_forever)
        assert cli.main(["serve", "--timeout", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "timeout" in err
        assert "Traceback" not in err

    def test_ping(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                assert client.ping()

    @pytest.mark.parametrize("host_value", [None, "host-cache"])
    def test_cache_dir_export_ends_with_the_server(self, host_value,
                                                   tmp_path, monkeypatch):
        # The export used to outlive the server: every later
        # CompileCache.from_env() in the host process wrote to the
        # stopped server's (possibly deleted) directory.
        if host_value is None:
            monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(CACHE_ENV_VAR, host_value)
        before = dict(os.environ)
        thread = ServerThread(ServerConfig(workers=1,
                                           cache_dir=str(tmp_path)))
        thread.start()
        try:
            assert os.environ[CACHE_ENV_VAR] == str(tmp_path)
        finally:
            thread.stop()
        assert dict(os.environ) == before

    def test_bad_line_is_typed_error_event(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                client._sock.sendall(b"this is not json\n")
                event = client._pump()
                assert event["event"] == "error"
                assert event["code"] == "bad-request"
                # connection survives a bad line
                assert client.ping()

    def test_deep_json_is_typed_error_event(self):
        # 5 000 bytes, well inside the stream limit, but nested past the
        # JSON decoder's recursion limit.
        thread = ServerThread(ServerConfig(workers=1))
        address = thread.start()
        try:
            with ServeClient(*address) as client:
                client._sock.sendall(b"[" * 5000 + b"\n")
                event = client._pump()
                assert event["event"] == "error"
                assert event["code"] == "bad-request"
                assert client.ping()  # the connection survives
            assert thread.server._admitted == 0
        finally:
            thread.stop()

    def test_unknown_op_is_typed_error_event(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                client._write({"op": "fandango"})
                event = client._pump()
                assert event["event"] == "error"
                assert event["code"] == "bad-request"

    def test_oversized_line_is_one_typed_error_then_close(self):
        # A line past asyncio's 64 KiB stream limit, sent while a job is
        # in flight on the same connection: exactly one bad-request, a
        # close, and the server's books balance once the job settles.
        thread = ServerThread(ServerConfig(workers=1))
        address = thread.start()
        server = thread.server
        submitters = []  # the connection's _Client, to read its quota
        submit = server._op_submit

        async def recording_submit(client, message):
            submitters.append(client)
            await submit(client, message)

        server._op_submit = recording_submit
        try:
            with ServeClient(*address) as client:
                client.submit("difftest", {"count": 1})
                client._sock.sendall(b"x" * (100 * 1024) + b"\n")
                events = []
                while line := client._file.readline():
                    events.append(json.loads(line))
            errors = [e for e in events if e["event"] == "error"]
            assert [e["code"] for e in errors] == ["bad-request"]
            with ServeClient(*address) as client:
                assert client.ping()
                deadline = time.monotonic() + 60
                while server._jobs:  # the orphaned job settles
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
                gauges = client.metrics()["snapshot"]["gauges"]
            assert server._admitted == 0
            assert submitters[0].inflight == 0
            assert sum(gauges["repro_serve_admitted_tasks"]
                       ["samples"].values()) == 0
            assert sum(gauges["repro_serve_clients"]["samples"].values()) == 1
        finally:
            thread.stop()


class TestServedSweepIdentity:
    def test_rows_bit_identical_to_serial(self):
        serial_rows, _ = serial_sweep()
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                done = client.run_job("sweep", SWEEP_PARAMS)
        assert done["ok"]
        assert done["rows"] == serial_rows
        assert done["errors"] == []

    def test_metrics_snapshot_identical_to_serial(self):
        _, serial_metrics = serial_sweep()
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                done = client.run_job("sweep", SWEEP_PARAMS, metrics=True)
        assert strip_time_dependent(done["metrics"]) \
            == without_sched(strip_time_dependent(serial_metrics))

    def test_identity_not_vacuous(self):
        _, serial_metrics = serial_sweep()
        stripped = strip_time_dependent(serial_metrics)
        assert stripped["counters"] and stripped["histograms"]

    def test_rows_identical_after_worker_killed_mid_run(self):
        """The acceptance-criteria chaos run: a worker dies after
        completing a task but before reporting; rows and deterministic
        metrics still match serial."""
        serial_rows, serial_metrics = serial_sweep()
        scheduler_worker._TEST_WORKER_CHAOS[1] = "exit-after"
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                done = client.run_job("sweep", SWEEP_PARAMS, metrics=True)
                server_metrics = client.metrics()["snapshot"]
        assert done["ok"]
        assert done["rows"] == serial_rows
        assert sum(done["attempts"]) == len(serial_rows) + 1
        # the retry itself is (correctly) visible in exactly one place
        assert _counter(server_metrics,
                        "repro_sched_tasks_retried_total") == 1
        assert strip_time_dependent(done["metrics"]) \
            == without_sched(strip_time_dependent(serial_metrics))

    def test_traced_sweep_matches_run_sweep_trace(self):
        """A served traced sweep merges its tasks' events the way the
        evaluation harness does: each task on its own pids, with
        ``<kernel>-<block>:`` process names.  Concatenating them put
        every launch on the same two pids (2 launches, not 4)."""
        kernels = ["SB1", "SB2"]
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                done = client.run_job("sweep", {
                    "kernels": kernels, "block_sizes": [32], "trace": True})
        assert done["ok"]
        launches = divergence_summary(done["trace"])
        assert len(launches) == 4
        assert len({launch.pid for launch in launches}) == 4
        assert sorted(launch.name.split(":")[0] for launch in launches) \
            == ["SB1-32", "SB1-32", "SB2-32", "SB2-32"]

        # The served job always collects metrics; so does this sweep,
        # so both traces carry the same counter tracks.
        collector = SweepTraceCollector(policy="all")
        with use_registry(MetricsRegistry()):
            run_sweep({name: ALL_BUILDERS[name] for name in kernels},
                      {name: [32] for name in kernels}, trace=collector)

        def untimed(events):
            """Events minus wall-clock values (a pass span's seconds)."""
            stripped = []
            for event in events:
                event = {k: v for k, v in event.items()
                         if k not in ("ts", "dur")}
                event["args"] = {k: v for k, v in event.get("args", {}).items()
                                 if k != "seconds"}
                stripped.append(event)
            return stripped

        assert untimed(done["trace"]) == untimed(collector.events)

    def test_streamed_tasks_cover_all_positions(self):
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                events = []
                done = client.run_job("sweep", SWEEP_PARAMS, stream=True,
                                      on_task=events.append)
        positions = [e["position"] for e in events]
        assert sorted(positions) == list(range(len(done["rows"])))
        by_position = {e["position"]: e["row"] for e in events}
        assert [by_position[i] for i in range(len(done["rows"]))] \
            == done["rows"]


class TestAdmission:
    def test_unknown_job_rejected(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                with pytest.raises(JobRejected) as info:
                    client.run_job("bake-bread", {})
                assert info.value.code == "unknown-job"
                assert client.ping()  # connection unharmed

    def test_invalid_params_rejected(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                with pytest.raises(JobRejected) as info:
                    client.run_job("sweep", {"kernels": ["NOPE"]})
                assert info.value.code == "invalid-params"

    def test_malformed_params_each_get_one_rejection_then_pong(self):
        # A scalar block size used to raise TypeError out of the submit
        # and close the connection unanswered; a 10**9 count blocked
        # the event loop building its seed list.
        cases = [
            ("difftest", {"count": 10**9}),
            ("sweep", {"kernels": ["SB1"], "block_sizes": {"SB1": 32}}),
            ("sweep", {"kernels": ["SB1"], "block_sizes": {"SB1": None}}),
            ("difftest", {"seeds": [True, False]}),
            ("sweep", {"kernels": ["SB1"], "trace": "no"}),
        ]
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address, timeout=30) as client:
                for kind, params in cases:
                    with pytest.raises(JobRejected) as info:
                        client.run_job(kind, params)
                    assert info.value.code == "invalid-params", kind
                assert client.ping()

    @pytest.mark.parametrize("flag", ["stream", "metrics"])
    def test_non_bool_submit_flag_is_bad_request(self, flag):
        # Read through bool(), "no" streamed and "false" sent metrics.
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                for value in ("no", 0, 1, None, []):
                    client._write({"op": "submit", "id": "flagged",
                                   "job": {"kind": "difftest",
                                           "params": {"count": 1}},
                                   flag: value})
                    with pytest.raises(JobRejected) as info:
                        client.wait("flagged")
                    assert info.value.code == "bad-request", value
                    assert flag in str(info.value)
                assert client.ping()
                assert client.run_job("difftest", {"count": 1},
                                      **{flag: False})["ok"]

    def test_quota_exceeded_is_typed_not_a_stall(self):
        config = ServerConfig(workers=1, client_quota=3)
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                start = time.monotonic()
                with pytest.raises(JobRejected) as info:
                    client.run_job("difftest", {"count": 4})
                assert info.value.code == "quota-exceeded"
                assert time.monotonic() - start < 5
                # within quota still flows
                done = client.run_job("difftest", {"count": 2})
                assert done["ok"]

    def test_queue_full_rejects_when_configured(self):
        config = ServerConfig(workers=1, queue_limit=3, when_full="reject")
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                with pytest.raises(JobRejected) as info:
                    client.run_job("difftest", {"count": 4})
                assert info.value.code == "queue-full"

    def test_queue_full_blocks_when_configured(self):
        """when_full=block parks the submit until capacity frees; both
        jobs complete, nothing is lost."""
        config = ServerConfig(workers=1, queue_limit=2, when_full="block")
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                first = client.submit("difftest", {"count": 2})
                second = client.submit("difftest", {"count": 2})
                done_first = client.wait(first)
                done_second = client.wait(second)
        assert done_first["ok"] and done_second["ok"]
        assert [r["seed"] for r in done_first["rows"]] == [0, 1]
        assert [r["seed"] for r in done_second["rows"]] == [0, 1]


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                job = client.submit("difftest", {"count": 4})
                client.shutdown("graceful")
                with pytest.raises(JobRejected) as info:
                    client.run_job("difftest", {"count": 1})
                assert info.value.code == "shutting-down"
                done = client.wait(job)
        assert done["ok"]
        assert [r["seed"] for r in done["rows"]] == [0, 1, 2, 3]

    def test_artifacts_written_at_shutdown(self, tmp_path):
        trace_file = str(tmp_path / "serve.trace.json")
        prom_file = str(tmp_path / "serve.prom")
        config = ServerConfig(workers=1, trace_file=trace_file,
                              prom_file=prom_file)
        server = ServerThread(config)
        address = server.start()
        try:
            with ServeClient(*address) as client:
                assert client.run_job("difftest", {"count": 2})["ok"]
        finally:
            server.stop()
        trace = json.load(open(trace_file))
        names = [e.get("name", "") for e in trace["traceEvents"]]
        assert any(name.startswith("job:") for name in names)
        prom = open(prom_file).read()
        assert "repro_serve_jobs_total" in prom
        assert "repro_sched_tasks_completed_total" in prom

    def test_recycled_workers_flush_into_server_metrics(self):
        config = ServerConfig(workers=1, recycle_tasks=1)
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                assert client.run_job("difftest", {"count": 3})["ok"]
                snapshot = client.metrics()["snapshot"]
        families = snapshot["counters"]
        flushed = families.get("repro_sched_worker_tasks_total", {})
        assert sum(flushed.get("samples", {}).values()) >= 2
        recycled = families.get("repro_sched_workers_recycled_total", {})
        assert sum(recycled.get("samples", {}).values()) >= 2


class TestObservability:
    def test_metrics_op_merges_all_layers(self):
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                assert client.run_job("difftest", {"count": 2})["ok"]
                event = client.metrics()
        prom = event["prom"]
        assert "repro_serve_jobs_total" in prom
        assert "repro_sched_tasks_completed_total" in prom
        assert _counter(event["snapshot"],
                        "repro_sched_tasks_completed_total") == 2

    def test_each_task_is_counted_once(self):
        """Three job kinds, five tasks: one count and one timing each,
        from the scheduler, and no second family saying the same."""
        with ServerThread(ServerConfig(workers=2)) as address:
            with ServeClient(*address) as client:
                for kind, params in (
                        ("sweep", {"kernels": ["SB1"], "block_sizes": [8, 16],
                                   "grid_dim": 1}),
                        ("launch", {"kernels": ["SB1"], "block_size": 16,
                                    "grid_dim": 1}),
                        ("difftest", {"count": 2})):
                    assert client.run_job(kind, params)["ok"], kind
                event = client.metrics()
        snapshot = event["snapshot"]
        assert _counter(snapshot, "repro_sched_tasks_completed_total") == 5
        seconds = snapshot["histograms"]["repro_sched_task_seconds"]
        assert sum(s["count"] for s in seconds["samples"].values()) == 5
        names = [name for kind in ("counters", "gauges", "histograms")
                 for name in snapshot[kind]]
        for retired in RETIRED:
            assert not [n for n in names if n.startswith(retired)], retired
            assert retired not in event["prom"], retired

    def test_cache_hit_ratio_is_derived_from_the_counters(self, tmp_path,
                                                          monkeypatch):
        # A ratio gauge merged last-write-wins read the last task's
        # ratio (1.0 after the SB1 hits, then 0.0 after the SB2 miss).
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        config = ServerConfig(workers=1, cache_dir=str(tmp_path / "cache"))
        with ServerThread(config) as address:
            with ServeClient(*address) as client:
                for kernel in ("SB1", "SB1", "SB1", "SB2"):
                    assert client.run_job("launch", {
                        "kernels": [kernel], "block_size": 16,
                        "grid_dim": 1})["ok"]
                snapshot = client.metrics()["snapshot"]
        assert _counter(snapshot, "repro_compile_cache_hits_total") == 2
        assert _counter(snapshot, "repro_compile_cache_misses_total") == 2
        assert not [name for name in snapshot["gauges"]
                    if "ratio" in name]

    def test_prometheus_http_listener(self):
        server = ServerThread(ServerConfig(workers=1, prom_port=0))
        address = server.start()
        try:
            with ServeClient(*address) as client:
                assert client.run_job("difftest", {"count": 1})["ok"]
            host, port = server.server.prom_address
            # a header line past the stream limit: closed, no answer
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /" + b"x" * (100 * 1024) + b"\r\n")
                assert sock.makefile("rb").read() == b""
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10).read().decode()
        finally:
            server.stop()
        assert "repro_serve_jobs_total" in body
        assert body.startswith("# ") or "repro_" in body.splitlines()[0]
