"""Job-spec tests: param validation, task expansion, row shapes.

Task functions mostly run inline here (no server, no pool); the
compile-cache tests at the bottom drive ``launch`` and ``compile`` jobs
through a :class:`~repro.serve.ServerThread` with a cache directory,
since the cache crosses jobs.  The rest of the wire and pool behavior
lives in ``test_server.py``.
"""

import pytest

from repro.compile_cache import CACHE_ENV_VAR
from repro.scheduler import TaskContext
from repro.serve import (
    ProtocolError,
    ServeClient,
    ServerConfig,
    ServerThread,
    make_job,
)
from repro.serve.jobs import (
    MAX_BLOCK_SIZE,
    MAX_GRID_DIM,
    MAX_TASKS_PER_JOB,
    JobParamError,
)

#: a ~40 KB submit line whose pair list would hold 16 million entries
HUGE_PAIRS = {"kernels": ["SB1"] * 4000, "block_sizes": [1] * 4000}


def _served_configs(monkeypatch, argv):
    """The :class:`ServerConfig` ``python -m repro.serve serve *argv``
    builds, without serving."""
    from repro.serve import __main__ as cli
    configs = []

    class Recorder:
        address = None

        def __init__(self, config):
            configs.append(config)

        async def run(self, ready=None):
            pass

    monkeypatch.setattr(cli, "JobServer", Recorder)
    assert cli.main(["serve", *argv]) == 0
    return configs


def _ctx(index=0, attempt=1):
    return TaskContext(index=index, attempt=attempt, worker=0)


class TestMakeJob:
    def test_unknown_kind(self):
        with pytest.raises(ProtocolError) as info:
            make_job("bake-bread", {})
        assert info.value.code == "unknown-job"

    def test_invalid_params_are_typed(self):
        with pytest.raises(ProtocolError) as info:
            make_job("sweep", {"kernels": ["NOPE"]})
        assert info.value.code == "invalid-params"

    def test_kernels_required(self):
        with pytest.raises(JobParamError):
            make_job("sweep", {})

    def test_param_type_checked(self):
        with pytest.raises(JobParamError):
            make_job("sweep", {"kernels": ["SB1"], "seed": "tuesday"})

    def test_job_size_cap(self):
        with pytest.raises(JobParamError) as info:
            make_job("difftest", {"count": MAX_TASKS_PER_JOB + 1})
        assert "cap" in str(info.value)

    def test_huge_count_rejected_before_expansion(self):
        # {"count": 5_000_000} used to build the whole seed list (7.8 s,
        # 191 MiB) before the cap rejected it; 10**9 blocked the loop.
        # A sweep's (kernel, block size) and a lint job's (kernel,
        # level) pair lists were likewise built before the cap (5.8 s
        # and ~1.1 GiB for a 4000 x 4000 sweep).
        import tracemalloc
        from repro.lint.api import LINT_LEVELS
        cases = [
            ("difftest", {"count": 5_000_000}),
            ("sweep", HUGE_PAIRS),
            ("lint", {"kernels": HUGE_PAIRS["kernels"],
                      "levels": [LINT_LEVELS[0]] * 4000}),
        ]
        for kind, params in cases:
            tracemalloc.start()
            try:
                with pytest.raises(JobParamError) as info:
                    make_job(kind, params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert "cap" in str(info.value), kind
            assert peak < 1 << 20, kind

    @pytest.mark.parametrize("kind, params", [
        ("difftest", {"count": 10**9}),
        ("sweep", {"kernels": ["SB1"], "block_sizes": {"SB1": 32}}),
        ("sweep", {"kernels": ["SB1"], "block_sizes": {"SB1": None}}),
        ("difftest", {"seeds": [True, False]}),
        ("sweep", {"kernels": ["SB1"], "trace": "no"}),
        ("launch", {"kernels": ["SB1"], "block_size": 10**9,
                    "grid_dim": 10**9}),
        ("launch", {"kernels": ["SB1"], "block_size": MAX_BLOCK_SIZE + 1}),
        ("launch", {"kernels": ["SB1"], "grid_dim": MAX_GRID_DIM + 1}),
        ("compile", {"kernels": ["SB1"], "block_size": MAX_BLOCK_SIZE + 1}),
        ("lint", {"kernels": ["SB1"], "grid_dim": MAX_GRID_DIM + 1}),
        ("sweep", {"kernels": ["SB1"], "block_sizes": [32, 2048]}),
        ("sweep", {"kernels": ["SB1"], "grid_dim": MAX_GRID_DIM + 1}),
        ("difftest", {"block_dim": MAX_BLOCK_SIZE + 1}),
        ("sweep", {"kernels": ["SB1"], "block_size": [16]}),
        ("compile", {"kernels": ["SB1"], "levels": ["o3"]}),
        ("launch", {"kernels": ["SB1"], "blocksize": 16, "grid": 1}),
        ("difftest", {"seeds": [1, 2], "count": 5}),
        ("lint", {"kernels": ["SB1"], "level": "o3"}),
    ], ids=["huge-count", "scalar-sizes", "null-sizes", "bool-seeds",
            "string-trace", "huge-launch", "launch-block-size",
            "launch-grid-dim", "compile-block-size", "lint-grid-dim",
            "sweep-block-sizes", "sweep-grid-dim", "difftest-block-dim",
            "sweep-unread", "compile-unread", "launch-unread",
            "difftest-unread", "lint-unread"])
    def test_malformed_params_are_typed(self, kind, params):
        with pytest.raises(JobParamError) as info:
            make_job(kind, params)
        assert info.value.code == "invalid-params"

    def test_geometry_limits_are_inclusive(self):
        job = make_job("launch", {"kernels": ["SB1"],
                                  "block_size": MAX_BLOCK_SIZE,
                                  "grid_dim": MAX_GRID_DIM})
        assert (job.block_size, job.grid_dim) == (MAX_BLOCK_SIZE,
                                                  MAX_GRID_DIM)

    def test_bool_trace_still_accepted(self):
        assert make_job("sweep", {"kernels": ["SB1"], "trace": True}).trace
        assert not make_job("sweep", {"kernels": ["SB1"]}).trace

    def test_zero_tasks_rejected(self):
        with pytest.raises(JobParamError):
            make_job("difftest", {"seeds": []})

    @pytest.mark.parametrize("kind, params", [
        ("launch", {"block_size": 0}),
        ("launch", {"block_size": -32}),
        ("launch", {"block_size": True}),
        ("launch", {"grid_dim": 0}),
        ("compile", {"block_size": 0}),
        ("compile", {"grid_dim": False}),
        ("lint", {"block_size": -1}),
        ("lint", {"grid_dim": 0}),
        ("sweep", {"grid_dim": 0}),
        ("sweep", {"block_sizes": [16, 0]}),
        ("sweep", {"block_sizes": {"SB1": [True]}}),
        ("sweep", {"block_sizes": [16.0]}),
        ("difftest", {"block_dim": 0}),
        ("difftest", {"grid_dim": -2}),
        ("difftest", {"count": True}),
        ("difftest", {"count": -3}),
    ])
    def test_impossible_geometry_rejected_before_admission(self, kind,
                                                           params):
        # A zero-warp launch used to run and answer a successful row
        # with cycles 0; a bool rode in as block size 1.
        with pytest.raises(JobParamError) as info:
            make_job(kind, {"kernels": ["SB1"], **params})
        assert info.value.code == "invalid-params"
        assert "positive integer" in str(info.value)


class TestSweepJob:
    def test_default_block_sizes_follow_figures(self):
        from repro.evaluation.experiments import REAL_BLOCK_SIZES
        job = make_job("sweep", {"kernels": ["LUD"]})
        assert [(t.kernel, t.block_size) for t in job.sweep_tasks] == [
            ("LUD", s) for s in REAL_BLOCK_SIZES["LUD"]]

    def test_block_size_list_applies_to_all(self):
        job = make_job("sweep", {"kernels": ["SB1", "SB2"],
                                 "block_sizes": [8, 16]})
        assert [(t.kernel, t.block_size) for t in job.sweep_tasks] == [
            ("SB1", 8), ("SB1", 16), ("SB2", 8), ("SB2", 16)]

    def test_block_size_dict_must_cover_kernels(self):
        with pytest.raises(JobParamError):
            make_job("sweep", {"kernels": ["SB1", "SB2"],
                               "block_sizes": {"SB1": [8]}})

    def test_tasks_are_the_sweep_engines_tasks_in_pair_order(self):
        from repro.evaluation import SweepTask, run_task
        from repro.kernels import build_sb1
        job = make_job("sweep", {"kernels": ["SB1"], "block_sizes": [8, 16],
                                 "grid_dim": 1, "seed": 7})
        tasks = job.tasks()
        assert all(t.fn is run_task and t.metrics for t in tasks)
        assert [t.payload for t in tasks] == [
            SweepTask(kernel="SB1", builder=build_sb1, block_size=size,
                      grid_dim=1, seed=7) for size in (8, 16)]

    def test_task_runs_and_row_matches_serial(self):
        from repro.evaluation import SweepTask, run_task
        from repro.kernels import build_sb1
        job = make_job("sweep", {"kernels": ["SB1"], "block_sizes": [16],
                                 "grid_dim": 1, "seed": 7})
        (task,) = job.tasks()
        result = task.fn(task.payload, _ctx())
        row = job.row(result)
        serial = run_task(SweepTask(kernel="SB1", builder=build_sb1,
                                    block_size=16, grid_dim=1, seed=7))
        assert row == {
            "kernel": "SB1", "block_size": 16,
            "speedup": serial.comparison.speedup,
            "baseline_cycles": serial.comparison.baseline.cycles,
            "cfm_cycles": serial.comparison.melded.cycles,
            "melds": serial.comparison.melds,
        }


    @pytest.mark.parametrize("value", ["off", "0", "OFF", "none", ""])
    def test_disabled_cache_env_names_no_directory(self, value, tmp_path,
                                                   monkeypatch):
        """The serve CLI's ``--cache-dir`` default owns the "disabled"
        spellings of the variable; the job and its task get None."""
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        monkeypatch.chdir(tmp_path)
        (config,) = _served_configs(monkeypatch, [])
        assert config.cache_dir is None
        job = make_job("sweep", {"kernels": ["SB1"], "block_sizes": [16],
                                 "grid_dim": 1, "seed": 7}, config.cache_dir)
        (task,) = job.tasks()
        result = task.fn(task.payload, _ctx())
        assert list(tmp_path.iterdir()) == []
        assert result.compile_cache["writes"] == 0
        assert result.compile_cache["write_errors"] == 0
        assert task.payload.cache_dir is None

    def test_the_cache_dir_rides_in_every_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        (config,) = _served_configs(monkeypatch, [])
        assert config.cache_dir == str(tmp_path / "env")
        (config,) = _served_configs(
            monkeypatch, ["--cache-dir", str(tmp_path / "flag")])
        assert config.cache_dir == str(tmp_path / "flag")
        kernels = ["SB1", "SB2"]
        for kind, params in (
                ("sweep", {"kernels": kernels, "block_sizes": [16]}),
                ("launch", {"kernels": kernels, "block_size": 16}),
                ("compile", {"kernels": kernels, "block_size": 16})):
            tasks = make_job(kind, params, config.cache_dir).tasks()
            directories = [task.payload.cache_dir if kind == "sweep"
                           else task.payload["cache_dir"] for task in tasks]
            assert directories == [config.cache_dir] * 2, kind

    def test_clients_cannot_name_a_cache_dir(self, tmp_path):
        params = {"kernels": ["SB1"], "cache_dir": str(tmp_path)}
        for kind in ("sweep", "launch", "compile"):
            with pytest.raises(JobParamError) as info:
                make_job(kind, params)
            assert "['cache_dir']" in str(info.value), kind


class TestCompileJob:
    def test_level_validated(self):
        with pytest.raises(JobParamError):
            make_job("compile", {"kernels": ["SB1"], "level": "o9"})

    def test_row_shape(self):
        job = make_job("compile", {"kernels": ["SB1"], "level": "o3-cfm",
                                   "block_size": 16, "grid_dim": 1})
        (task,) = job.tasks()
        row = job.row(task.fn(task.payload, _ctx()))
        assert row["kernel"] == "SB1" and row["level"] == "o3-cfm"
        assert row["blocks"] > 0 and row["instructions"] > 0
        assert row["melds"] >= 1  # SB1 is the canonical meldable kernel


class TestLaunchJob:
    def test_row_has_divergence_counters(self):
        job = make_job("launch", {"kernels": ["SB1"], "block_size": 16,
                                  "grid_dim": 1})
        (task,) = job.tasks()
        row = job.row(task.fn(task.payload, _ctx()))
        assert row["cycles"] > 0
        assert row["branches"] >= row["divergent_branches"] >= 0


class TestDifftestJob:
    def test_count_expands_to_seed_range(self):
        job = make_job("difftest", {"count": 3, "start": 5})
        assert [t.payload["seed"] for t in job.tasks()] == [5, 6, 7]

    def test_explicit_seeds(self):
        job = make_job("difftest", {"seeds": [9, 2, 4]})
        assert [t.payload["seed"] for t in job.tasks()] == [9, 2, 4]

    def test_oracle_row(self):
        job = make_job("difftest", {"seeds": [0]})
        (task,) = job.tasks()
        row = job.row(task.fn(task.payload, _ctx()))
        assert row == {"seed": 0, "ok": True, "failures": []}


class TestLintJob:
    def test_defaults_cover_all_levels(self):
        from repro.lint import LINT_LEVELS
        job = make_job("lint", {"kernels": ["SB1"]})
        assert [t.payload["level"] for t in job.tasks()] \
            == list(LINT_LEVELS)

    def test_row_shape(self):
        job = make_job("lint", {"kernels": ["SB1"], "levels": ["o3-cfm"],
                                "block_size": 16, "grid_dim": 1})
        (task,) = job.tasks()
        row = job.row(task.fn(task.payload, _ctx()))
        assert row["kernel"] == "SB1" and row["level"] == "o3-cfm"
        assert row["ok"] is True and row["diagnostics"] == []


# ---------------------------------------------------------------------------
# launch and compile jobs over the server's compile cache

SB1_LAUNCH = {"kernels": ["SB1"], "block_size": 16, "grid_dim": 1,
              "seed": 7}


def _sb1_compile(level):
    return {"kernels": ["SB1"], "level": level, "block_size": 16,
            "grid_dim": 1}


def _counter(snapshot, name):
    family = snapshot["counters"].get(name)
    return sum(family["samples"].values()) if family else 0


def _cache_events(done):
    """``(hits, misses)`` in a job's folded metrics."""
    return (_counter(done["metrics"], "repro_compile_cache_hits_total"),
            _counter(done["metrics"], "repro_compile_cache_misses_total"))


def _serial_launch_row(seed):
    from repro.evaluation.runner import compile_baseline, execute
    from repro.kernels import build_sb1
    case = build_sb1(block_size=16, grid_dim=1)
    compile_baseline(case)
    metrics = execute(case, seed=seed).metrics
    return {"kernel": "SB1", "block_size": 16, "cycles": metrics.cycles,
            "branches": metrics.branches,
            "divergent_branches": metrics.divergent_branches}


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


@pytest.fixture
def cached_client(cache_dir):
    """A client of a one-worker server over a fresh cache directory."""
    config = ServerConfig(workers=1, cache_dir=str(cache_dir))
    with ServerThread(config) as address:
        with ServeClient(*address) as client:
            yield client


class TestServedLaunchCache:
    def test_repeat_launch_hits_and_rows_match_serial(self, cached_client):
        first = cached_client.run_job("launch", SB1_LAUNCH, metrics=True)
        second = cached_client.run_job("launch", SB1_LAUNCH, metrics=True)
        assert first["ok"] and second["ok"]
        assert first["rows"] == second["rows"] == [_serial_launch_row(7)]
        assert _cache_events(first) == (0, 1)
        assert _cache_events(second) == (1, 0)

    def test_new_seed_hits_the_same_entry(self, cached_client):
        cached_client.run_job("launch", SB1_LAUNCH)
        done = cached_client.run_job("launch", dict(SB1_LAUNCH, seed=11),
                                     metrics=True)
        assert done["rows"] == [_serial_launch_row(11)]
        assert _cache_events(done) == (1, 0)

    def test_no_cache_dir_means_no_cache(self, tmp_path, monkeypatch):
        # The variable is a CLI default only: the server never reads it.
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        monkeypatch.chdir(tmp_path)
        with ServerThread(ServerConfig(workers=1)) as address:
            with ServeClient(*address) as client:
                done = [client.run_job("launch", SB1_LAUNCH, metrics=True)
                        for _ in range(2)]
        assert [d["rows"] for d in done] == [[_serial_launch_row(7)]] * 2
        for d in done:
            families = [name for kind in ("counters", "gauges")
                        for name in d["metrics"][kind]]
            assert not [name for name in families
                        if name.startswith("repro_compile_cache_")]
        assert list(tmp_path.iterdir()) == []


class TestServedCompileCache:
    def test_launch_hits_a_compile_jobs_entry(self, cached_client):
        compiled = cached_client.run_job("compile", _sb1_compile("o3"),
                                         metrics=True)
        assert _cache_events(compiled) == (0, 1)
        done = cached_client.run_job("launch", SB1_LAUNCH, metrics=True)
        assert _cache_events(done) == (1, 0)
        assert done["rows"] == [_serial_launch_row(7)]

    def test_cfm_compile_replays_a_sweeps_melds(self, cached_client):
        sweep = cached_client.run_job("sweep", {
            "kernels": ["SB1"], "block_sizes": [16], "grid_dim": 1})
        done = cached_client.run_job("compile", _sb1_compile("o3-cfm"),
                                     metrics=True)
        assert _cache_events(done) == (1, 0)
        assert done["rows"][0]["melds"] == sweep["rows"][0]["melds"] >= 1

    def test_noopt_compile_never_looks_up(self, cached_client, cache_dir):
        for _ in range(2):
            done = cached_client.run_job("compile", _sb1_compile("noopt"),
                                         metrics=True)
            assert done["ok"] and _cache_events(done) == (0, 0)
        assert list(cache_dir.glob("*")) == []

    @pytest.mark.parametrize("level", ["o3", "o3-cfm"])
    def test_a_store_is_verified_once_and_a_hit_never(self, level,
                                                      cache_dir,
                                                      monkeypatch):
        import repro.pipeline
        from repro.serve.jobs import _compile_fn
        calls = []
        verify = repro.pipeline.verify_function
        monkeypatch.setattr(repro.pipeline, "verify_function",
                            lambda function: calls.append(function)
                            or verify(function))
        payload = {"kernel": "SB1", "level": level, "block_size": 16,
                   "grid_dim": 1, "cache_dir": str(cache_dir)}
        stored = _compile_fn(payload, _ctx())
        assert len(calls) == 1
        replayed = _compile_fn(payload, _ctx())
        assert len(calls) == 1
        assert replayed == stored
