"""Job-spec tests: param validation, task expansion, row shapes.

Task functions run inline here (no server, no pool) — the wire and
pool behavior lives in ``test_server.py``.
"""

import pytest

from repro.scheduler import TaskContext
from repro.serve import ProtocolError, make_job
from repro.serve.jobs import MAX_TASKS_PER_JOB, JobParamError


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
        assert job.pairs == [("LUD", s) for s in REAL_BLOCK_SIZES["LUD"]]

    def test_block_size_list_applies_to_all(self):
        job = make_job("sweep", {"kernels": ["SB1", "SB2"],
                                 "block_sizes": [8, 16]})
        assert job.pairs == [("SB1", 8), ("SB1", 16),
                             ("SB2", 8), ("SB2", 16)]

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


    @pytest.mark.parametrize("value", ["0", "OFF", "none"])
    def test_disabled_cache_env_names_no_directory(self, value, tmp_path,
                                                   monkeypatch):
        """The worker's ``CompileCache.from_env`` owns the "disabled"
        spellings; the job never re-reads the variable."""
        from repro.compile_cache import CACHE_ENV_VAR
        monkeypatch.setenv(CACHE_ENV_VAR, value)
        monkeypatch.chdir(tmp_path)
        job = make_job("sweep", {"kernels": ["SB1"], "block_sizes": [16],
                                 "grid_dim": 1, "seed": 7})
        (task,) = job.tasks()
        result = task.fn(task.payload, _ctx())
        assert list(tmp_path.iterdir()) == []
        assert result.compile_cache["writes"] == 0
        assert result.compile_cache["write_errors"] == 0
        assert task.payload.cache_dir is None


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
