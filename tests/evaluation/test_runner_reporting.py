"""Tests for the compile/run plumbing and the table formatters."""

import pytest

from repro.core import CFMConfig
from repro.evaluation import (
    compare,
    compile_baseline,
    compile_cfm,
    execute,
    format_counters,
    format_figure8,
    format_speedups,
    format_table1,
    format_table2,
    geomean,
)
from repro.evaluation.experiments import (
    CapabilityRow,
    CompileTimeRow,
    CounterRow,
    Figure8Result,
    SpeedupRow,
)
from repro.kernels import build_bitonic, build_sb1


class TestCompile:
    def test_baseline_compile_times_recorded(self):
        case = build_sb1(block_size=16, grid_dim=1)
        result = compile_baseline(case)
        assert result.o3_seconds > 0
        assert result.cfm_seconds == 0
        assert result.cfm_stats is None

    def test_cfm_compile_records_stats(self):
        case = build_sb1(block_size=16, grid_dim=1)
        result = compile_cfm(case)
        assert result.cfm_seconds > 0
        assert result.cfm_stats is not None
        assert result.cfm_stats.melds
        assert result.total_seconds == result.o3_seconds + result.cfm_seconds

    def test_cfm_config_forwarded(self):
        case = build_sb1(block_size=16, grid_dim=1)
        result = compile_cfm(case, CFMConfig(profitability_threshold=0.99))
        assert not result.cfm_stats.melds


class TestExecute:
    def test_execute_checks_reference(self):
        case = build_bitonic(block_size=16, grid_dim=1)
        run = execute(case, seed=5)
        assert run.metrics.cycles > 0
        assert sorted(run.outputs["values"]) == run.outputs["values"]

    def test_execute_detects_broken_kernel(self):
        case = build_bitonic(block_size=16, grid_dim=1)
        # Sabotage: swap the comparison so the kernel "sorts" descending.
        from repro.ir import ICmp

        for instr in case.function.instructions():
            if isinstance(instr, ICmp) and instr.predicate == "slt":
                instr.predicate = "sgt"
        with pytest.raises(AssertionError):
            execute(case, seed=5)


class TestCompare:
    def test_compare_is_deterministic(self):
        a = compare(build_sb1, block_size=16, grid_dim=1, seed=3)
        b = compare(build_sb1, block_size=16, grid_dim=1, seed=3)
        assert a.speedup == b.speedup
        assert a.baseline.cycles == b.baseline.cycles

    def test_compare_reports_melds(self):
        result = compare(build_sb1, block_size=16, grid_dim=1)
        assert result.melds > 0
        assert result.speedup > 1.0


def _speedup_row(kernel="SB1", block=32, speedup=1.2):
    comparison = compare(build_sb1, block_size=16, grid_dim=1)
    return SpeedupRow(kernel=kernel, block_size=block, speedup=speedup,
                      baseline_cycles=1000, cfm_cycles=800, melds=2,
                      comparison=comparison)


class TestFormatting:
    def test_format_speedups_contains_gm(self):
        text = format_speedups([_speedup_row()], "Test title")
        assert "Test title" in text
        assert "GM = 1.200" in text
        assert "SB1" in text

    def test_format_figure8_marks_best(self):
        row = _speedup_row(kernel="BIT")
        result = Figure8Result(rows=[row], geomean_all=1.2, geomean_best=1.2,
                               best_baseline_block={"BIT": 32})
        text = format_figure8(result)
        assert "BIT+" in text
        assert "GM-best" in text

    def test_format_counters(self):
        row = CounterRow(kernel="BIT", block_size=32,
                         baseline_alu_utilization=0.5,
                         cfm_alu_utilization=0.75,
                         normalized_vector_memory=1.0,
                         normalized_shared_memory=0.6,
                         normalized_flat_memory=1.0)
        text = format_counters([row])
        assert "50.0%" in text and "75.0%" in text
        assert "0.600" in text

    def test_format_table1(self):
        row = CapabilityRow(pattern="complex", technique="cfm",
                            divergent_branches_before=5,
                            divergent_branches_after=2,
                            outputs_correct=True)
        text = format_table1([row])
        assert "yes" in text and "5->2" in text and "ok" in text

    def test_format_table2(self):
        row = CompileTimeRow(kernel="LUD", o3_seconds=0.5, cfm_seconds=1.0)
        text = format_table2([row])
        assert "2.0000" in text  # normalized

    def test_geomean_multiplicative(self):
        assert abs(geomean([1.2, 1.2, 1.2]) - 1.2) < 1e-12


class TestReportCLI:
    def test_quick_report_builds(self):
        from repro.evaluation.__main__ import build_report

        report, _ = build_report(quick=True)
        for marker in ("Table I", "Figure 7", "Figure 8", "Figure 9",
                       "Figure 10", "Table II"):
            assert marker in report

    def test_json_is_a_view_of_the_reports_rows(self, tmp_path, monkeypatch):
        """``--json`` runs no sweep of its own: it holds exactly the rows
        the report's flags selected, and each was compared once."""
        import json

        from repro.evaluation import parallel
        from repro.evaluation.__main__ import main

        compared = []
        real = parallel.compare

        def counted(builder, block_size, **kwargs):
            compared.append((kwargs["name"], block_size))
            return real(builder, block_size, **kwargs)

        monkeypatch.setattr(parallel, "compare", counted)
        path = tmp_path / "data.json"
        main(["--kernels", "SB1", "--quick", "--no-trace",
              "--out", str(tmp_path / "report.txt"), "--json", str(path)])
        data = json.loads(path.read_text())
        assert list(data) == ["figure7"]
        rows = data["figure7"]["rows"]
        assert [(r["kernel"], r["block"]) for r in rows] \
            == [("SB1", 16), ("SB1", 32)]
        assert sorted(rows[0]) == ["baseline", "block", "cfm", "kernel",
                                   "speedup"]
        assert compared == [("SB1", 16), ("SB1", 32)]

    @pytest.mark.parametrize("argv, flag", [
        (["--workers", "-2"], "--workers"),
        (["--workers", "0"], "--workers"),
        (["--timeout", "0"], "--timeout"),
        (["--timeout", "-1.5"], "--timeout"),
    ])
    def test_bad_worker_or_timeout_is_a_one_line_usage_error(
            self, argv, flag, capsys, monkeypatch):
        # --workers -2 used to run serially under a "workers=-2" header.
        from repro.evaluation import __main__ as cli

        def build_report(**kwargs):
            pytest.fail(f"a sweep ran with {kwargs}")

        monkeypatch.setattr(cli, "build_report", build_report)
        assert cli.main(["--kernels", "SB1", "--quick", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert "Traceback" not in err
