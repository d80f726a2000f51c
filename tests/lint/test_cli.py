"""``python -m repro.lint`` CLI: selection, exit codes, artifacts."""

import json

import pytest

from repro.lint.cli import run


class TestSelection:
    def test_clean_kernels_exit_zero(self, capsys):
        assert run(["--kernels", "SB1", "--levels", "noopt,o3"]) == 0
        out = capsys.readouterr().out
        assert "linted 1 kernel(s) x 2 level(s)" in out
        assert "0 error(s)" in out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit, match="unknown kernels"):
            run(["--kernels", "NOPE"])

    def test_unknown_level_rejected(self):
        with pytest.raises(SystemExit, match="unknown levels"):
            run(["--kernels", "SB1", "--levels", "O11"])


class TestArtifacts:
    def test_sarif_and_json_written(self, tmp_path, capsys):
        sarif = tmp_path / "r.sarif"
        raw = tmp_path / "r.json"
        code = run(["--kernels", "SB1,BIT", "--levels", "o3-cfm",
                    "--sarif", str(sarif), "--json", str(raw)])
        assert code == 0
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        payload = json.loads(raw.read_text())
        assert [(r["kernel"], r["level"]) for r in payload["reports"]] == [
            ("SB1", "o3-cfm"), ("BIT", "o3-cfm")]
        assert all(r["ok"] for r in payload["reports"])


class TestFlags:
    def test_disable_is_threaded_through(self, capsys):
        code = run(["--kernels", "SB1", "--levels", "noopt",
                    "--disable", "dead-store,undef-use"])
        assert code == 0

    def test_unknown_disabled_rule_raises(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run(["--kernels", "SB1", "--levels", "noopt",
                 "--disable", "dead-store,no-such-rule"])

    def test_fail_on_severity_is_validated(self):
        with pytest.raises(SystemExit):
            run(["--fail-on", "catastrophic"])

    def test_main_exits_with_run_status(self):
        from repro.lint.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["--kernels", "SB1", "--levels", "noopt"])
        assert exc.value.code == 0
