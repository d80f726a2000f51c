"""``python -m repro.difftest``: campaigns that check nothing, or name
arms that do not exist, are rejected up front, and the summary line
counts what was actually run."""

import re

import pytest

from repro.difftest.cli import main
from repro.difftest.oracle import ALL_ARMS


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    return capsys.readouterr().err


class TestRejectedCampaigns:
    @pytest.mark.parametrize("inputs", ["0", "-1"])
    def test_a_campaign_needs_an_input_set(self, capsys, inputs):
        # Zero input sets used to "agree bit-for-bit" over nothing.
        assert "--inputs" in _usage_error(
            capsys, "--seeds", "1", "--inputs", inputs)

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_a_campaign_needs_a_seed(self, capsys, seeds):
        # Zero seeds used to "agree bit-for-bit" over no kernel.
        assert "--seeds" in _usage_error(capsys, "--seeds", seeds)

    @pytest.mark.parametrize("budget", ["0", "-1.5"])
    def test_a_campaign_needs_a_budget(self, capsys, budget):
        assert "--budget" in _usage_error(capsys, "--budget", budget)

    def test_unknown_arm_is_a_usage_error_naming_the_arms(self, capsys):
        # Used to surface as a ValueError traceback out of run_oracle.
        err = _usage_error(capsys, "--seeds", "1", "--arms", "o3,bogus")
        assert "bogus" in err
        assert all(arm in err for arm in ALL_ARMS)

    @pytest.mark.parametrize("arms", ["", " , "])
    def test_empty_arm_list_is_a_usage_error(self, capsys, arms):
        assert "--arms" in _usage_error(capsys, "--seeds", "1",
                                        "--arms", arms)


class TestSummaryLine:
    def _summary(self, capsys, tmp_path, *argv):
        assert main(["--seeds", "2", "--quiet",
                     "--corpus-dir", str(tmp_path), *argv]) == 0
        return capsys.readouterr().out.splitlines()[0]

    def test_reference_arm_is_counted(self, capsys, tmp_path):
        # `--arms o3-cfm` compiles and runs two arms, not one.
        line = self._summary(capsys, tmp_path, "--arms", "o3-cfm")
        assert "2 kernels x 2 arms" in line
        line = self._summary(capsys, tmp_path, "--arms", "noopt,o3,o3")
        assert "2 kernels x 2 arms" in line
        assert "2 kernels x 5 arms" in self._summary(capsys, tmp_path)

    def test_throughput_is_on_the_summary_line(self, capsys, tmp_path):
        line = self._summary(capsys, tmp_path)
        rate = re.search(r"\(([\d.]+) seeds/s, ", line)
        assert rate and float(rate.group(1)) > 0
