"""The differential oracle on a healthy compiler: all arms agree."""

import pytest

import repro
from repro.difftest import ALL_ARMS, generate_spec, oracle, run_oracle


class TestCleanOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_all_arms_agree(self, seed):
        verdict = run_oracle(generate_spec(seed))
        assert verdict.ok, [str(f) for f in verdict.failures]
        assert verdict.mismatches == 0
        assert verdict.verifier_failures == 0

    def test_every_pass_is_verified(self, monkeypatch):
        # Every o3* arm's final IR state was checked by some hook.  A
        # reducer arm whose stage changed nothing checks no state of its
        # own (o3-tail on each seed here): its state is the one the
        # prefix's hook checked last.
        checked = []
        verify = oracle.verify_function
        monkeypatch.setattr(oracle, "verify_function", lambda f: (
            checked.append(repro.print_function(f)), verify(f))[1])
        for seed in range(5):
            checked.clear()
            verdict = run_oracle(generate_spec(seed))
            assert verdict.ok
            assert verdict.arms["o3-tail"].verified_passes == 0
            for arm in ALL_ARMS[1:]:
                final = verdict.arms[arm].builder.function
                assert repro.print_function(final) in checked, (seed, arm)

    def test_melds_actually_happen_somewhere(self):
        melds = sum(run_oracle(generate_spec(seed)).arms["o3-cfm"].melds
                    for seed in range(15))
        assert melds > 0, "fuzzer corpus never triggers CFM — oracle is blind"

    def test_outputs_recorded_per_input_seed(self):
        verdict = run_oracle(generate_spec(1), input_seeds=(0, 1, 2))
        for arm, report in verdict.arms.items():
            assert report.outputs is not None, arm
            assert len(report.outputs) == 3

    def test_noopt_reference_always_included(self):
        verdict = run_oracle(generate_spec(2), arms=("o3-cfm",))
        assert "noopt" in verdict.arms
        assert verdict.ok

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arms"):
            run_oracle(generate_spec(0), arms=("noopt", "o4"))
