"""The public ``repro`` facade: compile / launch / meld + import hygiene."""

import inspect
import re
from pathlib import Path

import pytest

import repro
from tests.support import build_diamond

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_builder():
    k = repro.KernelBuilder("scale", params=[("data", repro.GLOBAL_I32_PTR),
                                             ("bias", repro.I32)])
    tid = k.thread_id()
    parity = k.and_(tid, k.const(1))
    is_even = k.icmp(repro.ICmpPredicate.EQ, parity, k.const(0))

    def even():
        k.store_at(k.param("data"), tid,
                   k.add(k.mul(k.load_at(k.param("data"), tid), k.const(2)),
                         k.param("bias")))

    def odd():
        k.store_at(k.param("data"), tid,
                   k.add(k.mul(k.load_at(k.param("data"), tid), k.const(3)),
                         k.param("bias")))

    k.if_(is_even, even, odd)
    k.finish()
    return k


class TestCompile:
    def test_level_none_leaves_ir_alone(self):
        k = make_builder()
        before = repro.print_function(k.function)
        report = repro.compile(k, level="none")
        assert repro.print_function(report.function) == before
        assert report.melds == 0

    def test_o3_runs_and_times_passes(self):
        report = repro.compile(make_builder(), level="O3")
        assert report.level == "O3"
        assert report.pass_timings
        assert report.seconds >= 0

    def test_cfm_melds_the_diamond(self):
        report = repro.compile(make_builder(), level="O3", cfm=True)
        assert report.melds == 1
        assert report.cfm_stats.melds[0].selects_inserted >= 1

    def test_cfm_accepts_config(self):
        config = repro.CFMConfig(profitability_threshold=10_000.0)
        report = repro.compile(make_builder(), cfm=config)
        assert report.melds == 0  # threshold too high to meld anything

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            repro.compile(make_builder(), level="O2")

    def test_accepts_raw_function(self):
        function = build_diamond(identical=True)
        report = repro.compile(function, level="none", cfm=True)
        assert report.function is function
        assert report.melds == 1


class TestLaunch:
    def test_buffers_and_scalars(self):
        k = make_builder()
        result = repro.launch(k, grid=1, block=4,
                              args={"data": [1, 2, 3, 4], "bias": 10})
        assert result.outputs == {"data": [12, 16, 16, 22]}
        assert result.metrics.cycles > 0

    def test_compile_then_launch_same_numbers(self):
        plain = repro.launch(make_builder(), grid=1, block=4,
                             args={"data": [1, 2, 3, 4], "bias": 10})
        melded_kernel = make_builder()
        repro.compile(melded_kernel, level="O3", cfm=True)
        melded = repro.launch(melded_kernel, grid=1, block=4,
                              args={"data": [1, 2, 3, 4], "bias": 10})
        assert plain.outputs == melded.outputs

    def test_kernel_name_required_for_multi_kernel_modules(self):
        module = repro.Module("m")
        with pytest.raises(ValueError, match="0 kernels"):
            repro.launch(module, grid=1, block=1, args={})

    def test_string_argument_rejected(self):
        with pytest.raises(TypeError, match="scalar or sequence"):
            repro.launch(make_builder(), grid=1, block=4,
                         args={"data": "oops", "bias": 0})


class TestMachineAPI:
    """The machine-configuration surface: one ``machine=`` argument
    everywhere; the pre-PR-7 ``executor=``/``config=`` spellings are
    gone."""

    ARGS = {"data": [1, 2, 3, 4], "bias": 10}

    def test_facade_exports_machine_vocabulary(self):
        for name in ("MachineConfig", "RECONVERGENCE_POLICIES", "EXECUTORS"):
            assert name in repro.__all__, name

    def test_config_first_signatures(self):
        # ``machine=`` is the one machine parameter on every launch
        # surface.
        for fn in (repro.launch, repro.run_kernel, repro.GPU.__init__):
            params = inspect.signature(fn).parameters
            assert "machine" in params, fn
            assert not {"executor", "config"} & set(params), fn

    def test_launch_accepts_machine(self):
        machine = repro.MachineConfig(executor="reference",
                                      reconvergence="min-pc")
        result = repro.launch(make_builder(), grid=1, block=4,
                              args=dict(self.ARGS), machine=machine)
        assert result.outputs == {"data": [12, 16, 16, 22]}

    def test_gpu_plus_machine_kwargs_rejected(self):
        # A GPU already carries its MachineConfig: passing another is an
        # error naming the winning spelling.
        k = make_builder()
        with repro.GPU(k.module) as gpu:
            with pytest.raises(ValueError,
                               match="GPU already carries its machine"):
                repro.launch(k.module, grid=1, block=4,
                             args=dict(self.ARGS), gpu=gpu,
                             machine=repro.MachineConfig())

    def test_examples_use_only_config_first_api(self):
        # examples/ are the copy-paste surface: they must not teach the
        # removed spellings.
        legacy = re.compile(r"\b(executor|config)\s*=")
        offenders = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "examples").glob("*.py"))
            if legacy.search(path.read_text())
        ]
        assert not offenders, (
            f"legacy machine kwargs in examples (use machine=): {offenders}")


class TestMeld:
    def test_meld_returns_stats(self):
        stats = repro.meld(build_diamond(identical=True))
        assert len(stats.melds) == 1

    def test_meld_rejects_non_kernel(self):
        with pytest.raises(TypeError, match="expected a Function"):
            repro.meld(42)


class TestAnalyze:
    def test_returns_divergence_info(self):
        k = make_builder()
        info = repro.analyze(k)
        assert isinstance(info, repro.DivergenceInfo)
        assert info.has_divergent_branch(k.function.entry)

    def test_memo_shared_across_calls(self):
        k = make_builder()
        assert repro.analyze(k) is repro.analyze(k)
        # The facade and the raw cached entry point share one memo.
        assert repro.analyze(k) is repro.cached_divergence(k.function)

    def test_memo_invalidated_by_compile(self):
        k = make_builder()
        before = repro.analyze(k)
        repro.compile(k, level="O3")
        assert repro.analyze(k) is not before

    def test_rejects_non_kernel(self):
        with pytest.raises(TypeError, match="expected a Function"):
            repro.analyze("nope")


class TestLintFacade:
    def test_module_is_callable(self):
        report = repro.lint(build_diamond())
        assert report.ok

    def test_accepts_compile_report_with_decisions(self):
        k = make_builder()
        report = repro.compile(k, cfm=True)
        lint_report = repro.lint(report)
        assert lint_report.ok

    def test_rule_registry_reexported(self):
        assert "barrier-divergence" in {r.id for r in repro.lint.all_rules()}


class TestFacadeSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_package_metadata_agrees_on_the_version(self):
        declared = re.search(r'^version = "([^"]+)"$',
                             (REPO_ROOT / "pyproject.toml").read_text(),
                             re.MULTILINE).group(1)
        assert declared == repro.__version__

    def test_key_entry_points_exported(self):
        for name in ("compile", "launch", "meld", "analyze", "lint",
                     "run_cfm", "run_kernel",
                     "PassPipeline", "CFMPass", "GPU", "KernelBuilder"):
            assert name in repro.__all__, name

    @pytest.mark.parametrize("directory", ["examples", "benchmarks"])
    def test_clients_import_only_the_facade(self, directory):
        """examples/ and benchmarks/ must not reach into submodules."""
        deep_import = re.compile(r"^\s*(?:from|import)\s+repro\.",
                                 re.MULTILINE)
        offenders = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / directory).glob("*.py"))
            if deep_import.search(path.read_text())
        ]
        assert not offenders, (
            f"deep repro.* imports (use the top-level facade): {offenders}")
