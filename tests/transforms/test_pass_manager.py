"""Tests for the pass pipeline infrastructure."""

import pytest

from repro.ir import verify_function
from repro.obs import pass_timing_event
from repro.transforms import PassPipeline, eliminate_dead_code, fold_constants

from tests.support import parse


def make_function():
    return parse("""
define void @k(i32 addrspace(1)* %p) {
entry:
  %a = add i32 2, 3
  %dead = mul i32 %a, 7
  %g = getelementptr i32, i32 addrspace(1)* %p, i32 0
  store i32 %a, i32 addrspace(1)* %g
  ret void
}
""")


class TestPipeline:
    def test_runs_passes_in_order(self):
        f = make_function()
        pipeline = PassPipeline()
        order = []
        pipeline.add("first", lambda fn: order.append("first") or False)
        pipeline.add("second", lambda fn: order.append("second") or False)
        pipeline.run(f)
        assert order == ["first", "second"]

    def test_reports_changes(self):
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.add("dce", eliminate_dead_code)
        assert pipeline.run(f)
        assert not pipeline.run(f)  # second run: nothing left to do

    def test_records_timings(self):
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.run(f)
        assert len(pipeline.timings) == 1
        timing = pipeline.timings[0]
        assert timing.name == "fold"
        assert timing.seconds >= 0
        assert timing.changed
        assert timing.instructions_after < timing.instructions_before == 5

    def test_run_to_fixpoint(self):
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.add("dce", eliminate_dead_code)
        assert pipeline.run_to_fixpoint(f)
        # Fixpoint reached: constants folded, dead mul gone.
        assert len(f.entry) == 3  # gep, store, ret

    def test_timings_scoped_per_run(self):
        # Regression: timings used to accumulate across run() calls, so
        # one pipeline object conflated every function ever run through
        # it (skewing Table II's breakdown).
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.run(f)
        pipeline.run(make_function())
        assert len(pipeline.timings) == 1  # only the latest invocation
        # ...and its sizes start from the new function, not the old one
        assert pipeline.timings[0].instructions_before == 5

    def test_fixpoint_timings_cover_whole_invocation(self):
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.add("dce", eliminate_dead_code)
        pipeline.run_to_fixpoint(f)
        # More than one iteration ran, all within a single timing scope,
        # and each boundary is measured once: one pass's "after" is the
        # next one's "before", across iterations too.
        assert len(pipeline.timings) > 2
        assert len(pipeline.timings) % 2 == 0
        for previous, timing in zip(pipeline.timings, pipeline.timings[1:]):
            assert (timing.blocks_before, timing.instructions_before) == \
                (previous.blocks_after, previous.instructions_after)
        last = pipeline.timings[-1]
        assert (last.blocks_after, last.instructions_after) == (1, len(f.entry))

    def test_collect_ir_stats(self):
        # Every timing carries the IR sizes; there is no switch.
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("fold", fold_constants)
        pipeline.add("dce", eliminate_dead_code)
        pipeline.run(f)
        fold, dce = pipeline.timings
        assert fold.blocks_before == fold.blocks_after == 1
        assert fold.instructions_after < fold.instructions_before
        event = pass_timing_event(fold)
        assert event["pass"] == "fold" and event["changed"]
        assert event["instructions_before"] > event["instructions_after"]

    def test_fixpoint_divergence_detected(self):
        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("always-changes", lambda fn: True)
        with pytest.raises(RuntimeError, match="fixpoint"):
            pipeline.run_to_fixpoint(f, max_iterations=4)

    def test_fixpoint_error_names_unstable_passes(self):
        from repro.transforms import FixpointError

        f = make_function()
        pipeline = PassPipeline()
        pipeline.add("stable", lambda fn: False)
        pipeline.add("oscillator", lambda fn: True)
        with pytest.raises(FixpointError) as excinfo:
            pipeline.run_to_fixpoint(f, max_iterations=3)
        assert excinfo.value.unstable_passes == ["oscillator"]
        assert "oscillator" in str(excinfo.value)
        assert "stable" not in str(excinfo.value).split("passes still")[1]

    def test_verify_mode_catches_broken_pass(self):
        # A verifier on the after_each seam stops the pipeline at the
        # breaking pass, before a later pass can run (or mask it).
        f = make_function()
        later = []

        def breaker(fn):
            # Remove the terminator: structurally invalid.
            term = fn.entry.terminator
            fn.entry._instructions.remove(term)
            return True

        def verify(name, fn, result):
            try:
                verify_function(fn)
            except Exception as exc:
                raise RuntimeError(
                    f"IR verification failed after pass {name!r}") from exc

        pipeline = PassPipeline(after_each=[verify])
        pipeline.add("breaker", breaker)
        pipeline.add("later", lambda fn: later.append(fn) or False)
        with pytest.raises(RuntimeError,
                           match="verification failed after pass 'breaker'"):
            pipeline.run(f)
        assert later == []
