"""LoweredProgram serialization: symbolic form ↔ runnable program.

The persistent compile cache stores the symbolic (pure-data) lowering
next to the optimized IR so a warm process never re-lowers.  That is
only sound if, for every kernel shape the pipelines can produce:

* the symbolic form survives JSON exactly (it is the wire format);
* a fresh lowering of the re-parsed IR is **bit-identical** (as pure
  data) to the symbolic program that was cached — i.e. print/parse plus
  materialize loses nothing;
* a materialized-from-JSON program, seeded into the launch memo,
  executes observably identically to the reference interpreter.

The difftest generator corpus (every oracle arm of every seed — melded,
unpredicated and speculated control flow included) is the coverage
vehicle, same as ``tests/simt/test_executor_diff.py``.
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro.analysis.latency import LatencyModel
from repro.difftest.generator import generate_spec, make_inputs
from repro.difftest.oracle import ALL_ARMS, _compile_arm
from repro.ir import print_module
from repro.ir.parser import parse_module
from repro.simt import (
    GPU,
    PROGRAM_SCHEMA,
    MachineConfig,
    ProgramDecodeError,
    lower_symbolic,
    lowering,
    materialize_program,
    seed_program,
)

SEED_COUNT = int(os.environ.get("REPRO_PROGRAM_SERIALIZE_SEEDS", "4"))


def _arm_functions(seed):
    """Yield (arm, compiled builder) for every arm that compiles."""
    spec = generate_spec(seed)
    for arm in ALL_ARMS:
        report = _compile_arm(arm, spec, None)
        if report.failure is not None or report.builder is None:
            continue
        yield arm, spec, report.builder


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_symbolic_program_round_trips_bit_identical(seed):
    latency = LatencyModel()
    for arm, spec, builder in _arm_functions(seed):
        function = builder.function
        symbolic = lower_symbolic(function, latency)
        assert symbolic["schema"] == PROGRAM_SCHEMA

        # The wire format is JSON-native: a dumps/loads round trip is
        # the identity, not merely equivalent.
        wire = json.loads(json.dumps(symbolic))
        assert wire == symbolic, f"seed {seed} arm {arm}: JSON round trip"

        # Cross-process replay: re-parse the printed module (what the
        # cache stores) and lower it fresh — the symbolic form must be
        # bit-identical to the one serialized from the live module.
        reparsed = parse_module(print_module(builder.module))
        replayed_fn = reparsed.functions[function.name]
        assert lower_symbolic(replayed_fn, latency) == symbolic, \
            f"seed {seed} arm {arm}: fresh lowering of re-parsed IR differs"

        # And the deserialized program materializes against the re-parsed
        # function (names resolve, closures rebuild).
        program = materialize_program(wire, replayed_fn)
        assert program.function_name == function.name
        assert program.num_slots == symbolic["num_slots"]


@pytest.mark.parametrize("seed", range(SEED_COUNT))
def test_materialized_program_executes_identically(seed):
    """A seeded warm program must be observably identical to the
    reference interpreter (device memory + metrics), arm by arm."""
    machine = MachineConfig()
    for arm, spec, builder in _arm_functions(seed):
        function = builder.function
        wire = json.loads(json.dumps(lower_symbolic(function,
                                                    machine.latency)))
        reparsed = parse_module(print_module(builder.module))
        replayed_fn = reparsed.functions[function.name]
        program = materialize_program(wire, replayed_fn)
        seed_program(replayed_fn, machine, program)

        args = make_inputs(spec, 0)
        try:
            with GPU(reparsed, MachineConfig(executor="reference")) as gpu:
                ref = repro.launch(reparsed, spec.grid_dim, spec.block_dim,
                                   dict(args), gpu=gpu)
        except Exception:
            continue  # runtime-trap arms are test_executor_diff's concern
        with GPU(reparsed, MachineConfig(executor="fast")) as gpu:
            fast = repro.launch(reparsed, spec.grid_dim, spec.block_dim,
                                dict(args), gpu=gpu)
        assert fast.outputs == ref.outputs, \
            f"seed {seed} arm {arm}: device memory differs"
        assert fast.metrics.as_dict() == ref.metrics.as_dict(), \
            f"seed {seed} arm {arm}: metrics differ"


class TestDecodeErrors:
    def _symbolic(self):
        builder = repro.KernelBuilder(
            "k", params=[("data", repro.GLOBAL_I32_PTR)])
        tid = builder.thread_id()
        builder.store_at(builder.param("data"), tid,
                         builder.load_at(builder.param("data"), tid))
        builder.ret()
        return builder, lower_symbolic(builder.function, LatencyModel())

    def test_schema_mismatch_rejected(self):
        builder, symbolic = self._symbolic()
        bad = dict(symbolic, schema="repro.simt.lowered-program/0")
        with pytest.raises(ProgramDecodeError, match="schema"):
            materialize_program(bad, builder.function)

    def test_unknown_descriptor_rejected(self):
        builder, symbolic = self._symbolic()
        bad = json.loads(json.dumps(symbolic))
        for block in bad["blocks"]:
            for op in block["ops"]:
                for i, part in enumerate(op):
                    if isinstance(part, list) and part and \
                            isinstance(part[0], str):
                        op[i] = ["warp-vote-all"]  # no such maker
        with pytest.raises(ProgramDecodeError):
            materialize_program(bad, builder.function)

    def test_unresolvable_argument_rejected(self):
        builder, symbolic = self._symbolic()
        bad = json.loads(json.dumps(symbolic))
        bad["arg_slots"] = [[slot, name + "_renamed"]
                            for slot, name in bad["arg_slots"]]
        with pytest.raises(ProgramDecodeError, match="argument"):
            materialize_program(bad, builder.function)

    def test_malformed_payload_rejected(self):
        builder, _ = self._symbolic()
        with pytest.raises(ProgramDecodeError):
            materialize_program({"schema": PROGRAM_SCHEMA}, builder.function)

    @pytest.mark.parametrize("descriptor", [
        ["gep", "4; import os"],               # strings where ints belong
        ["int2", "add", ["i", "32"]],
        ["int2", "add", ["i", 0]],             # widths outside 1-64
        ["int2", "add", ["i", 65]],
        ["icmp", "slt", ["i", True]],
        ["gep", 4096],
        ["int2", "__import__", ["i", 32]],     # unknown opcode / predicate
        ["generic2", "pow", ["i", 32], None],
        ["icmp", "lt", ["i", 32]],
        ["fcmp", "ueq"],
        ["cast", "ptrtoint", ["i", 32], ["i", 32]],
        ["minmax", "mid"],
        "int2",                                # not a list at all
        7,
        None,
    ], ids=repr)
    def test_hostile_descriptor_rejected_before_anything_compiles(
            self, descriptor):
        """Descriptors arrive from the on-disk cache and end up shaping
        generated source: anything outside the closed tables must stop at
        ProgramDecodeError with no run function compiled."""
        builder, symbolic = self._symbolic()
        bad = json.loads(json.dumps(symbolic))
        op = next(op for block in bad["blocks"] for op in block["ops"]
                  if op[0] == lowering.OP_COMPUTE2)
        op[4] = descriptor
        shapes = len(lowering._RUN_MEMO)
        with pytest.raises(ProgramDecodeError):
            materialize_program(bad, builder.function)
        assert len(lowering._RUN_MEMO) == shapes

    def test_unknown_special_register_rejected(self):
        builder, symbolic = self._symbolic()
        bad = json.loads(json.dumps(symbolic))
        op = next(op for block in bad["blocks"] for op in block["ops"]
                  if op[0] == lowering.OP_SREG)
        op[2] = "0]; import os; sregs[0"
        with pytest.raises(ProgramDecodeError):
            materialize_program(bad, builder.function)
