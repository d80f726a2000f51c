"""Differential correctness harness: fuzz, diff, shrink, replay.

The harness closes the loop the sweep harness (:mod:`repro.evaluation`)
leaves open: the evaluation suite shows CFM is *profitable* on a fixed
kernel set; this package shows the compiler is *correct* on an unbounded
one.  Four stages, each usable on its own:

- :mod:`~repro.difftest.generator` — seeded random divergent kernels
  over the builder DSL (:func:`generate_spec` / :func:`build_kernel`);
- :mod:`~repro.difftest.oracle` — the five-arm compile+run matrix with
  per-pass IR verification (:func:`run_oracle`);
- :mod:`~repro.difftest.shrink` — DSL-statement-level delta debugging
  of failures (:func:`shrink`);
- :mod:`~repro.difftest.corpus` — persistent repro artifacts
  (:func:`write_entry` / :func:`replay`).

:mod:`~repro.difftest.bugs` holds named injectable compiler bugs for
mutation-testing the harness itself, and :mod:`~repro.difftest.cli`
wires everything into ``python -m repro.difftest --seeds N --budget S``.

The whole package consumes the compiler exclusively through the public
:mod:`repro` facade (``repro.compile`` / ``repro.launch`` semantics via
the shared pass and machine APIs) — it is the facade's first
out-of-tree-style client.
"""

from .bugs import BUGS, inject
from .corpus import (
    CorpusEntry,
    load_entry,
    replay,
    write_entry,
)
from .generator import (
    KernelSpec,
    build_kernel,
    count_statements,
    generate_spec,
    make_inputs,
)
from .oracle import (
    ALL_ARMS,
    MELDING_ARMS,
    ArmReport,
    Failure,
    PassVerificationError,
    Verdict,
    arm_trace,
    run_oracle,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "ALL_ARMS",
    "ArmReport",
    "BUGS",
    "CorpusEntry",
    "Failure",
    "KernelSpec",
    "MELDING_ARMS",
    "PassVerificationError",
    "ShrinkResult",
    "Verdict",
    "arm_trace",
    "build_kernel",
    "count_statements",
    "generate_spec",
    "inject",
    "load_entry",
    "make_inputs",
    "replay",
    "run_oracle",
    "shrink",
    "write_entry",
]
