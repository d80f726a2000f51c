"""Failure corpus: persistent, replayable records of every divergence.

When the fuzzer finds a failing kernel it writes two artifacts into the
corpus directory:

``<name>.json``
    The corpus entry — the (shrunk) spec, the arms and input seeds that
    exposed it, every failure message, and shrink statistics.  This is
    the machine-readable record; :func:`replay` re-runs it.

``<name>_repro.py``
    A standalone script with the spec embedded inline.  It needs only
    ``src`` on ``PYTHONPATH`` — no corpus, no fuzzer state — and exits
    non-zero while the failure reproduces.  This is the artifact to
    attach to a bug report.

Entry names are stable (``seed<NNNN>-<kind>``), so re-finding the same
seed overwrites rather than accumulates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .generator import KernelSpec
from .oracle import ALL_ARMS, Verdict, run_oracle

ENTRY_SCHEMA = "repro.difftest.corpus/2"

_REPRO_TEMPLATE = '''\
#!/usr/bin/env python
"""Standalone repro for a repro.difftest divergence.

{headline}

Run with the repository's ``src`` directory on PYTHONPATH:

    PYTHONPATH=src python {script_name}

Exits 0 once the failure no longer reproduces.
"""

import sys

from repro.difftest import KernelSpec, run_oracle

SPEC_JSON = r"""
{spec_json}
"""

ARMS = {arms!r}
INPUT_SEEDS = {input_seeds!r}
VALIDATE = {validate!r}


def main() -> int:
    spec = KernelSpec.from_json(SPEC_JSON)
    verdict = run_oracle(spec, arms=ARMS, input_seeds=INPUT_SEEDS,
                         validate=VALIDATE)
    if verdict.ok:
        print("no longer reproduces: all arms agree")
        return 0
    for failure in verdict.failures:
        print(failure)
    return 1


if __name__ == "__main__":
    sys.exit(main())
'''


@dataclass
class CorpusEntry:
    """One recorded failure, as loaded from disk."""

    name: str
    spec: KernelSpec
    arms: Sequence[str]
    input_seeds: Sequence[int]
    failures: List[str]
    #: statement count of the unshrunk spec (== statements if not shrunk)
    original_statements: int
    statements: int
    injected_bug: Optional[str] = None
    #: whether the recording run had meld translation validation on —
    #: :func:`replay` re-enables it so validate-class failures reproduce
    validate: bool = False
    #: per failing arm: pass-span trace events + melding decision log
    #: (empty when the failure was recorded without them)
    traces: List[dict] = field(default_factory=list)
    path: Optional[Path] = None


def entry_name(spec: KernelSpec, verdict: Verdict) -> str:
    kind = verdict.failures[0].kind if verdict.failures else "ok"
    return f"seed{spec.seed:06d}-{kind}"


def write_entry(corpus_dir: Path, spec: KernelSpec, verdict: Verdict,
                original_statements: Optional[int] = None,
                input_seeds: Sequence[int] = (0, 1),
                injected_bug: Optional[str] = None,
                traces: Optional[Sequence[dict]] = None,
                validate: bool = False) -> Path:
    """Write the JSON entry + standalone repro script; return entry path.

    ``traces`` (one per failing arm, from
    :func:`repro.difftest.oracle.arm_trace`) embeds each arm's
    compile-pass trace events and melding decision log into the entry,
    so a recorded failure explains what the compiler did without
    re-running it.
    """
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    name = entry_name(spec, verdict)
    arms = list(verdict.arms)
    entry = {
        "schema": ENTRY_SCHEMA,
        "name": name,
        "spec": json.loads(spec.to_json()),
        "arms": arms,
        "input_seeds": list(input_seeds),
        "failures": [str(f) for f in verdict.failures],
        "original_statements": (original_statements
                                if original_statements is not None
                                else spec.statement_count()),
        "statements": spec.statement_count(),
        "injected_bug": injected_bug,
        "validate": validate,
        "traces": list(traces or []),
    }
    entry_path = corpus_dir / f"{name}.json"
    entry_path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")

    headline = entry["failures"][0] if entry["failures"] else "(no failure)"
    script_name = f"{name}_repro.py"
    script = _REPRO_TEMPLATE.format(
        headline=headline, script_name=script_name,
        spec_json=spec.to_json(), arms=tuple(arms),
        input_seeds=tuple(input_seeds), validate=validate)
    (corpus_dir / script_name).write_text(script)
    return entry_path


def load_entry(path: Path) -> CorpusEntry:
    """Read a corpus entry; any schema but :data:`ENTRY_SCHEMA` raises
    :class:`ValueError`."""
    path = Path(path)
    data = json.loads(path.read_text())
    if data.get("schema") != ENTRY_SCHEMA:
        raise ValueError(f"{path}: not a corpus entry "
                         f"(schema {data.get('schema')!r})")
    return CorpusEntry(
        name=data["name"],
        spec=KernelSpec.from_json(json.dumps(data["spec"])),
        arms=tuple(data["arms"]),
        input_seeds=tuple(data["input_seeds"]),
        failures=list(data["failures"]),
        original_statements=data["original_statements"],
        statements=data["statements"],
        injected_bug=data.get("injected_bug"),
        validate=bool(data.get("validate", False)),
        traces=list(data["traces"]),
        path=path,
    )


def replay(path: Path) -> Verdict:
    """Re-run a corpus entry's oracle; see ``Verdict.ok`` for the result.

    Replays under the *current* compiler — a fixed bug replays clean.
    Entries recorded under an injected bug (``injected_bug`` set) replay
    clean unless the same bug is re-injected around this call.
    """
    entry = load_entry(path)
    arms = tuple(a for a in entry.arms if a in ALL_ARMS) or ALL_ARMS
    return run_oracle(entry.spec, arms=arms, input_seeds=entry.input_seeds,
                      validate=entry.validate)
