"""Delta-debugging shrinker for failing kernel specs.

Works at the DSL-statement level, never on raw IR: candidate reductions
are edits of the spec's statement tree, so every candidate rebuilds
through the same :class:`~repro.kernels.KernelBuilder` path a fresh
kernel would and the shrunk result is a *program*, directly pasteable
into a regression test.

Reductions tried, to a fixpoint (first accepted edit restarts the scan):

1. delete any single statement (at any nesting depth);
2. splice a region open — replace an ``if`` by its then- or else-body,
   a loop by one copy of its body;
3. drop an ``if``'s else-branch;
4. shorten an ``op`` statement's operation list.

The predicate is arbitrary (``is_failing(spec) -> bool``); the CLI and
the mutation tests pass one that re-runs the differential oracle, so a
candidate only survives if it still reproduces the original failure.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple

from .generator import KernelSpec, Stmt

Predicate = Callable[[KernelSpec], bool]


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    spec: KernelSpec
    original_statements: int
    statements: int
    #: candidate specs evaluated (oracle invocations)
    attempts: int
    rounds: int


def _edits(body: List[Stmt]) -> Iterator[Tuple[str, List[Stmt]]]:
    """Yield ``(description, edited_body)`` candidates, smallest-first.

    Each candidate is a deep-copied top-level body with exactly one edit
    applied somewhere in the tree.
    """

    def at(index: int, replacement: List[Stmt]) -> List[Stmt]:
        return body[:index] + replacement + body[index + 1:]

    for index, stmt in enumerate(body):
        yield f"delete {stmt['kind']}", at(index, [])

    for index, stmt in enumerate(body):
        kind = stmt["kind"]
        if kind == "if":
            yield "splice then-body", at(index, stmt["then"])
            if stmt.get("else"):
                yield "splice else-body", at(index, stmt["else"])
                dropped = dict(stmt)
                dropped["else"] = None
                yield "drop else-branch", at(index, [dropped])
        elif kind in ("for", "divloop"):
            yield f"splice {kind} body", at(index, stmt["body"])
        elif kind == "op" and len(stmt["ops"]) > 1:
            for drop in range(len(stmt["ops"])):
                shorter = dict(stmt)
                shorter["ops"] = stmt["ops"][:drop] + stmt["ops"][drop + 1:]
                yield "shorten op list", at(index, [shorter])

    # Recurse: the same edits inside nested bodies.
    for index, stmt in enumerate(body):
        kind = stmt["kind"]
        children = []
        if kind == "if":
            children.append(("then", stmt["then"]))
            if stmt.get("else"):
                children.append(("else", stmt["else"]))
        elif kind in ("for", "divloop"):
            children.append(("body", stmt["body"]))
        for key, child in children:
            for description, edited_child in _edits(child):
                edited = dict(stmt)
                edited[key] = edited_child
                yield f"{description} (nested)", at(index, [edited])


def _with_body(spec: KernelSpec, body: List[Stmt]) -> KernelSpec:
    return KernelSpec(seed=spec.seed, block_dim=spec.block_dim,
                      grid_dim=spec.grid_dim, n=spec.n,
                      body=copy.deepcopy(body))


def shrink(spec: KernelSpec, is_failing: Predicate,
           max_attempts: int = 2000) -> ShrinkResult:
    """Minimize ``spec`` while ``is_failing`` holds.

    Greedy first-accept with restart: scan the edit list; the first edit
    that still fails becomes the new baseline and the scan restarts.
    Terminates when a full scan accepts nothing (1-minimal w.r.t. the
    edit set) or at ``max_attempts`` oracle invocations.
    """
    if not is_failing(spec):
        raise ValueError("shrink() called with a spec that does not fail")
    original = spec.statement_count()
    current = spec
    attempts = 0
    rounds = 0

    progress = True
    while progress and attempts < max_attempts:
        progress = False
        rounds += 1
        for _, edited_body in _edits(current.body):
            if not edited_body:
                continue  # an empty kernel fails nothing interesting
            if attempts >= max_attempts:
                break
            candidate = _with_body(current, edited_body)
            attempts += 1
            try:
                still_failing = is_failing(candidate)
            except Exception:
                # A candidate that breaks the harness itself (e.g. an
                # unbuildable spec) is simply not taken.
                still_failing = False
            if still_failing:
                current = candidate
                progress = True
                break

    return ShrinkResult(spec=current, original_statements=original,
                        statements=current.statement_count(),
                        attempts=attempts, rounds=rounds)
