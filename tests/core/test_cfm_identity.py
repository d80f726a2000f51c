"""Identity gate for the CFM pass: printed IR and decision logs, byte for byte.

``cfm_identity.json`` holds one SHA-256 per case, taken over
``print_module`` plus the serialised ``stats.decisions`` after
``optimize → CFMPass → late_pipeline``.  The fixture was generated at
the commit *before* the pass's inner loop was made once-per-CFG-state
(PR 12), so any rewrite of the pass or of an analysis it uses must
reproduce every meld decision and every instruction of output exactly.

Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.core.test_cfm_identity``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import pytest

from repro import CFMConfig, CFMPass
from repro.difftest.generator import build_kernel, generate_spec
from repro.evaluation import REAL_BLOCK_SIZES, SYNTHETIC_BLOCK_SIZES
from repro.ir import print_module
from repro.kernels import REAL_WORLD_BUILDERS, SYNTHETIC_BUILDERS
from repro.transforms import late_pipeline, optimize

FIXTURE = Path(__file__).with_name("cfm_identity.json")
GENERATOR_SEEDS = 200
TIER1_SEEDS = 50

#: config variants run over the Fig. 8 set (the two knobs that change
#: which code the inner loop executes)
FIG8_CONFIGS: Dict[str, Callable[[], CFMConfig]] = {
    "default": CFMConfig,
    "optimal": lambda: CFMConfig(optimal_subgraph_alignment=True),
    "nounpred": lambda: CFMConfig(unpredication=False),
}


def digest(module, function, config: CFMConfig) -> str:
    optimize(function)
    stats = CFMPass(config).run(function).stats
    late_pipeline().run(function)
    decisions = json.dumps([d.as_dict() for d in stats.decisions],
                           sort_keys=True)
    payload = print_module(module) + "\n" + decisions
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _kernel_case(builder, block_size: int, config: CFMConfig) -> str:
    case = builder(block_size)
    return digest(case.module, case.function, config)


def _seed_case(seed: int) -> str:
    kernel = build_kernel(generate_spec(seed))
    return digest(kernel.module, kernel.function, CFMConfig())


def cases() -> Iterator[Tuple[str, Callable[[], str]]]:
    """Every ``(case id, thunk computing its digest)`` of the fixture."""
    for name, builder in REAL_WORLD_BUILDERS.items():
        for size in REAL_BLOCK_SIZES[name]:
            for label, make in FIG8_CONFIGS.items():
                yield (f"fig8/{name}@{size}/{label}",
                       lambda b=builder, s=size, m=make: _kernel_case(b, s, m()))
    for name, builder in SYNTHETIC_BUILDERS.items():
        for size in SYNTHETIC_BLOCK_SIZES:
            yield (f"synthetic/{name}@{size}/default",
                   lambda b=builder, s=size: _kernel_case(b, s, CFMConfig()))
    for seed in range(GENERATOR_SEEDS):
        yield f"seed/{seed}", lambda s=seed: _seed_case(s)


def _is_slow(case_id: str) -> bool:
    return (case_id.startswith("seed/")
            and int(case_id.split("/")[1]) >= TIER1_SEEDS)


_CASES = dict(cases())
_EXPECTED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


def test_fixture_covers_every_case():
    assert sorted(_EXPECTED) == sorted(_CASES)


@pytest.mark.parametrize("case_id", [
    pytest.param(cid, marks=pytest.mark.slow) if _is_slow(cid) else cid
    for cid in _CASES])
def test_identity(case_id):
    assert _CASES[case_id]() == _EXPECTED[case_id], (
        f"{case_id}: printed IR or MeldingDecision log changed")


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {cid: thunk() for cid, thunk in cases()}, indent=0, sort_keys=True)
        + "\n")
    print(f"wrote {len(_CASES)} digests to {FIXTURE}")
