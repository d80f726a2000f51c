"""Executor parity on the paper's Figure 7 synthetic kernels.

SB1, SB2, SB3 and their ``-R`` variants, both arms (``-O3`` and CFM), at
the smallest Figure 7 block size, under both reconvergence policies.
The CFM arms carry what melding makes of the two sides of a divergent
branch: loads and stores through a ``select`` of two buffer bases, whose
lanes alternate between two segments — the fast executor's two-entry
segment cache — next to full-warp φ copies and consecutive accesses.
The fast and the reference executor must give the same device memory,
the same ``Metrics.as_dict()`` and the same WarpTrace event stream.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import DEFAULT_GRID_DIM, SYNTHETIC_BLOCK_SIZES
from repro.evaluation.runner import compile_baseline, compile_cfm
from repro.kernels import SYNTHETIC_BUILDERS
from repro.obs import Tracer, use
from repro.simt import RECONVERGENCE_POLICIES, MachineConfig, run_kernel

from tests.simt.test_executor_diff import _normalize

ARMS = {"o3": compile_baseline, "cfm": compile_cfm}


def _observe(case, machine):
    tracer = Tracer()
    with use(tracer):
        outputs, metrics = run_kernel(
            case.module, case.kernel, case.grid_dim, case.block_dim,
            buffers=case.make_buffers(0), scalars=case.scalars,
            machine=machine)
    return outputs, metrics.as_dict(), [_normalize(e) for e in tracer.events]


@pytest.mark.parametrize("arm", ARMS)
@pytest.mark.parametrize("name", SYNTHETIC_BUILDERS)
def test_fig7_kernel_executor_parity(name, arm):
    case = SYNTHETIC_BUILDERS[name](block_size=SYNTHETIC_BLOCK_SIZES[0],
                                    grid_dim=DEFAULT_GRID_DIM)
    ARMS[arm](case)
    for policy in RECONVERGENCE_POLICIES:
        fast, reference = (
            _observe(case, MachineConfig(executor=executor,
                                         reconvergence=policy))
            for executor in ("fast", "reference"))
        assert fast[0] == reference[0], f"{policy}: device memory differs"
        assert fast[1] == reference[1], f"{policy}: metrics differ"
        assert fast[2] and fast[2] == reference[2], \
            f"{policy}: trace streams differ"
        case.verify_outputs(case.make_buffers(0), fast[0])
