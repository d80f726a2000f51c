"""Prior divergence-reduction techniques CFM is compared against
(Table I): tail merging and branch fusion.

Both are exposed twice: as plain ``(Function) -> bool`` callables
(:func:`merge_tails`, :func:`fuse_branches`) and as standard
:class:`~repro.transforms.Pass` subclasses (:class:`TailMergingPass`,
:class:`BranchFusionPass`) so a :class:`~repro.transforms.PassPipeline`
— and the differential-testing oracle built on it — can host the
baselines through the same ``run(function) -> PassResult`` surface as
CFM and the standard transforms.
"""

from repro.ir.function import Function
from repro.transforms.pass_manager import Pass, PassResult

from .tail_merging import merge_tails
from .branch_fusion import fuse_branches


class TailMergingPass(Pass):
    """Tail merging (cross-jumping) behind the standard pass surface."""

    name = "tail-merging"

    def run(self, function: Function) -> PassResult:
        return PassResult(changed=merge_tails(function))


class BranchFusionPass(Pass):
    """Branch fusion (Coutinho et al. 2011) behind the standard pass
    surface."""

    name = "branch-fusion"

    def run(self, function: Function) -> PassResult:
        return PassResult(changed=fuse_branches(function))


__all__ = ["merge_tails", "fuse_branches",
           "TailMergingPass", "BranchFusionPass"]
