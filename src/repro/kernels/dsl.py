"""Structured kernel-construction DSL.

The paper's benchmarks are CUDA/HIP kernels; this DSL plays the role of
the device-code frontend.  A :class:`KernelBuilder` exposes CUDA-like
primitives (``thread_id``, ``barrier``, shared arrays) plus structured
control flow (``if_``, ``while_``) and *mutable variables* that are
lowered to SSA automatically: φ nodes are placed at joins and loop
headers, and trivial φs are cleaned up on the fly.

Example — an axpy-style kernel::

    k = KernelBuilder("scale", params=[("data", GLOBAL_I32_PTR), ("n", I32)])
    tid = k.thread_id()
    guard = k.icmp(ICmpPredicate.SLT, tid, k.param("n"))

    def body():
        value = k.load_at(k.param("data"), tid)
        k.store_at(k.param("data"), tid, k.mul(value, k.const(2)))

    k.if_(guard, body)
    kernel = k.finish()
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ir import (
    AddressSpace,
    BasicBlock,
    Constant,
    Function,
    GlobalVariable,
    I1,
    I32,
    IRBuilder,
    ICmpPredicate,
    Module,
    Phi,
    Type,
    Value,
    pointer,
)

GLOBAL_I32_PTR = pointer(I32, AddressSpace.GLOBAL)
SHARED_I32_PTR = pointer(I32, AddressSpace.SHARED)


class Var:
    """A mutable variable; the builder tracks its current SSA value."""

    def __init__(self, name: str, type_: Type, value: Value) -> None:
        self.name = name
        self.type = type_
        self.value = value

    def __repr__(self) -> str:
        return f"<Var {self.name}: {self.type!r}>"


class KernelBuilder:
    """Builds one kernel function with structured control flow."""

    def __init__(
        self,
        name: str,
        params: Sequence[Tuple[str, Type]] = (),
        module: Optional[Module] = None,
    ) -> None:
        self.module = module or Module(name + "_module")
        self.function = Function(name, [t for _, t in params], [n for n, _ in params])
        self.module.add_function(self.function)
        self._builder = IRBuilder(self.function.add_block("entry"))
        self._vars: List[Var] = []
        self._finished = False

    # ---- parameters & memory -------------------------------------------------

    def param(self, name: str) -> Value:
        return self.function.arg_by_name(name)

    def shared_array(self, name: str, element_type: Type, count: int) -> GlobalVariable:
        """Declare a ``__shared__`` array (one copy per thread block)."""
        var = GlobalVariable(name, pointer(element_type, AddressSpace.SHARED), count)
        return self.module.add_global(var)

    # ---- plumbing ------------------------------------------------------------

    @property
    def block(self) -> BasicBlock:
        return self._builder.block

    def __getattr__(self, item):
        # Arithmetic/memory one-liners delegate to the low-level IRBuilder
        # (add, mul, icmp, load, store, gep, select, thread_id, barrier...).
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._builder, item)

    def const(self, value: int, type_: Type = I32) -> Constant:
        return Constant(type_, value)

    def load_at(self, base: Value, index: Value, name: str = "") -> Value:
        return self._builder.load(self._builder.gep(base, index), name)

    def store_at(self, base: Value, index: Value, value: Value) -> None:
        self._builder.store(value, self._builder.gep(base, index))

    def global_thread_id(self, name: str = "gtid") -> Value:
        """``blockIdx.x * blockDim.x + threadIdx.x``."""
        b = self._builder
        return b.add(b.mul(b.block_id(), b.block_dim()), b.thread_id(), name)

    # ---- mutable variables ---------------------------------------------------

    def var(self, name: str, init: Value) -> Var:
        v = Var(name, init.type, init)
        self._vars.append(v)
        return v

    def get(self, var: Var) -> Value:
        return var.value

    def set(self, var: Var, value: Value) -> None:
        if value.type is not var.type:
            raise TypeError(f"assigning {value.type!r} to {var!r}")
        var.value = value

    # ---- structured control flow ----------------------------------------------

    def if_(
        self,
        cond: Value,
        then_fn: Callable[[], None],
        else_fn: Optional[Callable[[], None]] = None,
        name: str = "if",
    ) -> None:
        """``if (cond) then_fn() else else_fn()`` with automatic φs."""
        snapshot = {v: v.value for v in self._vars}
        then_block = self.function.add_block(f"{name}.then", after=self.block)
        else_block = (
            self.function.add_block(f"{name}.else", after=then_block)
            if else_fn is not None else None
        )
        # NOTE: blocks define __len__, so `or`-chains on possibly-empty
        # blocks would misfire; compare against None explicitly.
        merge_block = self.function.add_block(
            f"{name}.end",
            after=then_block if else_block is None else else_block)

        false_target = merge_block if else_block is None else else_block
        self._builder.cond_br(cond, then_block, false_target)
        branch_block = self.block

        self._builder.position_at_end(then_block)
        then_fn()
        then_end = self.block
        then_values = {v: v.value for v in self._vars}
        self._builder.br(merge_block)

        for v, value in snapshot.items():
            v.value = value
        if else_block is not None:
            self._builder.position_at_end(else_block)
            else_fn()
            else_end = self.block
            self._builder.br(merge_block)
        else:
            else_end = branch_block
        else_values = {v: v.value for v in self._vars}

        self._builder.position_at_end(merge_block)
        for v in self._vars:
            if v not in snapshot:
                # Declared inside a branch; it must not escape the branch
                # (the verifier flags any use past the merge point).
                continue
            tval, fval = then_values[v], else_values.get(v, snapshot[v])
            if tval is fval:
                v.value = tval
                continue
            phi = self._builder.phi(v.type, v.name)
            phi.add_incoming(tval, then_end)
            phi.add_incoming(fval, else_end)
            v.value = phi

    def while_(
        self,
        cond_fn: Callable[[], Value],
        body_fn: Callable[[], None],
        name: str = "loop",
    ) -> None:
        """``while (cond_fn()) body_fn()`` with loop-header φs.

        Header φs are created for every live variable and the trivial ones
        (never reassigned in the body) are folded away afterwards.
        """
        preheader = self.block
        header = self.function.add_block(f"{name}.header", after=preheader)
        self._builder.br(header)
        self._builder.position_at_end(header)

        phis: Dict[Var, Phi] = {}
        for v in self._vars:
            phi = self._builder.phi(v.type, v.name)
            phi.add_incoming(v.value, preheader)
            phis[v] = phi
            v.value = phi

        cond = cond_fn()
        if cond.type is not I1:
            raise TypeError("loop condition must be i1")
        body = self.function.add_block(f"{name}.body", after=header)
        exit_block = self.function.add_block(f"{name}.exit", after=body)
        self._builder.cond_br(cond, body, exit_block)

        self._builder.position_at_end(body)
        body_fn()
        latch = self.block
        self._builder.br(header)
        for v, phi in phis.items():
            phi.add_incoming(v.value, latch)

        self._builder.position_at_end(exit_block)
        for v, phi in phis.items():
            v.value = self._fold_trivial_phi(phi)

    def _fold_trivial_phi(self, phi: Phi) -> Value:
        """Replace ``phi [x, a], [x|phi, b]`` with ``x``; else keep it."""
        distinct = [v for v in phi.incoming_values if v is not phi]
        unique: List[Value] = []
        for v in distinct:
            if all(v is not u for u in unique):
                unique.append(v)
        if len(unique) == 1:
            replacement = unique[0]
            phi.replace_all_uses_with(replacement)
            phi.erase_from_parent()
            return replacement
        return phi

    def for_range(
        self,
        name: str,
        start: Value,
        stop: Value,
        body_fn: Callable[[Value], None],
        step: Optional[Value] = None,
    ) -> None:
        """``for (i = start; i < stop; i += step) body_fn(i)``."""
        step = step or self.const(1, start.type)
        i = self.var(name, start)

        def cond():
            return self._builder.icmp(ICmpPredicate.SLT, i.value, stop)

        def body():
            body_fn(i.value)
            self.set(i, self._builder.add(i.value, step, name + ".next"))

        self.while_(cond, body, name=name + ".for")

    # ---- finalization ----------------------------------------------------------

    def finish(self) -> Function:
        """Terminate with ``ret`` and verify the generated SSA."""
        if self._finished:
            raise RuntimeError("kernel already finished")
        self._finished = True
        self._builder.ret()
        from repro.ir import verify_function

        verify_function(self.function)
        return self.function
