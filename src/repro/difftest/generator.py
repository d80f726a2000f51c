"""Seeded random kernel generator over the builder DSL.

A *kernel spec* is a small, JSON-serializable program in a statement
grammar shaped like the paper's divergence patterns: sequences of
divergent if/else regions (SESE chains), nested regions, loops with
divergent bodies (constant- and runtime-bound, plus per-thread trip
counts), and barrier-separated shared-memory staging.  Specs — not IR —
are the unit the delta-debugging shrinker edits, so every statement is
self-contained and any statement can be deleted (or any region spliced
open) leaving a well-formed program.

Race discipline: every global-memory statement reads and writes only the
executing thread's own slot (or a bijective remap of it at uniform
nesting depth), and shared-memory staging keeps its stores and
permuted loads on opposite sides of a barrier — so every generated
kernel is deterministic and any cross-arm output difference is a real
miscompile, never input-program UB.

``generate_spec(seed)`` is pure: the same seed always yields the same
spec, the same DSL statements, and bit-identical printed IR.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro import GLOBAL_I32_PTR, I32, ICmpPredicate, KernelBuilder

Stmt = Dict[str, object]

#: closed set of value operations the generated bodies draw from
#: (no division: a generated divisor could be zero, and UB in the input
#: program would masquerade as a melder bug)
OPS: Dict[str, Callable] = {
    "add": lambda k, x, y: k.add(x, y),
    "sub": lambda k, x, y: k.sub(x, y),
    "mul": lambda k, x, y: k.mul(x, y),
    "xor": lambda k, x, y: k.xor(x, y),
    "and": lambda k, x, y: k.and_(x, y),
    "or": lambda k, x, y: k.or_(x, y),
    "shl": lambda k, x, y: k.shl(x, k.const(1)),
    "ashr": lambda k, x, y: k.ashr(x, k.const(2)),
    "min": lambda k, x, y: k.smin(x, y),
    "max": lambda k, x, y: k.smax(x, y),
}

_OP_NAMES = sorted(OPS)
_COND_KINDS = ("parity", "stripe", "half", "data", "uniform")


@dataclass
class KernelSpec:
    """One generated kernel: launch geometry + a statement program."""

    seed: int
    block_dim: int
    grid_dim: int
    #: value for the uniform scalar parameter %n (runtime loop bound)
    n: int
    body: List[Stmt] = field(default_factory=list)

    @property
    def elements(self) -> int:
        """Length of each global buffer (one slot per thread)."""
        return self.block_dim * self.grid_dim

    def statement_count(self) -> int:
        return count_statements(self.body)

    def to_json(self) -> str:
        return json.dumps({
            "schema": SPEC_SCHEMA,
            "seed": self.seed,
            "block_dim": self.block_dim,
            "grid_dim": self.grid_dim,
            "n": self.n,
            "body": self.body,
        }, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "KernelSpec":
        data = json.loads(text)
        schema = data.get("schema", SPEC_SCHEMA)
        if not schema.startswith("repro.difftest.spec/"):
            raise ValueError(f"not a kernel spec: schema {schema!r}")
        return KernelSpec(seed=data["seed"], block_dim=data["block_dim"],
                          grid_dim=data["grid_dim"], n=data["n"],
                          body=data["body"])


SPEC_SCHEMA = "repro.difftest.spec/1"


def count_statements(stmts: List[Stmt]) -> int:
    """DSL statements in a body, counting region headers and recursing."""
    total = 0
    for stmt in stmts:
        total += 1
        if stmt["kind"] == "if":
            total += count_statements(stmt["then"])
            total += count_statements(stmt.get("else") or [])
        elif stmt["kind"] in ("for", "divloop"):
            total += count_statements(stmt["body"])
    return total


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _gen_cond(rng: random.Random) -> Stmt:
    kind = rng.choice(_COND_KINDS)
    cond: Stmt = {"kind": kind}
    if kind == "stripe":
        cond["bit"] = rng.choice([2, 4])
    elif kind == "data":
        cond["array"] = rng.choice(["a", "b"])
        cond["threshold"] = rng.randrange(-60, 60)
    elif kind == "uniform":
        cond["threshold"] = rng.randrange(0, 4)
    return cond


def _gen_op(rng: random.Random, uniform_depth: bool) -> Stmt:
    return {
        "kind": "op",
        "array": rng.choice(["a", "b"]),
        "ops": [rng.choice(_OP_NAMES) for _ in range(rng.randrange(1, 4))],
        "salt": rng.randrange(1, 16),
        # bijective remaps only where every lane executes (see module doc)
        "index": rng.choice(["id", "id", "rev"]) if uniform_depth else "id",
    }


def _gen_mix(rng: random.Random) -> Stmt:
    dst = rng.choice(["a", "b"])
    return {"kind": "mix", "dst": dst, "src": "b" if dst == "a" else "a",
            "op": rng.choice(_OP_NAMES)}


def _gen_body(rng: random.Random, depth: int, budget: List[int],
              uniform: bool, in_loop: bool) -> List[Stmt]:
    """A statement sequence; ``budget`` is a shared countdown cell."""
    stmts: List[Stmt] = []
    for _ in range(rng.randrange(1, 4)):
        if budget[0] <= 0:
            break
        budget[0] -= 1
        roll = rng.random()
        # Region statements need budget left over for their (non-empty)
        # bodies, or the fallback below would bust the hard cap.
        if depth < 2 and budget[0] >= 1 and roll < 0.45:
            cond = _gen_cond(rng)
            then = _gen_body(rng, depth + 1, budget,
                             uniform and cond["kind"] == "uniform", in_loop)
            els = (_gen_body(rng, depth + 1, budget,
                             uniform and cond["kind"] == "uniform", in_loop)
                   if rng.random() < 0.7 and budget[0] >= 1 else None)
            stmts.append({"kind": "if", "cond": cond, "then": then,
                          "else": els})
        elif depth == 0 and not in_loop and budget[0] >= 1 and roll < 0.60:
            bound: Stmt = ({"kind": "const", "trips": rng.randrange(1, 4)}
                           if rng.random() < 0.6 else {"kind": "param"})
            stmts.append({"kind": "for", "bound": bound,
                          "body": _gen_body(rng, depth + 1, budget, uniform,
                                            in_loop=True)})
        elif depth == 0 and not in_loop and budget[0] >= 1 and roll < 0.68:
            stmts.append({"kind": "divloop", "mask": rng.choice([1, 3]),
                          "body": _gen_body(rng, depth + 1, budget, uniform,
                                            in_loop=True)})
        elif uniform and not in_loop and roll < 0.74:
            stmts.append({"kind": "shared_stage", "shift": rng.randrange(0, 4),
                          "op": rng.choice(_OP_NAMES)})
        elif uniform and not in_loop and roll < 0.78:
            stmts.append({"kind": "barrier"})
        elif roll < 0.88:
            stmts.append(_gen_mix(rng))
        else:
            stmts.append(_gen_op(rng, uniform_depth=uniform))
    if stmts:
        return stmts
    # Bodies must be non-empty; the one forced statement is still charged
    # against the budget so ``max_statements`` stays a hard cap.
    budget[0] -= 1
    return [_gen_op(rng, uniform_depth=uniform)]


def generate_spec(seed: int, block_dim: int = 16, grid_dim: int = 2,
                  max_statements: int = 24) -> KernelSpec:
    """Deterministically generate one kernel spec from ``seed``."""
    rng = random.Random(seed)
    budget = [max_statements]
    body = _gen_body(rng, depth=0, budget=budget, uniform=True, in_loop=False)
    return KernelSpec(seed=seed, block_dim=block_dim, grid_dim=grid_dim,
                      n=rng.randrange(1, 4), body=body)


# ---------------------------------------------------------------------------
# lowering: spec -> builder DSL -> IR
# ---------------------------------------------------------------------------

class _Lowering:
    """Emits one spec through a :class:`KernelBuilder`."""

    def __init__(self, spec: KernelSpec, name: str = "difftest") -> None:
        self.spec = spec
        self.k = KernelBuilder(name, params=[("a", GLOBAL_I32_PTR),
                                             ("b", GLOBAL_I32_PTR),
                                             ("n", I32)])
        self.shared = self.k.shared_array("stage", I32, spec.block_dim)
        self.tid = self.k.thread_id()
        self.gtid = self.k.global_thread_id()
        self._arrays = {"a": self.k.param("a"), "b": self.k.param("b")}

    def lower(self) -> KernelBuilder:
        self._emit_body(self.spec.body)
        self.k.finish()
        return self.k

    # ---- helpers ----------------------------------------------------------

    def _index(self, kind: str):
        k = self.k
        if kind == "rev":
            # block_base + (block_dim-1 - tid): bijective within the block
            base = k.sub(self.gtid, self.tid)
            return k.add(base, k.sub(k.const(self.spec.block_dim - 1),
                                     self.tid))
        return self.gtid

    def _cond_value(self, cond: Stmt):
        k, kind = self.k, cond["kind"]
        if kind == "parity":
            return k.icmp(ICmpPredicate.EQ, k.and_(self.tid, k.const(1)),
                          k.const(0))
        if kind == "stripe":
            return k.icmp(ICmpPredicate.EQ,
                          k.and_(self.tid, k.const(cond["bit"])), k.const(0))
        if kind == "half":
            return k.icmp(ICmpPredicate.SLT, self.tid,
                          k.const(self.spec.block_dim // 2))
        if kind == "data":
            value = k.load_at(self._arrays[cond["array"]], self.gtid)
            return k.icmp(ICmpPredicate.SGT, value,
                          k.const(cond["threshold"]))
        if kind == "uniform":
            return k.icmp(ICmpPredicate.SGT, k.param("n"),
                          k.const(cond["threshold"]))
        raise ValueError(f"unknown condition kind {kind!r}")

    # ---- statements -------------------------------------------------------

    def _emit_body(self, stmts: List[Stmt]) -> None:
        for stmt in stmts:
            getattr(self, "_emit_" + stmt["kind"])(stmt)

    def _emit_op(self, stmt: Stmt) -> None:
        k = self.k
        index = self._index(stmt.get("index", "id"))
        array = self._arrays[stmt["array"]]
        acc = k.load_at(array, index)
        for i, op in enumerate(stmt["ops"]):
            acc = OPS[op](k, acc, k.const(stmt["salt"] + i))
        k.store_at(array, index, acc)

    def _emit_mix(self, stmt: Stmt) -> None:
        k = self.k
        dst, src = self._arrays[stmt["dst"]], self._arrays[stmt["src"]]
        value = OPS[stmt["op"]](k, k.load_at(dst, self.gtid),
                                k.load_at(src, self.gtid))
        k.store_at(dst, self.gtid, value)

    def _emit_if(self, stmt: Stmt) -> None:
        cond = self._cond_value(stmt["cond"])
        els = stmt.get("else")
        self.k.if_(cond,
                   lambda: self._emit_body(stmt["then"]),
                   (lambda: self._emit_body(els)) if els else None,
                   name="r")

    def _emit_for(self, stmt: Stmt) -> None:
        k, bound = self.k, stmt["bound"]
        stop = (k.const(bound["trips"]) if bound["kind"] == "const"
                else k.param("n"))
        k.for_range("i", k.const(0), stop,
                    lambda i: self._emit_body(stmt["body"]))

    def _emit_divloop(self, stmt: Stmt) -> None:
        # Per-thread trip count: for (i = 0; i < (tid & mask) + 1; i++)
        k = self.k
        trips = k.add(k.and_(self.tid, k.const(stmt["mask"])), k.const(1))
        k.for_range("d", k.const(0), trips,
                    lambda i: self._emit_body(stmt["body"]))

    def _emit_barrier(self, stmt: Stmt) -> None:
        self.k.barrier()

    def _emit_shared_stage(self, stmt: Stmt) -> None:
        """a[gtid] op= neighbour via LDS: store, barrier, permuted load."""
        k = self.k
        shared = self.shared
        a = self._arrays["a"]
        k.store_at(shared, self.tid, k.load_at(a, self.gtid))
        k.barrier()
        neighbour = k.urem(k.add(self.tid, k.const(stmt["shift"])),
                           k.const(self.spec.block_dim))
        value = OPS[stmt["op"]](k, k.load_at(a, self.gtid),
                                k.load_at(shared, neighbour))
        k.barrier()
        k.store_at(a, self.gtid, value)


def build_kernel(spec: KernelSpec, name: str = "difftest") -> KernelBuilder:
    """Lower ``spec`` to verified SSA IR via the builder DSL."""
    return _Lowering(spec, name).lower()


def make_inputs(spec: KernelSpec, input_seed: int) -> Dict[str, object]:
    """Deterministic launch arguments for one input seed."""
    rng = random.Random(0xD1FF ^ (input_seed * 2654435761) ^ spec.seed)
    return {
        "a": [rng.randrange(-100, 100) for _ in range(spec.elements)],
        "b": [rng.randrange(-100, 100) for _ in range(spec.elements)],
        "n": spec.n,
    }
