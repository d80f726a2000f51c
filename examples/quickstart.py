"""Quickstart: meld a divergent kernel and measure the win.

Builds the paper's motivating shape — an if-then-else whose two sides do
similar work on different data — runs CFM on it, and compares simulated
execution before and after.  Everything here comes from the top-level
``repro`` facade: :func:`repro.meld` to run the melder in place, and
:func:`repro.launch` to execute on the simulated GPU.

Run:  python examples/quickstart.py
"""

import repro


def build_kernel() -> repro.KernelBuilder:
    """if (tid % 2 == 0) a[tid] = 3*a[tid]+1; else b[tid] = 3*b[tid]+7;"""
    k = repro.KernelBuilder("quickstart", params=[("a", repro.GLOBAL_I32_PTR),
                                                  ("b", repro.GLOBAL_I32_PTR)])
    tid = k.thread_id()
    parity = k.and_(tid, k.const(1))
    is_even = k.icmp(repro.ICmpPredicate.EQ, parity, k.const(0))

    def even_side() -> None:
        value = k.load_at(k.param("a"), tid)
        k.store_at(k.param("a"), tid, k.add(k.mul(value, k.const(3)), k.const(1)))

    def odd_side() -> None:
        value = k.load_at(k.param("b"), tid)
        k.store_at(k.param("b"), tid, k.add(k.mul(value, k.const(3)), k.const(7)))

    k.if_(is_even, even_side, odd_side, name="parity")
    k.finish()
    return k


def main() -> None:
    threads = 32
    data_a = list(range(threads))
    data_b = list(range(100, 100 + threads))

    baseline = build_kernel()
    print("=== original kernel ===")
    print(repro.print_function(baseline.function))
    base = repro.launch(baseline, grid=1, block=threads,
                        args={"a": list(data_a), "b": list(data_b)})

    melded = build_kernel()
    stats = repro.meld(melded)
    print("\n=== after control-flow melding ===")
    print(repro.print_function(melded.function))
    print(f"\nmelds performed: {len(stats.melds)} "
          f"(profitability {stats.melds[0].fp_s:.2f}, "
          f"{stats.melds[0].selects_inserted} selects)")
    after = repro.launch(melded, grid=1, block=threads,
                         args={"a": list(data_a), "b": list(data_b)})

    assert base.outputs == after.outputs, "melding must not change results"
    print("\n=== simulated execution (one warp of 32 threads) ===")
    print(f"baseline: {base.metrics.summary()}")
    print(f"melded:   {after.metrics.summary()}")
    print(f"\nspeedup: {base.metrics.cycles / after.metrics.cycles:.2f}x, "
          f"outputs identical: {base.outputs == after.outputs}")


if __name__ == "__main__":
    main()
