"""Command-line front door to the IR tooling:

    python -m repro.ir kernel.ll                  # parse + verify + print
    python -m repro.ir kernel.ll --optimize       # run the -O3 pipeline
    python -m repro.ir kernel.ll --cfm            # meld + the late cleanups
    python -m repro.ir kernel.ll --dot out.dot    # export the CFG
    python -m repro.ir kernel.ll --divergence     # annotate divergent branches

Input files use the textual IR dialect of :mod:`repro.ir.printer` (an
LLVM-flavoured subset; see tests/ir/test_parser_printer.py for examples).
"""

from __future__ import annotations

import argparse
import sys

from .parser import ParseError, parse_module
from .printer import print_module
from .verifier import VerificationError, verify_function


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ir",
        description="Parse, verify, optimize and export textual IR.")
    parser.add_argument("input", help="textual IR file ('-' for stdin)")
    parser.add_argument("--optimize", action="store_true",
                        help="run the -O3 pipeline on every function")
    parser.add_argument("--cfm", action="store_true",
                        help="run control-flow melding and the late cleanups")
    parser.add_argument("--dot", metavar="FILE",
                        help="write a Graphviz CFG (first function)")
    parser.add_argument("--divergence", action="store_true",
                        help="report divergent branches per function")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the printed module")
    args = parser.parse_args(argv)

    text = sys.stdin.read() if args.input == "-" else open(args.input).read()
    try:
        module = parse_module(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1

    for function in module.functions.values():
        try:
            verify_function(function)
        except VerificationError as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return 2

    if args.optimize or args.cfm:
        # Lazy: the driver imports this package.
        from repro.pipeline import compile_arm

        for function in module.functions.values():
            result = compile_arm(
                function, (args.optimize, "cfm" if args.cfm else None))
            if args.cfm:
                print(f"; @{function.name}: {result.melds} melds",
                      file=sys.stderr)

    if args.divergence:
        from repro.analysis import compute_divergence

        for function in module.functions.values():
            info = compute_divergence(function)
            names = sorted(b.name for b in info.divergent_branch_blocks)
            print(f"; @{function.name} divergent branches: "
                  f"{', '.join(names) or '(none)'}", file=sys.stderr)

    if args.dot:
        from .dot import melding_stages_to_dot

        first = next(iter(module.functions.values()))
        with open(args.dot, "w") as handle:
            handle.write(melding_stages_to_dot(first))
        print(f"; wrote {args.dot}", file=sys.stderr)

    if not args.quiet:
        print(print_module(module))
    return 0


if __name__ == "__main__":
    sys.exit(main())
