#!/usr/bin/env python3
"""Track finite-section lower bounds as the section grows.

Solves the finite section once per size of a doubling ladder and prints
one row per size, next to the closed-form cap when the mean has one.
Power means also show upper section, the solver's certified bound on the
supremum of that N-section ("-" for means the coordinate ascent solves),
so each row brackets its section. Useful for eyeballing how quickly the
bounds saturate, and for choosing an N that is large enough before
burning CPU on a long sweep.

    python3 scripts/convergence_study.py --mean power:1/2 --weights dyadic
    python3 scripts/convergence_study.py --mean power:0 --weights ones --max-n 512
"""

import argparse
import math
import sys

from hardylab.families import parse_mean, power_order
from hardylab.hardy import copson_constant, finite_lower_bound
from hardylab.weights import make_sequence


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mean", default="power:1/2", help="mean descriptor")
    ap.add_argument("--weights", default="dyadic", help="weight descriptor")
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=128)
    args = ap.parse_args()

    mean = parse_mean(args.mean)
    lam = make_sequence(args.weights)
    sizes = []
    n = args.min_n
    while n <= args.max_n:
        sizes.append(n)
        n *= 2

    p = power_order(mean)
    cap = None if p is None else copson_constant(p)

    print(f"# mean={mean.name} weights={args.weights}")
    header = f"{'N':>8}  {'lower bound':>20}  {'upper section':>20}  {'gain':>12}"
    if cap is not None and math.isfinite(cap):
        header += f"  {'cap - bound':>14}"
    print(header)
    prev = None
    for est in (finite_lower_bound(mean, lam, N) for N in sizes):
        gain = "" if prev is None else f"{est.value - prev:.3e}"
        upper = est.diagnostics["upper_section"]
        upper = "-" if upper is None else f"{upper:.15f}"
        row = f"{est.N:>8}  {est.value:>20.15f}  {upper:>20}  {gain:>12}"
        if cap is not None and math.isfinite(cap):
            row += f"  {cap - est.value:>14.3e}"
        print(row)
        prev = est.value
    if cap is not None and math.isfinite(cap):
        print(f"# closed-form cap at unit weights: {cap!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
