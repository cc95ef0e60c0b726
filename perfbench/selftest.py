"""Self-test of the benchmark's correctness checks.

Every check in verify.py is fed a right value, which it must accept, and
a deliberately wrong one (a perturbed oracle, a non-monotone
rearrangement, a value over the cap, ...), which it must reject, so that
no check passes vacuously. The cases use small inputs built here and do
not import hardylab. run.py runs this before every benchmark run;
standalone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, List, Tuple

import numpy as np

import verify as V


def _search_cases():
    w = np.array([1.0, 0.5, 2.0, 1.0 / 3.0])
    half = V.power_generator(0.5)
    arith = V.power_generator(1.0)
    x = np.array([0.9, 0.1, 0.05, 0.02])
    good = V.hardy_ratio(half, x, w)
    dyadic = [Fraction(1, 2 ** n) for n in range(1, 5)]
    wd = np.array([float(t) for t in dyadic])
    oracle = V.arithmetic_oracle(dyadic)
    e1 = np.array([1.0, 1e-12, 1e-12, 1e-12])  # the p = 1 maximiser
    at_e1 = V.hardy_ratio(arith, e1, wd)
    start_x = 1.0 / np.cumsum(w)
    start = V.hardy_ratio(half, start_x, w)
    x_low = np.array([1e-12, 1e-12, 1e-12, 1.0])  # ratio well below the start's
    low = V.hardy_ratio(half, x_low, w)
    return [
        ("search value vs witness ratio",
         lambda: V.check_search("t", good, x, w, half),
         lambda: V.check_search("t", good * (1 + 1e-6), x, w, half)),
        ("search value vs start vector",
         lambda: V.check_search("t", start, start_x, w, half),
         lambda: V.check_search("t", low, x_low, w, half)),
        ("search value vs Fraction oracle",
         lambda: V.check_search("t", at_e1, e1, wd, arith, oracle=oracle),
         lambda: V.check_search("t", at_e1, e1, wd, arith, oracle=oracle * (1 + Fraction(1, 10 ** 4)))),
        ("search value vs Copson cap",
         lambda: V.check_search("t", good, x, w, half, cap=good + 1e-3),
         lambda: V.check_search("t", good, x, w, half, cap=good - 1e-3)),
    ]


def _exact_cases():
    lo, hi = V.erdos_borwein_bracket(64)
    lower = V.fraction_sum([Fraction(1, 2 ** n - 1) for n in range(1, 31)])
    upper = lower + Fraction(1, 2 ** 30 - 1)
    x = [Fraction(1), Fraction(3), Fraction(2)]
    w = [Fraction(2), Fraction(1, 2), Fraction(1)]
    y_good = [Fraction(11, 7)] * 3  # the weighted mean everywhere: sum kept, flat
    coarse = [Fraction(1), Fraction(3, 2)]
    fine = [Fraction(1), Fraction(5, 3)]
    return [
        ("Erdos-Borwein digits",
         lambda: V.check_equal("t", f"{float(lo):.10f}", V.ERDOS_BORWEIN_DIGITS),
         lambda: V.check_equal("t", f"{float(lo) + 1e-9:.10f}", V.ERDOS_BORWEIN_DIGITS)),
        ("interval holds the constant",
         lambda: V.check_interval("t", lower, upper, (lo, hi)),
         lambda: V.check_interval("t", lower, lower + Fraction(1, 2 ** 40), (lo, hi))),
        ("exact lower end",
         lambda: V.check_equal("t", lower, sum(Fraction(1, 2 ** n - 1) for n in range(1, 31))),
         lambda: V.check_equal("t", lower, sum(Fraction(1, 2 ** n - 1) for n in range(1, 30)))),
        ("rearrangement keeps the weighted sum",
         lambda: V.check_rearrangement("t", x, w, y_good),
         lambda: V.check_rearrangement("t", x, w, [Fraction(11, 7)] * 2 + [Fraction(2)])),
        ("rearrangement is nonincreasing",
         lambda: V.check_rearrangement("t", x, w, y_good),
         lambda: V.check_rearrangement("t", x, w, [Fraction(3, 2), Fraction(3), Fraction(2)])),
        ("cut: coarse <= fine",
         lambda: V.check_cut("t", coarse, fine, True, 0.0),
         lambda: V.check_cut("t", [Fraction(1), Fraction(2)], fine, True, -1 / 3)),
        ("cut: report agrees",
         lambda: V.check_cut("t", coarse, fine, True, 0.0),
         lambda: V.check_cut("t", coarse, fine, False, 0.0)),
        ("byte-identical rerun",
         lambda: V.check_identical("t", b'{"a": 1}\n', b'{"a": 1}\n'),
         lambda: V.check_identical("t", b'{"a": 1}\n', b'{"a": 2}\n')),
        ("exact equality",
         lambda: V.check_equal("t", Fraction(1, 3), Fraction(2, 6)),
         lambda: V.check_equal("t", Fraction(1, 3), 1 / 3)),
    ]


def _means_cases():
    e_ref = V.unweighted_value(V.power_generator(0.0), 2000)
    four = V.unweighted_value(V.power_generator(0.5), 10 ** 6)
    ked = V.kedlaya_value(V.power_generator(0.0), np.ones(200), (0.5, 1.0, 2.0), 0.5)
    steps = [4.0, 2.0, 1.0]
    widths = [Fraction(1), Fraction(1), Fraction(1)]
    grid = [Fraction(1), Fraction(2), Fraction(3)]
    runs = V.running_means(V.power_generator(1.0), steps, widths, grid)
    return [
        ("unweighted limit near e",
         lambda: V.check_near("t", e_ref, math.e, 0.005),
         lambda: V.check_near("t", e_ref * 1.01, math.e, 0.005)),
        ("unweighted limit near 4",
         lambda: V.check_near("t", four, 4.0, 0.003),
         lambda: V.check_near("t", 4.0 * 0.996, 4.0, 0.003)),
        ("value vs numpy reference",
         lambda: V.check_close("t", ked, ked, 1e-9),
         lambda: V.check_close("t", ked * (1 + 1e-8), ked, 1e-9)),
        ("running means of a decreasing profile",
         lambda: V.check_nonincreasing("t", runs, 1e-12),
         lambda: V.check_nonincreasing("t", V.running_means(
             V.power_generator(1.0), steps[::-1], widths, grid), 1e-12)),
        ("running means reference",
         lambda: V.check_close("t", runs[1], 3.0, 1e-12),
         lambda: V.check_close("t", runs[1], 3.0 + 1e-9, 1e-12)),
        ("report passed",
         lambda: V.check_passed("t", True),
         lambda: V.check_passed("t", False)),
    ]


def run_all() -> List[str]:
    """Problems found: checks that reject a right value or accept a wrong one."""
    problems = []
    cases: List[Tuple[str, Callable, Callable]] = _search_cases() + _exact_cases() + _means_cases()
    for name, good, bad in cases:
        try:
            good()
        except V.CheckFailed as exc:
            problems.append(f"{name}: rejects a right value ({exc})")
        try:
            bad()
        except V.CheckFailed:
            continue
        problems.append(f"{name}: accepts a wrong value")
    return problems


if __name__ == "__main__":
    found = run_all()
    for line in found:
        print(line)
    print(f"{'FAIL' if found else 'PASS'}: {len(found)} problem(s)")
    sys.exit(1 if found else 0)
