"""Correctness checks for the benchmark's outputs.

Two kinds of code live here, both independent of hardylab:

- references: numbers computed apart from the program (numpy prefix
  means, exact Fraction sums, a Clausen-series bracket of the
  Erdos-Borwein constant);
- checks: functions that compare an output with a reference, or test a
  property the method must have, and raise CheckFailed otherwise.

selftest.py feeds every check a deliberately wrong value and confirms
that it is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np


class CheckFailed(AssertionError):
    """An output failed a correctness check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _show(value) -> str:
    """repr for messages; a Fraction too long to print shows as a float."""
    if isinstance(value, Fraction) and value.denominator.bit_length() > 256:
        return f"{float(value)!r} (a Fraction of {value.denominator.bit_length()} bits)"
    return repr(value)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

# A quasi-arithmetic mean as a (forward, inverse) pair of numpy ufuncs;
# power means of order p are the pair (t**p, t**(1/p)), order 0 is (log, exp).
Generator = Tuple[Callable, Callable]


def power_generator(p: float) -> Generator:
    if p == 0:
        return np.log, np.exp
    return (lambda t: np.power(t, p)), (lambda v: np.power(v, 1.0 / p))


CUBE: Generator = (lambda t: t ** 3, np.cbrt)


def prefix_means(gen: Generator, x, w) -> np.ndarray:
    """M_n = inverse(sum_{k<=n} w_k forward(x_k) / W_n) for n = 1..len(x)."""
    fwd, inv = gen
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return inv(np.cumsum(w * fwd(x)) / np.cumsum(w))


def hardy_ratio(gen: Generator, x, w) -> float:
    """sum_n w_n M_n(x) / sum_n w_n x_n."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return float(np.dot(w, prefix_means(gen, x, w)) / np.dot(w, x))


def start_ratio(gen: Generator, w) -> float:
    """Hardy ratio at the start vector x_n = 1/W_n."""
    w = np.asarray(w, dtype=float)
    return hardy_ratio(gen, 1.0 / np.cumsum(w), w)


def fraction_sum(values: Sequence[Fraction]) -> Fraction:
    """Exact sum by pairwise splitting, so operands grow evenly."""
    vals = list(values)
    if not vals:
        return Fraction(0)
    while len(vals) > 1:
        nxt = [a + b for a, b in zip(vals[0::2], vals[1::2])]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def arithmetic_oracle(terms: Sequence[Fraction]) -> Fraction:
    """Exact sum of w_n / W_n over the given weight terms."""
    out, W = [], Fraction(0)
    for t in terms:
        W += t
        out.append(t / W)
    return fraction_sum(out)


def erdos_borwein_bracket(bits: int) -> Tuple[Fraction, Fraction]:
    """Exact bracket [lo, hi] of E = sum_{n>=1} 1/(2^n - 1), hi - lo < 2^-bits.

    Uses Clausen's series E = sum_{n>=1} 2^{-n^2} (2^n + 1)/(2^n - 1),
    whose terms fall like 2^{-n^2}; for n >= 2 each term is below
    (5/3) 2^{-n^2}, so the tail past K is below (10/3) 2^{-(K+1)^2}.
    """
    K = 1
    while (K + 1) ** 2 < bits + 4:
        K += 1
    lo = fraction_sum([Fraction(2 ** n + 1, (2 ** n - 1) * 2 ** (n * n))
                       for n in range(1, K + 1)])
    return lo, lo + Fraction(10, 3 * 2 ** ((K + 1) ** 2))


ERDOS_BORWEIN_DIGITS = "1.6066951524"


def lsc_row_values(kmax: int, N: int) -> Tuple[float, List[float]]:
    """Float sums of w_n/W_n for dyadic weights (baseline) and for dyadic
    weights with term k raised to 1, k = 1..kmax."""
    base = np.ldexp(1.0, -np.arange(1, N + 1))

    def arith(w):
        return float(np.sum(w / np.cumsum(w)))

    rows = []
    for k in range(1, kmax + 1):
        w = base.copy()
        w[k - 1] = 1.0
        rows.append(arith(w))
    return arith(base), rows


def running_means(gen: Generator, x: Sequence[float], widths: Sequence[Fraction],
                  grid: Sequence[Fraction]) -> List[float]:
    """Mean of the step profile (x_k on consecutive intervals of the given
    widths) over (0, u] for each u in grid."""
    out = []
    for u in grid:
        vals, lens, left = [], [], Fraction(0)
        for v, width in zip(x, widths):
            right = left + width
            if left >= u:
                break
            vals.append(v)
            lens.append(float(min(right, u) - left))
            left = right
        out.append(float(prefix_means(gen, vals, lens)[-1]))
    return out


def kedlaya_value(gen: Generator, w, y_grid: Iterable[float], window: float) -> float:
    """Best over y of the trailing-window minimum of
    a_n = (W_n / y) M_n(y/W_1, ..., y/W_n)."""
    w = np.asarray(w, dtype=float)
    W = np.cumsum(w)
    start = max(1, math.ceil(window * len(w))) - 1
    return max(float(np.min(((W / y) * prefix_means(gen, y / W, w))[start:]))
               for y in y_grid)


def unweighted_value(gen: Generator, N: int) -> float:
    """N * M(1, 1/2, ..., 1/N) with unit weights."""
    k = np.arange(1.0, N + 1.0)
    return float(N * prefix_means(gen, 1.0 / k, np.ones(N))[-1])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_close(what: str, got: float, want: float, rtol: float) -> None:
    require(abs(got - want) <= rtol * max(abs(want), 1e-300),
            f"{what}: {got!r} differs from reference {want!r} by more than rel {rtol}")


def check_near(what: str, got: float, target: float, rel: float) -> None:
    require(abs(got - target) / abs(target) < rel,
            f"{what}: {got!r} is not within {rel:.2%} of {target!r}")


def check_equal(what: str, got, want) -> None:
    require(got == want, f"{what}: {_show(got)} != {_show(want)}")


def check_search(what: str, value: float, witness, w, gen: Generator, *,
                 oracle: Fraction = None, cap: float = None) -> None:
    """A finite-section value is the Hardy ratio at its witness, is no
    worse than the start vector 1/W_n, matches the exact oracle when there
    is one, and stays under the closed-form cap when there is one."""
    check_close(f"{what} value vs ratio at witness", value, hardy_ratio(gen, witness, w), 1e-9)
    start = start_ratio(gen, w)
    require(value >= start * (1 - 1e-12),
            f"{what}: value {value!r} is below the start-vector ratio {start!r}")
    if oracle is not None:
        check_close(f"{what} value vs Fraction oracle", value, float(oracle), 1e-6)
    if cap is not None:
        require(value <= cap, f"{what}: value {value!r} exceeds the cap {cap!r}")


def check_interval(what: str, lower: Fraction, upper: Fraction,
                   bracket: Tuple[Fraction, Fraction]) -> None:
    """[lower, upper] contains the exactly bracketed constant."""
    lo, hi = bracket
    require(lower <= lo and hi <= upper,
            f"{what}: interval [{float(lower)!r}, {float(upper)!r}] does not hold "
            f"the constant bracketed by [{float(lo)!r}, {float(hi)!r}]")


def check_rearrangement(what: str, x: Sequence[Fraction], w: Sequence[Fraction],
                        y: Sequence[Fraction]) -> None:
    """y keeps the weighted sum of x exactly and is nonincreasing."""
    require(len(y) == len(x), f"{what}: rearrangement has length {len(y)}, expected {len(x)}")
    require(sum(a * b for a, b in zip(y, w)) == sum(a * b for a, b in zip(x, w)),
            f"{what}: rearrangement changes the weighted sum")
    require(all(a >= b for a, b in zip(y, y[1:])),
            f"{what}: rearrangement is not nonincreasing: {[float(v) for v in y]}")


def check_cut(what: str, coarse: Sequence[Fraction], fine: Sequence[Fraction],
              passed: bool, margin: float) -> None:
    """coarse <= fine at every truncation, and the report agrees."""
    slacks = [f - c for c, f in zip(coarse, fine)]
    bad = [m + 1 for m, s in enumerate(slacks) if s < 0]
    require(not bad, f"{what}: coarse sum exceeds fine sum at truncations {bad[:8]}")
    require(passed, f"{what}: report says fail where every truncation holds")
    check_close(f"{what} margin", margin, float(min(slacks)), 1e-9)


def check_nonincreasing(what: str, values: Sequence[float], tol: float) -> None:
    bad = [i for i in range(len(values) - 1) if values[i + 1] > values[i] + tol]
    require(not bad, f"{what}: values increase at positions {bad[:8]}")


def check_passed(what: str, passed: bool) -> None:
    require(passed is True, f"{what}: check reports failure")


def check_identical(what: str, a: bytes, b: bytes) -> None:
    require(len(a) > 0 and a == b, f"{what}: repeated command output differs")
