"""Hardy-constant estimation routes.

Several independent routes to the best constant C in
sum_n w_n M(x_1..x_n, w_1..w_n) <= C sum_n w_n x_n:

- exact partial sums (arithmetic mean only), optionally certified with a
  tail bound into a two-sided interval,
- finite-section search (any mean), a lower bound by construction,
- the substitution x_n = y/W_n whose trailing terms approach the
  constant from below when weight sums diverge and term ratios are
  nonincreasing,
- the unweighted limit n * M(1, 1/2, ..., 1/n), the substitution at unit
  weights and y = 1.

The last two stream their terms in blocks of _BLOCK, carrying the partial
sums and the prefix means' running state from block to block, so their
memory does not grow with N and they report what one pass over whole
arrays reports, bit for bit.

Routes either return an estimate with honest diagnostics or raise:
HypothesisViolation when a route's preconditions fail on the given
weights, InconclusiveError when a certified answer was requested but
cannot be produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scalars import Number, exact_sum, json_ready
from .kernel import MeanDomainError, MeanSpec
from .families import power_order
from .search import OptimizerConfig, _carries, _prefix_means, maximize_hardy_ratio
from .weights import (EXACT_RATIO_LIMIT, WeightSeq, make_sequence, ratio_diagnostics,
                      term_ratios)

# trailing-window fraction for steady-state estimates and the a(N)-a(N/2)
# drift past which a route is flagged as trending upward instead of
# settling
STEADY_WINDOW = 0.5
DIVERGENCE_DRIFT = 0.05

DEFAULT_Y_GRID = tuple(2.0 ** k for k in range(-10, 11))

# terms per block of the streamed substitution routes. It bounds their
# memory, O(block) and no array of length N, while keeping the per-block
# overhead small: unweighted_limit(power(0), 10**6) took 27.4, 20.1, 21.0
# and 44.3 ms at blocks of 2^12, 2^14, 2^16 and 2^18 terms (medians of 10
# interleaved runs on a 2-core VM) and traced a 4.2 MB peak at 2^16
_BLOCK = 1 << 16


class HypothesisViolation(ValueError):
    """The requested route's preconditions fail for these weights."""


class InconclusiveError(RuntimeError):
    """A certified answer was requested but cannot be produced."""


@dataclass(frozen=True)
class HardyEstimate:
    """One route's output: a headline value plus certification data.

    `lower`/`upper` are set only when the route actually certifies that
    side (exact rationals where available); `value` is always the float
    headline. Everything else lands in diagnostics.
    """

    kind: str
    mean: str
    weights: str
    N: int
    value: float
    lower: Optional[Number] = None
    upper: Optional[Number] = None
    witness: Optional[Tuple[float, ...]] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def direction(self) -> str:
        if self.lower is not None and self.upper is not None:
            return "interval"
        if self.lower is not None:
            return "lower_bound"
        return "estimate"

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "mean": self.mean,
            "weights": self.weights,
            "N": self.N,
            "value": self.value,
            "direction": self.direction,
            "diagnostics": json_ready(self.diagnostics),
        }
        if self.lower is not None:
            out["lower"] = json_ready(self.lower)
        if self.upper is not None:
            out["upper"] = json_ready(self.upper)
        if self.witness is not None:
            out["witness"] = [float(v) for v in self.witness]
        return out


# ---------------------------------------------------------------------------
# closed-form reference constants
# ---------------------------------------------------------------------------


def copson_constant(p: float) -> float:
    """Best constant (1-p)^(-1/p) for the power mean of order p over all
    admissible weights: e at p=0, 1 at p=-inf, infinite for p >= 1."""
    p = float(p)
    if math.isnan(p):
        raise ValueError("order must not be NaN")
    if p >= 1:
        return math.inf
    if p == 0.0:
        return math.e
    if math.isinf(p):
        return 1.0
    return math.exp(-math.log1p(-p) / p)


# ---------------------------------------------------------------------------
# arithmetic-mean exact routes
# ---------------------------------------------------------------------------


def arithmetic_hardy(lam: WeightSeq, N: int, *, certified: bool = False) -> HardyEstimate:
    """Partial sum of w_n / W_n, the arithmetic-mean constant truncated at N.

    Exact rationals when the sequence is exact. The partial sum is a lower
    bound, certified when exact. With certified=True the tail is bounded by
    (remaining weight mass) / W_N, which needs a certified tail bound;
    otherwise InconclusiveError, raised before any term is summed when the
    sequence is in float mode, since float weights certify nothing.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if certified and not lam.exact:
        raise InconclusiveError(
            f"{lam.descriptor}: float weights certify nothing, so the partial "
            "sum cannot be closed into a two-sided interval")
    if lam.exact:
        partial: Number = exact_sum(term_ratios(lam, N))
    else:
        terms = lam.terms_floats(N)
        partial = float(np.sum(terms / np.cumsum(terms)))
    diag = {"number_mode": lam.number_mode}
    upper = None
    if certified:
        tail = lam.tail_bound(N)
        if tail is None:
            raise InconclusiveError(
                f"{lam.descriptor}: no certified tail bound is available, so the "
                "partial sum cannot be closed into a two-sided interval")
        upper = partial + tail / lam.partial_sum(N)
        diag["tail_bound"] = json_ready(tail)
    return HardyEstimate(
        kind="certified-interval" if certified else "partial-sum",
        mean="power:1", weights=lam.descriptor, N=N,
        value=float(partial), lower=partial, upper=upper, diagnostics=diag)


# ---------------------------------------------------------------------------
# finite-section search
# ---------------------------------------------------------------------------


def finite_lower_bound(mean: MeanSpec, lam: WeightSeq, N: int,
                       config: OptimizerConfig = OptimizerConfig()) -> HardyEstimate:
    """Best Hardy ratio found over vectors supported on the first N terms."""
    if N < 1:
        raise ValueError("need N >= 1")
    res = maximize_hardy_ratio(mean, lam.terms_floats(N), config)
    return HardyEstimate(
        kind="finite-section", mean=mean.name, weights=lam.descriptor, N=N,
        value=res.value, lower=res.value if math.isfinite(res.value) else None,
        witness=res.witness,
        diagnostics={
            "solver": res.solver,
            "converged": res.converged,
            "iterations": res.iterations,
            "n_updates": res.n_updates,
            "upper_section": res.upper_section,
            "gap": res.gap,
            "start_values": list(res.start_values),
        })


# ---------------------------------------------------------------------------
# substitution and limit routes
# ---------------------------------------------------------------------------


class _Steady:
    """What the substitution routes report of one sequence a_1..a_N,
    reduced block by block in order: the least term of its trailing
    STEADY_WINDOW fraction, a_(N//2) and a_N, whether every term is
    finite; it is also the state of search._prefix_means, whose carry
    holds the running state of the prefix means between blocks."""

    def __init__(self, N: int):
        self.start = max(1, math.ceil(STEADY_WINDOW * N)) - 1
        self.half = N // 2 - 1
        self.mins = []
        self.finite = True
        self.carry = None

    def add(self, lo: int, a: np.ndarray) -> None:
        """Take in the block a_(lo+1), ..., a_(lo+len(a))."""
        hi = lo + len(a)
        self.finite = self.finite and bool(np.all(np.isfinite(a)))
        if hi > self.start:
            self.mins.append(np.min(a[max(self.start - lo, 0):]))
        if lo <= self.half < hi:
            self.at_half = a[self.half - lo]
        self.last = a[-1]

    def stats(self) -> Tuple[float, bool, float]:
        """(steady, divergent trend, drift a_N - a_(N//2))."""
        drift = float(self.last - self.at_half)
        return float(np.min(self.mins)), drift > DIVERGENCE_DRIFT, drift


def _substitution_terms(mean: MeanSpec, w: np.ndarray, W: np.ndarray, y: float,
                        state=None) -> np.ndarray:
    """a_n = (W_n / y) M_n over weights w with partial sums W, one block of
    a longer sequence when state carries its prefix means' running state
    (see search._prefix_means)."""
    return (W / y) * _prefix_means(mean, y / W, w, W, state)


def _substitution_stats(mean: MeanSpec, lam: WeightSeq, N: int, ys: Sequence[float],
                        nonincreasing: Optional[bool] = None
                        ) -> Tuple[List[_Steady], bool]:
    """The substitution sequence of each y of ys over the first N terms of
    lam, reduced by _Steady as it streams: _BLOCK terms at a time (an
    opaque mean in one block), the partial sum W carried from block to
    block, every y run over a block of weights before the next is read.

    Also the verdict on whether the ratios w_n / W_n are nonincreasing:
    nonincreasing when the caller knows it (from the exact ratios), and
    otherwise the float ratios' verdict as ratio_diagnostics' float path
    finds it, checked as they stream. Once the verdict is false the means
    are skipped, but the terms are still read, so that a term outside the
    float range raises first, as it did when all N were read at once."""
    rows = [_Steady(N) for _ in ys]
    total = last_ratio = None
    check = nonincreasing is None
    nonincreasing = nonincreasing is not False
    block = _BLOCK if _carries(mean) else N
    for lo in range(0, N, block):
        w = lam.terms_floats(N, lo, min(lo + block, N))
        W = np.cumsum(w if total is None else np.concatenate(([total + w[0]], w[1:])))
        total = W[-1]
        if check and nonincreasing:
            r = w / W
            nonincreasing = bool((last_ratio is None or last_ratio >= r[0])
                                 and np.all(r[:-1] >= r[1:]))
            last_ratio = r[-1]
        if nonincreasing:
            for y, row in zip(ys, rows):
                row.add(lo, _substitution_terms(mean, w, W, y, row))
    return rows, nonincreasing


def kedlaya_sequence(mean: MeanSpec, lam: WeightSeq, y: float, N: int) -> np.ndarray:
    """a_n = (W_n / y) * M(y/W_1, ..., y/W_n; w_1..w_n) for n = 1..N."""
    if not y > 0:
        raise ValueError("need y > 0")
    w = lam.terms_floats(N)
    return _substitution_terms(mean, w, np.cumsum(w), y)


def kedlaya_estimate(mean: MeanSpec, lam: WeightSeq, N: int) -> HardyEstimate:
    """Steady-state estimate from the substitution x_n = y/W_n.

    Requires divergent weight sums and nonincreasing term/partial-sum
    ratios (HypothesisViolation otherwise; unknown divergence also
    refuses, since the route's conclusion rests on it). For each y the
    steady value is the minimum of a_n over the trailing STEADY_WINDOW
    fraction of the sequence; the headline is the best y. A power mean
    (families.power_order is not None) is 1-homogeneous by its formula,
    so y cancels and only y = 1 is evaluated: per_y holds that one row,
    grid_spread is 0 and grid_collapsed is true. Every other mean
    runs the whole DEFAULT_Y_GRID, whatever its flags claim, and reports
    the observed spread. A row whose terms are not all finite (the mean
    overflowed) is marked {"y": y, "finite": false} in per_y and left out
    of the best y and the spread; MeanDomainError if every row is.

    The terms stream in blocks (_substitution_stats), so memory does not
    grow with N. An exact sequence of at most EXACT_RATIO_LIMIT terms has
    its ratios checked exactly; longer or float ones, on the streamed
    floats.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    if lam.sum_diverges is not True:
        state = "converges" if lam.sum_diverges is False else "is not certified to diverge"
        raise HypothesisViolation(
            f"{lam.descriptor}: weight sum {state}; the substitution route "
            "needs divergent weight sums")
    ys = (1.0,) if power_order(mean) is not None else DEFAULT_Y_GRID
    # exact and float ratios can disagree: geometric:3/2's exact ratios
    # fall toward 1/3, and their floats stall there and rise by an ulp
    exact = lam.exact and N <= EXACT_RATIO_LIMIT
    rows, nonincreasing = _substitution_stats(
        mean, lam, N, ys, ratio_diagnostics(lam, N).is_nonincreasing if exact else None)
    if not nonincreasing:
        raise HypothesisViolation(
            f"{lam.descriptor}: term/partial-sum ratios are not nonincreasing "
            f"over the first {N} terms")
    per_y = []
    best = None
    for y, a in zip(ys, rows):
        if not a.finite:
            per_y.append({"y": y, "finite": False})
            continue
        steady, trend, drift = a.stats()
        row = {"y": y, "steady": steady, "divergent_trend": trend, "drift": drift}
        per_y.append(row)
        if best is None or steady > best[0]:
            best = (steady, row)
    if best is None:
        raise MeanDomainError(f"{mean.name}: no y of the grid gives finite terms")
    steady, row = best
    spread = float(np.ptp([r["steady"] for r in per_y if "steady" in r]))
    return HardyEstimate(
        kind="substitution", mean=mean.name, weights=lam.descriptor, N=N,
        value=steady, lower=None,
        diagnostics={
            "window": STEADY_WINDOW,
            "y_best": row["y"],
            "grid_spread": spread,
            "grid_collapsed": spread <= 1e-9 * max(1.0, abs(steady)),
            "divergent_trend": row["divergent_trend"],
            "drift": row["drift"],
            "per_y": per_y,
        })


def unweighted_limit(mean: MeanSpec, N: int) -> HardyEstimate:
    """n * M(1, 1/2, ..., 1/n) with unit weights, evaluated at n = N.

    The drift between N/2 and N distinguishes settling routes from
    divergent ones (the arithmetic mean gives harmonic numbers and is
    flagged; orders p < 1 settle toward the closed-form constant). The
    sequence is kedlaya_sequence(mean, ones, 1.0, N), streamed as
    kedlaya_estimate streams it.
    """
    if N < 4:
        raise ValueError("need N >= 4")
    # the ratios 1/n of unit weights fall
    (a,), _ = _substitution_stats(mean, make_sequence("ones"), N, (1.0,), True)
    steady, trend, drift = a.stats()
    return HardyEstimate(
        kind="unweighted-limit", mean=mean.name, weights="ones", N=N,
        value=float(a.last),
        diagnostics={
            "half_value": float(a.at_half),
            "drift": drift,
            "divergent_trend": trend,
            "steady_min": steady,
        })
