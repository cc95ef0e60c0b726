"""Hardy-constant estimation routes.

Several independent routes to the best constant C in
sum_n w_n M(x_1..x_n, w_1..w_n) <= C sum_n w_n x_n:

- exact partial sums (arithmetic mean only), optionally certified with a
  tail bound into a two-sided interval,
- finite-section search (any mean), a lower bound by construction,
- the substitution x_n = y/W_n whose trailing terms approach the
  constant from below when weight sums diverge and term ratios are
  nonincreasing,
- the unweighted limit n * M(1, 1/2, ..., 1/n).

Routes either return an estimate with honest diagnostics or raise:
HypothesisViolation when a route's preconditions fail on the given
weights, InconclusiveError when a certified answer was requested but
cannot be produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .scalars import Number, exact_sum, json_ready
from .kernel import MeanDomainError, MeanSpec
from .families import power_order
from .search import OptimizerConfig, maximize_hardy_ratio, prefix_means
from .weights import WeightSeq, ratio_diagnostics, term_ratios

# trailing-window fraction for steady-state estimates and the a(N)-a(N/2)
# drift past which a route is flagged as trending upward instead of
# settling
STEADY_WINDOW = 0.5
DIVERGENCE_DRIFT = 0.05

DEFAULT_Y_GRID = tuple(2.0 ** k for k in range(-10, 11))


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

    Exact rationals when the sequence is exact. The partial sum is always
    a certified lower bound. With certified=True the tail is bounded by
    (remaining weight mass) / W_N, which needs a convergent weight sum;
    otherwise InconclusiveError.
    """
    if N < 1:
        raise ValueError("need N >= 1")
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


def _steady_stats(values: np.ndarray) -> Tuple[float, bool, float]:
    n = len(values)
    start = max(1, int(math.ceil(STEADY_WINDOW * n))) - 1
    steady = float(np.min(values[start:]))
    drift = float(values[-1] - values[n // 2 - 1]) if n >= 2 else 0.0
    return steady, drift > DIVERGENCE_DRIFT, drift


def _substitution_terms(mean: MeanSpec, w: np.ndarray, W: np.ndarray,
                        y: float) -> np.ndarray:
    if not y > 0:
        raise ValueError("need y > 0")
    return (W / y) * prefix_means(mean, y / W, w)


def kedlaya_sequence(mean: MeanSpec, lam: WeightSeq, y: float, N: int) -> np.ndarray:
    """a_n = (W_n / y) * M(y/W_1, ..., y/W_n; w_1..w_n) for n = 1..N."""
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
    """
    if N < 4:
        raise ValueError("need N >= 4")
    if lam.sum_diverges is not True:
        state = "converges" if lam.sum_diverges is False else "is not certified to diverge"
        raise HypothesisViolation(
            f"{lam.descriptor}: weight sum {state}; the substitution route "
            "needs divergent weight sums")
    w = lam.terms_floats(N)
    rep = ratio_diagnostics(lam, N, floats=w)
    if not rep.is_nonincreasing:
        raise HypothesisViolation(
            f"{lam.descriptor}: term/partial-sum ratios are not nonincreasing "
            f"over the first {N} terms")
    W = np.cumsum(w)
    per_y = []
    best = None
    for y in (1.0,) if power_order(mean) is not None else DEFAULT_Y_GRID:
        a = _substitution_terms(mean, w, W, y)
        if not np.all(np.isfinite(a)):
            per_y.append({"y": y, "finite": False})
            continue
        steady, trend, drift = _steady_stats(a)
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
    flagged; orders p < 1 settle toward the closed-form constant).
    """
    if N < 4:
        raise ValueError("need N >= 4")
    n = np.arange(1.0, N + 1.0)
    a = n * prefix_means(mean, 1.0 / n, np.ones(N))
    steady, trend, drift = _steady_stats(a)
    return HardyEstimate(
        kind="unweighted-limit", mean=mean.name, weights="ones", N=N,
        value=float(a[-1]),
        diagnostics={
            "half_value": float(a[N // 2 - 1]),
            "drift": drift,
            "divergent_trend": trend,
            "steady_min": steady,
        })
