"""Finite-section maximizer for weighted Hardy ratios.

Maximizes R(x) = sum_n w_n M(x_1..x_n, w_1..w_n) / sum_n w_n x_n over
positive vectors x of fixed length. Any feasible x makes R(x) a valid
lower bound on the best constant, so the optimizer only has to find good
points, never certify optimality.

The inner loop is projected coordinate ascent: per coordinate a coarse
log-grid scan followed by golden-section refinement, with incremental
objective updates that touch only the suffix a coordinate change can
affect. Known mean families get O(N-j) candidate evaluation through a
running transform (power orders up to families.RAW_POWER_LIMIT and
quasi-arithmetic means) or a running accumulation (min, max, and
log-sum-exp for larger orders); anything else falls back to direct prefix
evaluation, which is quadratic and only sensible for small N.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .families import order_regime
from .kernel import MeanSpec, evaluate

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# positivity floor for coordinates
_FLOOR = 1e-12
# per coordinate: a scan of _SCAN_POINTS log-spaced values over
# _SPAN_DECADES decades around the current one, then _REFINE_ITERS
# golden-section steps
_SCAN_POINTS = 13
_SPAN_DECADES = 10.0
_REFINE_ITERS = 24
# a start stops after _MAX_UPDATES accepted coordinate moves, or once a full
# sweep improves the objective by less than the fraction _REL_TOL
_MAX_UPDATES = 10_000
_REL_TOL = 1e-10
# hard cap on full coordinate sweeps per start, a backstop against cycling
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class OptimizerConfig:
    """What a caller chooses about the finite-section search.

    starts counts built-in starting points (3 structured + the rest
    random, seeded by seed); warm_starts are extra caller-supplied
    vectors. The step schedule and stopping rules are the module
    constants _FLOOR, _SCAN_POINTS, _SPAN_DECADES, _REFINE_ITERS,
    _MAX_UPDATES, _REL_TOL and _MAX_SWEEPS.
    """

    starts: int = 8
    seed: int = 0
    warm_starts: Tuple[Tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class SearchResult:
    value: float
    witness: Tuple[float, ...]
    converged: bool
    n_updates: int
    start_values: Tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "converged": self.converged,
            "n_updates": self.n_updates,
            "start_values": list(self.start_values),
        }


def _vectorized(fn: Callable) -> Callable:
    probe = np.array([1.0, 2.0])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


class _PrefixEngine:
    """Running-prefix objective for one mean over fixed weights.

    The power family's order picks the mode through families.order_regime,
    the rule power_mean follows too:

    - "transform" (power orders up to RAW_POWER_LIMIT, quasi-arithmetic
      means): keeps F = phi(x) and T = cumsum(w * F); a candidate shifts
      the suffix of T by w[j] * (phi(t) - F[j]).
    - "accumulate" (min, max, larger power orders in the log domain): keeps
      per-entry terms C and their running accumulation A under one ufunc
      (np.minimum, np.maximum or np.logaddexp); a candidate replaces one
      term and re-accumulates the suffix from A[j-1]. An output map turns
      A into the means.
    - "generic": evaluates every prefix directly, quadratic in N.
    """

    def __init__(self, mean: MeanSpec, w: np.ndarray):
        self.mean = mean
        self.w = np.asarray(w, dtype=float)
        self.n = len(self.w)
        self.W = np.cumsum(self.w)
        self.mode = "generic"
        if mean.family == "power":
            p = float(mean.params)
            regime = order_regime(p)
            if regime in ("min", "max"):
                ufunc, carry = ((np.minimum, np.inf) if regime == "min"
                                else (np.maximum, -np.inf))
                self._accumulate(ufunc, carry, lambda x: x, lambda j, t: t,
                                 lambda a, j: a)
            elif regime == "log":
                logw, logW = np.log(self.w), np.log(self.W)
                self._accumulate(np.logaddexp, -np.inf,
                                 lambda x: logw + p * np.log(x),
                                 lambda j, t: logw[j] + p * math.log(t),
                                 lambda a, j: np.exp((a - logW[j:]) / p))
            elif regime == "geometric":
                self._transform(np.log, np.exp)
            elif regime == "near_geometric":
                self._transform(lambda u: np.expm1(p * np.log(u)),
                                lambda v: np.exp(np.log1p(v) / p))
            else:
                inv = 1.0 / p
                self._transform(lambda u: np.power(u, p),
                                lambda v: np.power(v, inv))
        elif mean.family == "quasiarithmetic":
            gen = mean.params
            self._transform(_vectorized(gen.forward), _vectorized(gen.inverse))

    def _transform(self, phi: Callable, psi: Callable) -> None:
        self.mode, self._phi, self._psi = "transform", phi, psi

    def _accumulate(self, ufunc, carry: float, terms: Callable, term: Callable,
                    out: Callable) -> None:
        """terms(x) -> C for a whole vector, term(j, t) -> C[j] at x[j] = t,
        out(A[j:], j) -> means of prefixes j+1..n; carry is the ufunc's
        identity, the accumulation before the first entry."""
        self.mode = "accumulate"
        self._ufunc, self._carry = ufunc, carry
        self._terms, self._term, self._out = terms, term, out

    # state: per-prefix means of the current x plus the running quantity
    # candidate() shifts (transform sums T, accumulations A)

    def means(self, x: np.ndarray) -> np.ndarray:
        """Per-prefix means of x, keeping the running quantity candidate()
        shifts."""
        w, W = self.w, self.W
        with np.errstate(all="ignore"):
            if self.mode == "transform":
                self.F = np.asarray(self._phi(x), dtype=float)
                self.T = np.cumsum(w * self.F)
                return np.asarray(self._psi(self.T / W), dtype=float)
            if self.mode == "accumulate":
                self.C = self._terms(x)
                self.A = self._ufunc.accumulate(self.C)
                return self._out(self.A, 0)
            return np.array([evaluate(self.mean, x[: k + 1], w[: k + 1])
                             for k in range(self.n)])

    def rebuild(self, x: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=float)
        self.mn = self.means(self.x)
        self.PN = np.cumsum(self.w * self.mn)
        self.D = float(np.dot(self.w, self.x))
        num = float(self.PN[-1])
        self.value = num / self.D if math.isfinite(num) and self.D > 0 else -math.inf

    def candidate(self, j: int, t: float) -> float:
        """Objective after setting x[j] = t, leaving the rest fixed."""
        w, W = self.w, self.W
        head = float(self.PN[j - 1]) if j > 0 else 0.0
        with np.errstate(all="ignore"):
            if self.mode == "transform":
                delta = w[j] * (float(self._phi(t)) - self.F[j])
                mn_suf = np.asarray(self._psi((self.T[j:] + delta) / W[j:]), dtype=float)
            elif self.mode == "accumulate":
                buf = np.empty(self.n - j + 1)
                buf[0] = self.A[j - 1] if j > 0 else self._carry
                buf[1] = self._term(j, t)
                buf[2:] = self.C[j + 1:]
                mn_suf = self._out(self._ufunc.accumulate(buf)[1:], j)
            else:
                x_new = self.x.copy()
                x_new[j] = t
                mn_suf = np.array([
                    evaluate(self.mean, x_new[: k + 1], w[: k + 1])
                    for k in range(j, self.n)
                ])
            num = head + float(np.dot(w[j:], mn_suf))
        den = self.D + w[j] * (t - self.x[j])
        if not (math.isfinite(num) and den > 0):
            return -math.inf
        return num / den


def prefix_means(mean: MeanSpec, x: Sequence[float], w: Sequence[float]) -> np.ndarray:
    """M(x_1..x_n; w_1..w_n) for n = 1..len(w), through the same running
    formulas the search evaluates."""
    return _PrefixEngine(mean, w).means(np.asarray(x, dtype=float))


def hardy_ratio(mean: MeanSpec, x: Sequence[float], w: Sequence[float], *,
                dense_check: bool = False) -> float:
    """Hardy ratio of a concrete vector, recomputed from scratch.

    Spot-checks the fast prefix path against direct mean evaluation on a
    few prefixes (all of them under dense_check) so a fast-path bug
    cannot silently inflate reported bounds.
    """
    w_arr = np.asarray(w, dtype=float)
    eng = _PrefixEngine(mean, w_arr)
    eng.rebuild(np.asarray(x, dtype=float))
    idx = range(eng.n) if dense_check else sorted({0, eng.n // 2, eng.n - 1})
    for k in idx:
        direct = evaluate(mean, list(eng.x[: k + 1]), list(w_arr[: k + 1]))
        fast = float(eng.mn[k])
        if abs(fast - direct) > 1e-8 * max(1.0, abs(direct)):
            raise AssertionError(
                f"prefix-mean fast path disagrees with direct evaluation at "
                f"prefix {k + 1}: {fast!r} vs {direct!r}")
    return eng.value


def _golden_max(f: Callable[[float], float], a: float, b: float,
                iters: int) -> Tuple[float, float]:
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _ascend(mean: MeanSpec, w: np.ndarray,
            x0: np.ndarray) -> Tuple[float, np.ndarray, bool, int]:
    eng = _PrefixEngine(mean, w)
    x = np.maximum(np.asarray(x0, dtype=float), _FLOOR)
    eng.rebuild(x)
    if not math.isfinite(eng.value):
        return -math.inf, x, False, 0
    updates = 0
    converged = False
    half = _SPAN_DECADES / 2.0
    log_floor = math.log10(_FLOOR)
    for _ in range(_MAX_SWEEPS):
        before = eng.value
        for j in range(eng.n):
            if updates >= _MAX_UPDATES:
                break
            u = math.log10(eng.x[j])
            grid = np.linspace(u - half, u + half, _SCAN_POINTS)
            grid = np.unique(np.maximum(grid, log_floor))
            vals = [eng.candidate(j, 10.0 ** g) for g in grid]
            k = int(np.argmax(vals))
            a = grid[max(k - 1, 0)]
            b = grid[min(k + 1, len(grid) - 1)]
            g_best, v_best = _golden_max(
                lambda g: eng.candidate(j, 10.0 ** g), a, b, _REFINE_ITERS)
            if vals[k] > v_best:
                g_best, v_best = grid[k], vals[k]
            if v_best > eng.value * (1.0 + 1e-14) and math.isfinite(v_best):
                eng.x[j] = max(10.0 ** g_best, _FLOOR)
                eng.rebuild(eng.x)
                updates += 1
        if mean.flags.homogeneous and eng.D > 0 and math.isfinite(eng.D):
            eng.rebuild(np.maximum(eng.x / eng.D, _FLOOR))
        after = eng.value
        if updates >= _MAX_UPDATES:
            break
        if after - before <= _REL_TOL * max(1.0, abs(before)):
            converged = True
            break
    return eng.value, eng.x.copy(), converged, updates


def _structured_starts(w: np.ndarray, n_starts: int, seed: int) -> list:
    W = np.cumsum(w)
    starts = [
        np.full(len(w), 1.0 / W[-1]),
        1.0 / W,
        np.array([0.5 ** (k + 1) / w[k] for k in range(len(w))]),
    ][: max(n_starts, 1)]
    for i in range(len(starts), n_starts):
        rng = random.Random(f"hardylab-search:{seed}:{i}")
        starts.append(np.array([math.exp(rng.gauss(0.0, 2.0)) for _ in w]))
    out = []
    for s in starts:
        d = float(np.dot(w, s))
        out.append(np.maximum(s / d if d > 0 else s, _FLOOR))
    return out


def maximize_hardy_ratio(mean: MeanSpec, w: Sequence[float],
                         config: OptimizerConfig = OptimizerConfig()) -> SearchResult:
    """Multistart coordinate ascent on the Hardy ratio of a weight prefix.

    Deterministic for a fixed config: starts are seeded by index, results
    are reduced by best value with lexicographically smallest witness as
    the tie-break. The returned value is recomputed fresh at the witness
    rather than trusted from the incremental bookkeeping.
    """
    w_arr = np.asarray(w, dtype=float)
    if w_arr.ndim != 1 or len(w_arr) == 0:
        raise ValueError("need a nonempty 1-d weight prefix")
    if not np.all(np.isfinite(w_arr)) or not np.all(w_arr > 0):
        raise ValueError("weights must be positive and finite")
    starts = _structured_starts(w_arr, config.starts, config.seed)
    for ws in config.warm_starts:
        v = np.asarray(ws, dtype=float)
        if v.shape != w_arr.shape:
            raise ValueError("warm starts must match the weight prefix length")
        starts.append(np.maximum(v, _FLOOR))

    outcomes = [_ascend(mean, w_arr, x0) for x0 in starts]

    best = max(outcomes, key=lambda o: (o[0], tuple(-c for c in o[1])))
    value, witness, conv, _ = best
    total_updates = sum(o[3] for o in outcomes)
    if math.isfinite(value):
        value = hardy_ratio(mean, witness, w_arr)
    return SearchResult(
        value=value,
        witness=tuple(float(v) for v in witness),
        converged=conv,
        n_updates=total_updates,
        start_values=tuple(o[0] for o in outcomes),
    )
