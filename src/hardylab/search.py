"""Finite-section maximizer for weighted Hardy ratios.

Maximizes R(x) = sum_n w_n M(x_1..x_n, w_1..w_n) / sum_n w_n x_n over
positive vectors x of fixed length. Any feasible x makes R(x) a valid
lower bound on the best constant, so the optimizer only has to find good
points, never certify optimality.

The inner loop is projected coordinate ascent: per coordinate a coarse
log-grid scan followed by golden-section refinement, with incremental
objective updates that touch only the suffix a coordinate change can
affect. Known mean families get O(N-j) candidate evaluation through a
running transform (power/quasi-arithmetic), a log-sum-exp chain (extreme
finite orders), or running extremes; anything else falls back to direct
prefix evaluation, which is quadratic and only sensible for small N.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .kernel import MeanSpec, evaluate

# transform path keeps raw powers x**p in float range for moderate orders;
# beyond this the log-sum-exp chain takes over
RAW_POWER_LIMIT = 16.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# hard cap on full coordinate sweeps per start, a backstop against cycling
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the finite-section search.

    starts counts built-in starting points (3 structured + the rest
    random); warm_starts are extra caller-supplied vectors. floor is the
    positivity floor for coordinates. max_updates caps accepted
    coordinate moves per start; rel_tol stops a start once a full sweep
    improves the objective by less than that fraction.
    """

    starts: int = 8
    seed: int = 0
    floor: float = 1e-12
    max_updates: int = 10_000
    rel_tol: float = 1e-10
    scan_points: int = 13
    span_decades: float = 10.0
    refine_iters: int = 24
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
    """Running-prefix objective for one mean over fixed weights."""

    def __init__(self, mean: MeanSpec, w: np.ndarray):
        self.mean = mean
        self.w = np.asarray(w, dtype=float)
        self.n = len(self.w)
        self.W = np.cumsum(self.w)
        self.mode = "generic"
        if mean.family == "power":
            p = float(mean.params)
            if math.isinf(p):
                self.mode = "min" if p < 0 else "max"
            elif p == 0.0:
                self.mode = "transform"
                self._phi, self._psi = np.log, np.exp
            elif abs(p) <= RAW_POWER_LIMIT:
                self.mode = "transform"
                inv = 1.0 / p
                self._phi = lambda u: np.power(u, p)
                self._psi = lambda v: np.power(v, inv)
            else:
                self.mode = "logsum"
                self.p = p
                self.logw = np.log(self.w)
                self.logW = np.log(self.W)
        elif mean.family == "quasiarithmetic":
            gen = mean.params
            self.mode = "transform"
            self._phi = _vectorized(gen.forward)
            self._psi = _vectorized(gen.inverse)

    # state: per-prefix means of the current x plus whatever running
    # quantity the fast path shifts (transform sums, log-sums, extremes)

    def means(self, x: np.ndarray) -> np.ndarray:
        """Per-prefix means of x, keeping the running quantity candidate()
        shifts."""
        w, W = self.w, self.W
        with np.errstate(all="ignore"):
            if self.mode == "transform":
                self.F = np.asarray(self._phi(x), dtype=float)
                self.T = np.cumsum(w * self.F)
                return np.asarray(self._psi(self.T / W), dtype=float)
            if self.mode == "logsum":
                c = self.logw + self.p * np.log(x)
                self.L = np.logaddexp.accumulate(c)
                return np.exp((self.L - self.logW) / self.p)
            if self.mode == "min":
                self.M = np.minimum.accumulate(x)
                return self.M
            if self.mode == "max":
                self.M = np.maximum.accumulate(x)
                return self.M
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
            elif self.mode == "logsum":
                c_suf = self.logw[j:] + self.p * np.log(self.x[j:])
                c_suf[0] = self.logw[j] + self.p * math.log(t)
                carry = self.L[j - 1] if j > 0 else -np.inf
                l_suf = np.logaddexp.accumulate(np.concatenate(([carry], c_suf)))[1:]
                mn_suf = np.exp((l_suf - self.logW[j:]) / self.p)
            elif self.mode in ("min", "max"):
                x_suf = self.x[j:].copy()
                x_suf[0] = t
                if self.mode == "min":
                    carry = self.M[j - 1] if j > 0 else np.inf
                    mn_suf = np.minimum.accumulate(np.concatenate(([carry], x_suf)))[1:]
                else:
                    carry = self.M[j - 1] if j > 0 else -np.inf
                    mn_suf = np.maximum.accumulate(np.concatenate(([carry], x_suf)))[1:]
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


def _ascend(mean: MeanSpec, w: np.ndarray, x0: np.ndarray,
            cfg: OptimizerConfig) -> Tuple[float, np.ndarray, bool, int]:
    eng = _PrefixEngine(mean, w)
    x = np.maximum(np.asarray(x0, dtype=float), cfg.floor)
    eng.rebuild(x)
    if not math.isfinite(eng.value):
        return -math.inf, x, False, 0
    updates = 0
    converged = False
    half = cfg.span_decades / 2.0
    log_floor = math.log10(cfg.floor)
    for _ in range(_MAX_SWEEPS):
        before = eng.value
        for j in range(eng.n):
            if updates >= cfg.max_updates:
                break
            u = math.log10(eng.x[j])
            grid = np.linspace(u - half, u + half, cfg.scan_points)
            grid = np.unique(np.maximum(grid, log_floor))
            vals = [eng.candidate(j, 10.0 ** g) for g in grid]
            k = int(np.argmax(vals))
            a = grid[max(k - 1, 0)]
            b = grid[min(k + 1, len(grid) - 1)]
            g_best, v_best = _golden_max(
                lambda g: eng.candidate(j, 10.0 ** g), a, b, cfg.refine_iters)
            if vals[k] > v_best:
                g_best, v_best = grid[k], vals[k]
            if v_best > eng.value * (1.0 + 1e-14) and math.isfinite(v_best):
                eng.x[j] = max(10.0 ** g_best, cfg.floor)
                eng.rebuild(eng.x)
                updates += 1
        if mean.flags.homogeneous and eng.D > 0 and math.isfinite(eng.D):
            eng.rebuild(np.maximum(eng.x / eng.D, cfg.floor))
        after = eng.value
        if updates >= cfg.max_updates:
            break
        if after - before <= cfg.rel_tol * max(1.0, abs(before)):
            converged = True
            break
    return eng.value, eng.x.copy(), converged, updates


def _structured_starts(w: np.ndarray, n_starts: int, seed: int,
                       floor: float) -> list:
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
        out.append(np.maximum(s / d if d > 0 else s, floor))
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
    starts = _structured_starts(w_arr, config.starts, config.seed, config.floor)
    for ws in config.warm_starts:
        v = np.asarray(ws, dtype=float)
        if v.shape != w_arr.shape:
            raise ValueError("warm starts must match the weight prefix length")
        starts.append(np.maximum(v, config.floor))

    outcomes = [_ascend(mean, w_arr, x0, config) for x0 in starts]

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
