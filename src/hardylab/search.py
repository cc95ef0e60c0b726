"""Finite-section maximizer for weighted Hardy ratios.

Maximizes R(x) = sum_n w_n M(x_1..x_n, w_1..w_n) / sum_n w_n x_n over
positive vectors x of fixed length. Any feasible x makes R(x) a valid
lower bound on the best constant.

The solver follows the mean's structure. For a power mean of order p,
A(x) = sum_n w_n M_n(x) is 1-homogeneous, convex for p >= 1 and concave
for p <= 1, and families.order_regime picks the route:

- "vertex" (p >= 1 and max): a convex ratio peaks at a vertex e_k of the
  simplex <w, x> = 1, and all N vertex ratios come in closed form in O(N).
  The largest is the supremum of the section; no start is evaluated.
- "fixed-point" (p < 1 and min): one iteration from 1/W_n, or from a warm
  start with a higher ratio. Each update tries a safeguarded Newton step
  of the concave program max log A(x) - <w, x> (whose maximizers, scaled
  to <w, x> = 1, are the ratio's), solved in O(N) through the nested
  prefix softmaxes (_PowerSection.newton), and otherwise takes the
  multiplicative update x_k <- x_k (g_k / R)^(1/(1-p)) with
  g_k = (dA/dx_k) / w_k, whose fixed points are the maximizers (the
  nonlinear power method of Boyd, 1974). Concavity and Euler's identity
  give A(y) <= grad A(x) . y, so max_k g_k bounds the supremum at every
  iterate, and max_k g_k - R is the Frank-Wolfe duality gap (Jaggi, 2013)
  the iteration stops on. A concave-over-linear ratio has no local
  maximum that is not global, so more starts would buy nothing. For min
  the value is 1 at the constant vector, which is also the bound.
- "ascent" (every other mean): multistart projected coordinate ascent,
  per coordinate a coarse log-grid scan followed by golden-section
  refinement, with incremental objective updates that touch only the
  suffix a coordinate change can affect. Quasi-arithmetic means get O(N-j) candidates through
  a running transform; anything else falls back to direct prefix
  evaluation, which is quadratic and only sensible for small N.

The two power routes report upper_section, a certified upper bound on the
supremum of this N-section (not on the constant of the infinite sequence).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .families import order_regime
from .kernel import MeanSpec, evaluate

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# positivity floor for the ascent's coordinates, the starts and the
# vertex's other coordinates
_FLOOR = 1e-12
# per coordinate: a scan of _SCAN_POINTS log-spaced values over
# _SPAN_DECADES decades around the current one, then _REFINE_ITERS
# golden-section steps
_SCAN_POINTS = 13
_SPAN_DECADES = 10.0
_REFINE_ITERS = 24
# a start stops after _MAX_UPDATES accepted coordinate moves or fixed-point
# updates; an ascent start stops once a full sweep improves the objective by
# less than the fraction _REL_TOL, a fixed-point start once its certified gap
# falls below that fraction of the value
_MAX_UPDATES = 10_000
_REL_TOL = 1e-10
# a fixed-point start also stops after _PATIENCE updates in a row that
# neither raise its best value nor lower its bound
_PATIENCE = 20
# the fixed point's log coordinates, relative to the largest, stay above
# _LOG_FLOOR, so that its iterates keep x**p finite; some sections peak
# with coordinates far below _FLOOR, which floors only its witness
_LOG_FLOOR = -600.0
# a Newton step of the fixed point moves a coordinate against the earlier
# ones by at most _MAX_LOG_STEP in log, and at most _TIE_LOGITS logits past
# its tie with them; its length is halved up to _HALVINGS times until the
# ratio rises, or stays within the fraction _TIE and the bound falls
_MAX_LOG_STEP = 8.0
_TIE_LOGITS = 2.0
_HALVINGS = 30
_TIE = 1e-12
# hard cap on full coordinate sweeps per start, a backstop against cycling
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class OptimizerConfig:
    """What a caller chooses about the finite-section search.

    starts counts the coordinate ascent's built-in starting points (3
    structured + the rest random, seeded by seed), at least one; the power
    routes ignore starts and seed. warm_starts are extra caller-supplied
    vectors: the ascent runs each of them, and the fixed point starts from
    the best of them and 1/W_n. The step schedule and stopping rules are
    module constants.
    """

    starts: int = 8
    seed: int = 0
    warm_starts: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError(f"need starts >= 1, got {self.starts!r}")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one finite-section solve.

    solver names the route ("vertex", "fixed-point" or "ascent").
    n_updates counts accepted coordinate moves of the ascent and updates of
    the fixed point; iterations counts the ascent's sweeps and the fixed
    point's updates (0 for closed forms). upper_section is the certified
    bound on the section's supremum, None for the ascent.
    """

    value: float
    witness: Tuple[float, ...]
    converged: bool
    n_updates: int
    start_values: Tuple[float, ...]
    solver: str
    iterations: int
    upper_section: Optional[float]

    @property
    def gap(self) -> Optional[float]:
        """upper_section - value, floored at 0 against rounding; None
        without a certificate."""
        if self.upper_section is None:
            return None
        return max(self.upper_section - self.value, 0.0)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "witness": list(self.witness),
            "converged": self.converged,
            "n_updates": self.n_updates,
            "start_values": list(self.start_values),
            "solver": self.solver,
            "iterations": self.iterations,
            "upper_section": self.upper_section,
            "gap": self.gap,
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
    - "accumulate" (min, max, larger power orders in the log domain):
      accumulates per-entry terms under one ufunc (np.minimum, np.maximum
      or np.logaddexp), and an output map turns the accumulation into the
      means.
    - "generic": evaluates every prefix directly, quadratic in N.

    Only the coordinate ascent calls candidate(), and only quasi-arithmetic
    and opaque means reach it; outside "transform" it evaluates directly.
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
                self._accumulate(np.minimum if regime == "min" else np.maximum,
                                 lambda x: x, lambda a: a)
            elif regime == "log":
                logw, logW = np.log(self.w), np.log(self.W)
                self._accumulate(np.logaddexp, lambda x: logw + p * np.log(x),
                                 lambda a: np.exp((a - logW) / p))
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

    def _accumulate(self, ufunc, terms: Callable, out: Callable) -> None:
        """terms(x) -> per-entry terms, out(A) -> the prefix means from
        their running accumulation A under ufunc."""
        self.mode = "accumulate"
        self._ufunc, self._terms, self._out = ufunc, terms, out

    def means(self, x: np.ndarray) -> np.ndarray:
        """Per-prefix means of x; in "transform" mode also keeps the running
        sums candidate() shifts.

        The mean of the one-term prefix is x_1 exactly, as in evaluate():
        the round trip through the transform or the log domain would leave
        it an ulp or so off, and a one-term section's ratio above 1, its
        certified bound.
        """
        w, W = self.w, self.W
        with np.errstate(all="ignore"):
            if self.mode == "transform":
                self.F = np.asarray(self._phi(x), dtype=float)
                self.T = np.cumsum(w * self.F)
                out = np.asarray(self._psi(self.T / W), dtype=float)
            elif self.mode == "accumulate":
                out = self._out(self._ufunc.accumulate(self._terms(x)))
            else:
                return np.array([evaluate(self.mean, x[: k + 1], w[: k + 1])
                                 for k in range(self.n)])
        out[:1] = x[:1]
        return out

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


# one start's outcome: (value, x, converged, updates, iterations)
_Run = Tuple[float, np.ndarray, bool, int, int]


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


def _ascend(mean: MeanSpec, w: np.ndarray, x0: np.ndarray) -> _Run:
    eng = _PrefixEngine(mean, w)
    x = np.maximum(np.asarray(x0, dtype=float), _FLOOR)
    eng.rebuild(x)
    if not math.isfinite(eng.value):
        return -math.inf, x, False, 0, 0
    updates = sweeps = 0
    converged = False
    half = _SPAN_DECADES / 2.0
    log_floor = math.log10(_FLOOR)
    for _ in range(_MAX_SWEEPS):
        sweeps += 1
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
    return eng.value, eng.x.copy(), converged, updates, sweeps


def _vertices(eng: _PrefixEngine, inv: float) -> Tuple[np.ndarray, float]:
    """The best vertex of a convex power section and its closed-form ratio.

    With 1/p = inv (0 for max), R(e_k) = w_k^(inv-1) sum_{n>=k} w_n W_n^-inv
    for every k at once. The other coordinates of the vertex sit at the
    floor, and its own is max(W_N, 1) / w_k: then the floored ones carry
    under _FLOOR of <w, x> and move the ratio by about that fraction.
    """
    w, W = eng.w, eng.W
    with np.errstate(all="ignore"):
        ratios = w ** (inv - 1.0) * np.cumsum((w * W ** -inv)[::-1])[::-1]
    k = int(np.argmax(ratios))
    x = np.full(eng.n, _FLOOR)
    x[k] = max(W[-1], 1.0) / w[k]
    return x, float(ratios[k])


class _PowerSection:
    """The ratio of a concave power order p < 1 in log coordinates u = log x.

    at(u) evaluates the ratio, the running log-sums lam_n = log sum_{k<=n}
    w_k x_k^p and log g, where g_k = (dA/dx_k) / w_k. Orders p <= -1 read
    the prefix means off lam, because x = exp(u) would round away the
    digits of p * u at large |p|; milder orders go through the prefix
    engine.
    """

    def __init__(self, eng: _PrefixEngine, p: float):
        self.eng, self.p = eng, p
        self.log_w = np.log(eng.w)
        self.log_W = np.log(eng.W)

    @staticmethod
    def normalized(u: np.ndarray) -> np.ndarray:
        """u shifted to max 0, which the ratio ignores and which keeps the
        digits of p * u, and floored at _LOG_FLOOR."""
        return np.maximum(u - np.max(u), _LOG_FLOOR)

    def at(self, u: np.ndarray) -> dict:
        eng, p = self.eng, self.p
        with np.errstate(all="ignore"):
            ell = self.log_w + p * u
            lam = np.logaddexp.accumulate(ell)
            log_m = (lam - self.log_W) / p if p <= -1.0 else np.log(eng.means(np.exp(u)))
            A = float(np.dot(eng.w, np.exp(log_m)))
            D = float(np.dot(eng.w, np.exp(u)))
            log_g = (p - 1.0) * u + np.logaddexp.accumulate(
                (self.log_w - self.log_W + (1.0 - p) * log_m)[::-1])[::-1]
        value = A / D if math.isfinite(A) and D > 0 else -math.inf
        return {"u": u, "value": value, "A": A, "D": D, "ell": ell, "lam": lam,
                "log_g": log_g, "bound": float(np.exp(np.max(log_g)))}

    def newton(self, s: dict) -> Tuple[np.ndarray, np.ndarray]:
        """Newton step of max log A(x) - <w, x> in u, up to a common shift,
        and the gradient gamma - eta of log(ratio) in u.

        That program is concave for p < 1, and rescaled to <w, x> = 1 its
        maximizers are the ratio's. In the relative step dx / x its negative
        Hessian is (1 - p)[diag(gamma) - sum_n c_n pi_n pi_n^T] + gamma
        gamma^T, with pi_n the prefix softmax of log w_k + p u_k, c_n =
        w_n M_n / A and gamma = sum_n c_n pi_n. Splitting each softmax off
        its predecessor (pi_n = (1 - q_n) pi_{n-1} + q_n e_n) turns the
        bracket into sum_m kappa_m v_m v_m^T with v_m = e_m - pi_{m-1} and
        kappa_m = (1 - q_m) gamma_m. The unit-triangular V = [v_m] and its
        transpose invert by one cumulative sum each, so the step costs
        O(N), is an ascent direction and builds no N x N matrix. The gamma
        gamma^T term and v_1 = e_1 only shift every u_k alike, which the
        ratio ignores, so they drop out.

        In the coordinates z_m = v_m . du the model is diagonal: z_m moves
        u_m against the softmax average of the earlier coordinates. The
        Newton value y / (1 - p) of each z_m becomes -log(1 - y) / (1 - p),
        which agrees to second order and is exact for a coordinate that
        the others do not feel (it is then the fixed-point step), and is
        clipped to _MAX_LOG_STEP and to _TIE_LOGITS / |p| past the point
        where coordinate m ties with that average: past the tie the model
        no longer holds, and before it the ratio can be flat to rounding.
        """
        p, w = self.p, self.eng.w
        u, ell, lam = s["u"], s["ell"], s["lam"]
        with np.errstate(all="ignore"):
            q = np.exp(ell - lam)
            gamma = np.exp(self.log_w + u + s["log_g"] - math.log(s["A"]))
            b = gamma - w * np.exp(u) / s["D"]
            later = (np.cumsum(b[::-1])[::-1] - b)[1:]
            y = (b[1:] + q[1:] * later) / (gamma[1:] * np.exp(lam[:-1] - lam[1:]))
            reach = np.minimum((np.abs(ell[1:] - lam[:-1]) + _TIE_LOGITS) / abs(p),
                               _MAX_LOG_STEP)
            z = np.zeros_like(u)
            z[1:] = np.clip(-np.log1p(-np.minimum(y, 1.0)) / (1.0 - p), -reach, reach)
            z[1:] += np.cumsum(q[:-1] * z[:-1])
        return z, b


def _fixed_point(eng: _PrefixEngine, p: float, x0: np.ndarray) -> Tuple[_Run, float]:
    """The certified solve of a concave order p < 1 from the start x0.

    Each update first tries the Newton step of _PowerSection.newton,
    halving its length up to _HALVINGS times until the ratio rises, or
    until it stays within _TIE of the ratio and lowers the bound (the
    ratio stops resolving progress long before the gap closes). Otherwise
    it takes the multiplicative fixed point u_k <- u_k + log(g_k / R) /
    (1 - p). The smallest max_k g_k met along the way is the certified
    bound. Stops once the gap is at most _REL_TOL of the best value, after
    _PATIENCE updates in a row that neither raise the best value nor lower
    the bound, or after _MAX_UPDATES updates. Returns the best iterate
    (x0 itself if that scores higher), its update count and the bound,
    which comes from the unfloored iterates. Like the vertex, the iterate
    is scaled to <w, x> = max(W_N, 1) before it is floored at _FLOOR, so
    that the floored coordinates carry under _FLOOR of <w, x>.
    """
    sec = _PowerSection(eng, p)
    s = sec.at(sec.normalized(np.log(x0)))
    best, upper = s, math.inf
    updates = idle = 0
    while math.isfinite(s["value"]) and s["value"] > 0:
        idle = 0 if s["value"] > best["value"] or s["bound"] < upper else idle + 1
        if s["value"] > best["value"]:
            best = s
        upper = min(upper, s["bound"])
        if (upper - best["value"] <= _REL_TOL * best["value"] or idle >= _PATIENCE
                or updates >= _MAX_UPDATES):
            break
        step, grad = sec.newton(s)
        nxt = None
        if np.all(np.isfinite(step)) and float(np.dot(grad, step)) > 0:
            t = 1.0
            for _ in range(_HALVINGS):
                trial = sec.at(sec.normalized(s["u"] + t * step))
                if trial["value"] > s["value"] or (
                        trial["value"] >= s["value"] * (1.0 - _TIE)
                        and trial["bound"] < s["bound"]):
                    nxt = trial
                    break
                t *= 0.5
        if nxt is None:
            nxt = sec.at(sec.normalized(
                s["u"] + (s["log_g"] - math.log(s["value"])) / (1.0 - p)))
        s = nxt
        updates += 1
    x = np.exp(best["u"])
    x = np.maximum(x * (max(eng.W[-1], 1.0) / np.dot(eng.w, x)), _FLOOR)
    eng.rebuild(x)
    value = eng.value
    eng.rebuild(x0)
    if eng.value >= value:
        x, value = x0, eng.value
    return (value, x, False, updates, updates), upper


def _solve_power(eng: _PrefixEngine, p: float, regime: str,
                 starts: List[np.ndarray]) -> Tuple[str, _Run, float]:
    """Route a power mean by its order regime: (solver, run, upper_section).

    The closed forms need no start. The fixed point runs once, from the
    start with the highest ratio (the first on ties).
    """
    if regime == "min":
        # sum_n w_n min(x_1..x_n) <= <w, x>, with equality at constant x
        return "fixed-point", (1.0, np.full(eng.n, 1.0 / eng.W[-1]), False, 0, 0), 1.0
    if regime == "max" or p >= 1.0:
        vertex, upper = _vertices(eng, 0.0 if regime == "max" else 1.0 / p)
        eng.rebuild(vertex)
        return "vertex", (eng.value, vertex, False, 0, 0), upper

    def ratio(x0: np.ndarray) -> float:
        eng.rebuild(x0)
        return eng.value

    run, upper = _fixed_point(eng, p, max(starts, key=ratio))
    return "fixed-point", run, upper


def _structured_starts(w: np.ndarray, n_starts: int, seed: int) -> list:
    W = np.cumsum(w)
    starts = [
        np.full(len(w), 1.0 / W[-1]),
        1.0 / W,
        np.array([0.5 ** (k + 1) / w[k] for k in range(len(w))]),
    ][:n_starts]
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
    """Best Hardy ratio over the section of weight prefix w.

    Power means go to the solver their order's structure allows: the
    closed-form vertex for p >= 1 and max, the certified fixed point with
    its safeguarded Newton step for p < 1 and the closed form 1 for min,
    all reporting upper_section. Each solves the section once, so
    start_values holds one entry, and its value is no worse than the ratio
    at 1/W_n or at any warm start. Every other mean runs multistart
    coordinate ascent: every start and warm start is run and keeps its
    best point, so no start's value is lost.

    Deterministic for a fixed config: the ascent's starts are seeded by
    index, and its results are reduced by best value with
    lexicographically smallest witness as the tie-break. The returned
    value is recomputed fresh at the witness through hardy_ratio rather
    than trusted from the solver's bookkeeping (for min it is the closed
    form 1). On the power routes converged means a gap of at most
    _REL_TOL times the value.
    """
    w_arr = np.asarray(w, dtype=float)
    if w_arr.ndim != 1 or len(w_arr) == 0:
        raise ValueError("need a nonempty 1-d weight prefix")
    if not np.all(np.isfinite(w_arr)) or not np.all(w_arr > 0):
        raise ValueError("weights must be positive and finite")
    warm = []
    for ws in config.warm_starts:
        v = np.asarray(ws, dtype=float)
        if v.shape != w_arr.shape:
            raise ValueError("warm starts must match the weight prefix length")
        warm.append(np.maximum(v, _FLOOR))

    upper: Optional[float] = None
    regime = None
    if mean.family == "power":
        p = float(mean.params)
        regime = order_regime(p)
        start = _structured_starts(w_arr, 2, config.seed)[1]  # 1/W_n
        solver, run, upper = _solve_power(_PrefixEngine(mean, w_arr), p, regime,
                                          [start] + warm)
        runs = [run]
    else:
        starts = _structured_starts(w_arr, config.starts, config.seed) + warm
        solver, runs = "ascent", [_ascend(mean, w_arr, x0) for x0 in starts]

    value, witness, converged, _, _ = max(
        runs, key=lambda r: (r[0], tuple(-c for c in r[1])))
    if math.isfinite(value) and regime != "min":
        value = hardy_ratio(mean, witness, w_arr)
    if upper is not None:
        converged = max(upper - value, 0.0) <= _REL_TOL * value
    return SearchResult(
        value=value,
        witness=tuple(float(v) for v in witness),
        converged=converged,
        n_updates=sum(r[3] for r in runs),
        start_values=tuple(r[0] for r in runs),
        solver=solver,
        iterations=sum(r[4] for r in runs),
        upper_section=upper,
    )
