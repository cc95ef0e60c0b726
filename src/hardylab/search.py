"""Finite-section maximizer for weighted Hardy ratios.

Maximizes R(x) = sum_n w_n M(x_1..x_n, w_1..w_n) / sum_n w_n x_n over
positive vectors x of fixed length. Any feasible x makes R(x) a valid
lower bound on the best constant.

The solver follows the mean's structure. For a power mean of order p
(families.power_order: a power spec, or the quasi-arithmetic mean of a
built-in generator), A(x) = sum_n w_n M_n(x) is 1-homogeneous, convex for
p >= 1 and concave for p <= 1, and families.order_regime picks the route:

- "vertex" (p >= 1 and max): a convex ratio peaks at a vertex e_k of the
  simplex <w, x> = 1, and all N vertex ratios come in closed form in O(N).
  The largest is the supremum of the section; no start is evaluated.
- "fixed-point" (p < 1 and min): one iteration from 1/W_n. Each update
  tries a safeguarded Newton step of the concave program
  max log A(x) - <w, x> (whose maximizers, scaled to <w, x> = 1, are the
  ratio's), solved in O(N) through the nested prefix softmaxes
  (_PowerSection.newton), and otherwise takes the
  multiplicative update x_k <- x_k (g_k / R)^(1/(1-p)) with
  g_k = (dA/dx_k) / w_k, whose fixed points are the maximizers (the
  nonlinear power method of Boyd, 1974). Concavity and Euler's identity
  give A(y) <= grad A(x) . y, so max_k g_k bounds the supremum at every
  iterate, and max_k g_k - R is the Frank-Wolfe duality gap (Jaggi, 2013)
  the iteration stops on. A concave-over-linear ratio has no local
  maximum that is not global, so more starts would buy nothing. For min
  the value is 1 at the constant vector, which is also the bound.
- "ascent" (user generators and opaque means): multistart projected
  coordinate ascent, with every start run in lockstep. Per coordinate,
  one batched scan of a log grid picks each start's best point, and
  batched zoom rounds of evenly spaced points then shrink the bracket
  of its grid neighbours. A candidate updates only the suffix a
  coordinate change affects: O(N-j) per trial value through a
  generator's running transform, and quadratic direct prefix evaluation
  for an opaque mean, only sensible for small N. The ascent finds local
  maxima only: on a convex user generator (x^2, x^3) it can stop at a
  point that is not a vertex, so the N floored vertices e_k, built as the
  vertex route builds its own, are evaluated as well (one batched
  evaluation) and the best of them is one more candidate.

The two power routes report upper_section, a certified upper bound on the
supremum of this N-section (not on the constant of the infinite sequence).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .families import order_regime, power_order
from .kernel import MeanSpec, evaluate

# positivity floor for the ascent's coordinates, the starts and the
# vertex's other coordinates
_FLOOR = 1e-12
# per coordinate: a scan of _SCAN_POINTS log-spaced values over
# _SPAN_DECADES decades around the current one, then _ZOOM_ROUNDS rounds of
# _ZOOM_POINTS evenly spaced values inside the bracket of the best one's
# neighbours, each narrowing it to the neighbours of its own best value by
# the factor 2 / (_ZOOM_POINTS + 1): six rounds take the scan's bracket of
# two grid steps (1.7 decades) to 3e-6 decades
_SCAN_POINTS = 13
_SPAN_DECADES = 10.0
_ZOOM_POINTS = 17
_ZOOM_ROUNDS = 6
_LOG10_FLOOR = math.log10(_FLOOR)
_SCAN_OFFSETS = np.linspace(-_SPAN_DECADES / 2.0, _SPAN_DECADES / 2.0, _SCAN_POINTS)
_ZOOM_STEPS = np.arange(1, _ZOOM_POINTS + 1) / (_ZOOM_POINTS + 1)
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

    starts counts the coordinate ascent's starting points (3 structured +
    the rest random, seeded by seed), at least one; the power routes ignore
    starts and seed. The step schedule and stopping rules are module
    constants.
    """

    starts: int = 8
    seed: int = 0

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


def _transform(mean: MeanSpec) -> Optional[Tuple[Callable, Callable]]:
    """The pair (phi, psi) with M_n = psi(sum_{k<=n} w_k phi(x_k) / W_n):
    for power orders in the geometric, near-geometric and raw regimes of
    families.order_regime, as power_mean evaluates them, and for other
    generators. None for min, max, log-domain orders and opaque means."""
    p = power_order(mean)
    if p is None and mean.family == "quasiarithmetic":
        return _vectorized(mean.params.forward), _vectorized(mean.params.inverse)
    regime = None if p is None else order_regime(p)
    if regime == "geometric":
        return np.log, np.exp
    if regime == "near_geometric":
        return lambda u: np.expm1(p * np.log(u)), lambda v: np.exp(np.log1p(v) / p)
    if regime == "raw":
        inv = 1.0 / p
        return lambda u: np.power(u, p), lambda v: np.power(v, inv)
    return None


def _direct_means(mean: MeanSpec, x: np.ndarray, w: np.ndarray, start: int = 0) -> np.ndarray:
    """Prefix means from length start + 1 on, each evaluated directly."""
    return np.array([evaluate(mean, x[: k + 1], w[: k + 1]) for k in range(start, len(w))])


def _quotient(num: float, den: float) -> float:
    """num / den, or -inf unless num is finite and den positive."""
    return num / den if math.isfinite(num) and den > 0 else -math.inf


def prefix_means(mean: MeanSpec, x: Sequence[float], w: Sequence[float]) -> np.ndarray:
    """M(x_1..x_n; w_1..w_n) for n = 1..len(w).

    Running sums of a transform (see _transform), a running minimum,
    maximum or log-sum-exp for the other power orders, and direct
    evaluation for opaque means. The one-term prefix gives x_1 exactly,
    as evaluate() does: a round trip through the transform would leave
    it an ulp or so off, and a one-term section's ratio above 1, its
    certified bound.
    """
    w = np.asarray(w, dtype=float)
    return _prefix_means(mean, np.asarray(x, dtype=float), w, np.cumsum(w))


def _carries(mean: MeanSpec) -> bool:
    """Whether _prefix_means can carry mean's running state from one block
    of a sequence into the next: every mean but an opaque one."""
    return power_order(mean) is not None or _transform(mean) is not None


def _prefix_means(mean: MeanSpec, x: np.ndarray, w: np.ndarray,
                  W: np.ndarray, state=None) -> np.ndarray:
    """prefix_means over arrays, with the weights' partial sums W.

    A long sequence can be evaluated block by block, with W the partial
    sums of the whole sequence over the block. state is then an object
    whose attribute carry holds the running state after the earlier
    blocks, None before the first, and is updated in place: the transform
    sum T (see _transform), the log-sum of the log regime or the running
    extreme of min and max. A later block folds carry into its first
    element before it accumulates, and np.add.accumulate and
    np.logaddexp.accumulate run left to right, so the blocks give the
    one-pass means bit for bit; only the first block's one-term prefix is
    x_1 exactly. An opaque mean has no running state (see _carries), so
    its sequence is one block.
    """
    carry = None if state is None else state.carry
    pair, p = _transform(mean), power_order(mean)
    with np.errstate(all="ignore"):
        if pair is not None:
            phi, psi = pair
            terms = w * np.asarray(phi(x), dtype=float)
            if carry is not None:
                terms[0] += carry
            run = np.cumsum(terms)
            out = np.asarray(psi(run / W), dtype=float)
        elif p is None:
            return _direct_means(mean, x, w)
        elif order_regime(p) == "log":
            ell = np.log(w) + p * np.log(x)
            if carry is not None:
                ell[0] = np.logaddexp(carry, ell[0])
            run = np.logaddexp.accumulate(ell)
            out = np.exp((run - np.log(W)) / p)
        else:
            op = np.maximum if p > 0 else np.minimum
            if carry is not None:
                x = np.concatenate(([op(carry, x[0])], x[1:]))
            out = run = op.accumulate(x)
    if carry is None:
        out[:1] = x[:1]
    if state is not None:
        state.carry = run[-1]
    return out


def _ratio(mean: MeanSpec, x: np.ndarray, w: np.ndarray, W: np.ndarray) -> float:
    """The Hardy ratio of x through the running prefix means."""
    mn = _prefix_means(mean, x, w, W)
    return _quotient(float(np.cumsum(w * mn)[-1]), float(np.dot(w, x)))


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """_quotient elementwise, for a caller that ignores float errors."""
    return np.where(np.isfinite(num) & (den > 0), num / den, -np.inf)


def _apply(f: Callable, a: np.ndarray) -> np.ndarray:
    """f over an array of any shape, through its flattening: _vectorized
    probes f on a 1-d array only."""
    return np.asarray(f(a.ravel()), dtype=float).reshape(a.shape)


class _PrefixEngine:
    """The coordinate ascent's running objective for one mean over fixed
    weights, for S starts at once (one row of x each). With a transform
    (phi, psi) it keeps F = phi(x) and T = cumsum(w * F) per row, and
    candidate() rebuilds the suffix of T from j on with phi(t) in place of
    F[j], in O(N - j) per trial value t; without one it evaluates every
    prefix from j on directly, quadratic in N. Each row's arithmetic is its
    own, so a start's result does not depend on the starts beside it."""

    def __init__(self, mean: MeanSpec, w: np.ndarray):
        self.mean = mean
        self.w = np.asarray(w, dtype=float)
        self.W = np.cumsum(self.w)
        self.transform = _transform(mean)

    def rebuild(self, x: np.ndarray) -> None:
        """Recompute every row's state from the (S, N) array x."""
        self.x = np.asarray(x, dtype=float)
        if self.transform is None:
            self.mn = np.array([_direct_means(self.mean, row, self.w) for row in self.x])
        else:
            phi, psi = self.transform
            with np.errstate(all="ignore"):
                self.F = _apply(phi, self.x)
                self.T = np.cumsum(self.w * self.F, axis=1)
                self.mn = _apply(psi, self.T / self.W)
            self.mn[:, 0] = self.x[:, 0]
        self.PN = np.cumsum(self.w * self.mn, axis=1)
        self.D = np.sum(self.w * self.x, axis=1)
        with np.errstate(all="ignore"):
            self.value = _quotients(self.PN[:, -1], self.D)

    def line(self, rows: np.ndarray, j: int) -> tuple:
        """What candidate() needs of rows and j beside the trial values:
        the sums of w * F after j, T and the numerator before j, and <w, x>
        without x[j]. Shifting T or <w, x> by the change of the j-th term
        instead would cancel the old term against itself and keep its
        rounding, which swamps the rest when that term dominates it."""
        w, x = self.w, self.x[rows]
        rest = t_head = None
        if self.transform is not None:
            rest = np.zeros((len(rows), 1, len(w) - j))
            np.cumsum(w[j + 1:] * self.F[rows, j + 1:], axis=1, out=rest[:, 0, 1:])
            t_head = self.T[rows, j - 1, None] if j > 0 else 0.0
        pn_head = self.PN[rows, j - 1, None] if j > 0 else 0.0
        others = np.sum(w[:j] * x[:, :j], axis=1) + np.sum(w[j + 1:] * x[:, j + 1:], axis=1)
        return rest, t_head, pn_head, others[:, None]

    def candidate(self, rows: np.ndarray, j: int, line: tuple, ts: np.ndarray) -> np.ndarray:
        """Objective of row rows[r] after setting its x[j] = ts[r, g],
        leaving the rest fixed, for the (R, G) block of trial values ts;
        line is line(rows, j) of the current state."""
        w, W = self.w, self.W
        rest, t_head, pn_head, others = line
        with np.errstate(all="ignore"):
            if self.transform is not None:
                phi, psi = self.transform
                lead = t_head + w[j] * _apply(phi, ts)
                mn_suf = _apply(psi, (lead[..., None] + rest) / W[j:])
            else:
                mn_suf = np.empty(ts.shape + (len(w) - j,))
                for (r, g), t in np.ndenumerate(ts):
                    x_new = self.x[rows[r]].copy()
                    x_new[j] = t
                    mn_suf[r, g] = _direct_means(self.mean, x_new, w, j)
            num = pn_head + np.add.reduce(w[j:] * mn_suf, axis=-1)
            return _quotients(num, others + w[j] * ts)


def hardy_ratio(mean: MeanSpec, x: Sequence[float], w: Sequence[float], *,
                dense_check: bool = False) -> float:
    """Hardy ratio of a concrete vector, recomputed from scratch.

    Spot-checks the fast prefix path against direct mean evaluation on a
    few prefixes (all of them under dense_check) so a fast-path bug
    cannot silently inflate reported bounds.
    """
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    mn = prefix_means(mean, x, w)
    idx = range(len(w)) if dense_check else sorted({0, len(w) // 2, len(w) - 1})
    xl, wl = x.tolist(), w.tolist()
    for k in idx:
        direct = evaluate(mean, xl[: k + 1], wl[: k + 1])
        fast = float(mn[k])
        if abs(fast - direct) > 1e-8 * max(1.0, abs(direct)):
            raise AssertionError(
                f"prefix-mean fast path disagrees with direct evaluation at "
                f"prefix {k + 1}: {fast!r} vs {direct!r}")
    return _quotient(float(np.cumsum(w * mn)[-1]), float(np.dot(w, x)))


# one start's outcome: (value, x, converged, updates, iterations)
_Run = Tuple[float, np.ndarray, bool, int, int]


def _line_search(eng: _PrefixEngine, rows: np.ndarray, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's best log10 value of coordinate j and its objective.

    One batched scan over the log grid, clipped at the floor, then
    _ZOOM_ROUNDS batched zoom rounds inside the bracket of the best grid
    point's neighbours. A best point at the floor stands for every grid
    point clipped to it, so its bracket reaches the first grid point above
    the floor. The result is the best of every point evaluated.
    """
    line = eng.line(rows, j)
    grid = np.log10(eng.x[rows, j])[:, None] + _SCAN_OFFSETS
    clipped = np.maximum(grid, _LOG10_FLOOR)
    pts, vals = [clipped], [eng.candidate(rows, j, line, 10.0 ** clipped)]
    k = np.maximum(vals[0].argmax(axis=1), (grid <= _LOG10_FLOOR).sum(axis=1) - 1)
    r = np.arange(len(rows))
    lo = clipped[r, np.maximum(k - 1, 0)]
    span = clipped[r, np.minimum(k + 1, _SCAN_POINTS - 1)] - lo
    for _ in range(_ZOOM_ROUNDS):
        p = lo[:, None] + span[:, None] * _ZOOM_STEPS
        v = eng.candidate(rows, j, line, 10.0 ** p)
        pts.append(p)
        vals.append(v)
        lo = lo + span * (v.argmax(axis=1) / (_ZOOM_POINTS + 1))
        span = span * (2.0 / (_ZOOM_POINTS + 1))
    pts, vals = np.hstack(pts), np.hstack(vals)
    best = vals.argmax(axis=1)
    return pts[r, best], vals[r, best]


def _ascend(mean: MeanSpec, w: np.ndarray, starts: Sequence[np.ndarray]) -> List[_Run]:
    """Coordinate ascent from every start, in lockstep.

    Each start keeps its own rules: it accepts a coordinate's best point
    only if it beats its objective by the fraction 1e-14, and leaves the
    active set once a sweep improves it by less than the fraction
    _REL_TOL, or after _MAX_UPDATES accepted moves or _MAX_SWEEPS sweeps.
    A start whose objective is not finite is returned as it is.
    """
    eng = _PrefixEngine(mean, w)
    eng.rebuild(np.maximum(np.array(starts, dtype=float), _FLOOR))
    S, N = eng.x.shape
    updates = np.zeros(S, dtype=int)
    sweeps = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    active = np.isfinite(eng.value)
    for _ in range(_MAX_SWEEPS):
        if not active.any():
            break
        sweeps[active] += 1
        before = eng.value.copy()
        for j in range(N):
            rows = np.flatnonzero(active & (updates < _MAX_UPDATES))
            if len(rows) == 0:
                break
            g_best, v_best = _line_search(eng, rows, j)
            accept = (v_best > eng.value[rows] * (1.0 + 1e-14)) & np.isfinite(v_best)
            if accept.any():
                moved = rows[accept]
                eng.x[moved, j] = np.maximum(10.0 ** g_best[accept], _FLOOR)
                eng.rebuild(eng.x)
                updates[moved] += 1
        capped = updates >= _MAX_UPDATES
        done = ~capped & (eng.value - before <= _REL_TOL * np.maximum(1.0, np.abs(before)))
        converged |= active & done
        active &= ~(capped | done)
    return [(float(eng.value[s]), eng.x[s].copy(), bool(converged[s]), int(updates[s]),
             int(sweeps[s])) for s in range(S)]


def _vertices(w: np.ndarray, W: np.ndarray, inv: float) -> Tuple[np.ndarray, float]:
    """The best vertex of a convex power section and its closed-form ratio.

    With 1/p = inv (0 for max), R(e_k) = w_k^(inv-1) sum_{n>=k} w_n W_n^-inv
    for every k at once. The other coordinates of the vertex sit at the
    floor, and its own is max(W_N, 1) / w_k: then the floored ones carry
    under _FLOOR of <w, x> and move the ratio by about that fraction.
    """
    with np.errstate(all="ignore"):
        ratios = w ** (inv - 1.0) * np.cumsum((w * W ** -inv)[::-1])[::-1]
    k = int(np.argmax(ratios))
    x = np.full(len(w), _FLOOR)
    x[k] = max(W[-1], 1.0) / w[k]
    return x, float(ratios[k])


class _PowerSection:
    """The ratio of a concave power order p < 1 in log coordinates u = log x.

    at(u) evaluates the ratio, the running log-sums lam_n = log sum_{k<=n}
    w_k x_k^p and log g, where g_k = (dA/dx_k) / w_k. Orders p <= -1 read
    the prefix means off lam, because x = exp(u) would round away the
    digits of p * u at large |p|; milder orders go through prefix_means.
    """

    def __init__(self, mean: MeanSpec, w: np.ndarray, W: np.ndarray, p: float):
        self.mean, self.w, self.W, self.p = mean, w, W, p
        self.log_w, self.log_W = np.log(w), np.log(W)

    @staticmethod
    def normalized(u: np.ndarray) -> np.ndarray:
        """u shifted to max 0, which the ratio ignores and which keeps the
        digits of p * u, and floored at _LOG_FLOOR."""
        return np.maximum(u - np.max(u), _LOG_FLOOR)

    def at(self, u: np.ndarray) -> dict:
        w, p = self.w, self.p
        with np.errstate(all="ignore"):
            ell = self.log_w + p * u
            lam = np.logaddexp.accumulate(ell)
            log_m = ((lam - self.log_W) / p if p <= -1.0
                     else np.log(_prefix_means(self.mean, np.exp(u), w, self.W)))
            A = float(np.dot(w, np.exp(log_m)))
            D = float(np.dot(w, np.exp(u)))
            log_g = (p - 1.0) * u + np.logaddexp.accumulate(
                (self.log_w - self.log_W + (1.0 - p) * log_m)[::-1])[::-1]
        return {"u": u, "value": _quotient(A, D), "A": A, "D": D, "ell": ell, "lam": lam,
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
        p, w = self.p, self.w
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


def _fixed_point(sec: _PowerSection, x0: np.ndarray, v0: float) -> Tuple[_Run, float]:
    """The certified solve of a concave order p < 1 from the start x0,
    whose ratio is v0.

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
                s["u"] + (s["log_g"] - math.log(s["value"])) / (1.0 - sec.p)))
        s = nxt
        updates += 1
    x = np.exp(best["u"])
    x = np.maximum(x * (max(sec.W[-1], 1.0) / np.dot(sec.w, x)), _FLOOR)
    value = _ratio(sec.mean, x, sec.w, sec.W)
    if v0 >= value:
        x, value = x0, v0
    return (value, x, False, updates, updates), upper


def _solve_power(mean: MeanSpec, p: float, regime: str, w: np.ndarray,
                 W: np.ndarray) -> Tuple[str, _Run, float]:
    """Route the order-p power mean by its regime: (solver, run, upper_section).

    The closed forms need no start. The fixed point runs once, from 1/W_n
    scaled to <w, x> = 1.
    """
    if regime == "min":
        # sum_n w_n min(x_1..x_n) <= <w, x>, with equality at constant x
        return "fixed-point", (1.0, np.full(len(w), 1.0 / W[-1]), False, 0, 0), 1.0
    if regime == "max" or p >= 1.0:
        vertex, upper = _vertices(w, W, 0.0 if regime == "max" else 1.0 / p)
        return "vertex", (_ratio(mean, vertex, w, W), vertex, False, 0, 0), upper
    x0 = 1.0 / W
    x0 = np.maximum(x0 / np.dot(w, x0), _FLOOR)
    run, upper = _fixed_point(_PowerSection(mean, w, W, p), x0, _ratio(mean, x0, w, W))
    return "fixed-point", run, upper


def _best_vertex(mean: MeanSpec, w: np.ndarray) -> _Run:
    """The best of the N floored vertices, each built as _vertices builds
    its own, evaluated in one batch as an ascent candidate with 0 updates.
    It reports converged false: no ascent stopped there."""
    eng = _PrefixEngine(mean, w)
    x = np.full((len(w), len(w)), _FLOOR)
    np.fill_diagonal(x, max(eng.W[-1], 1.0) / w)
    eng.rebuild(x)
    k = int(np.argmax(eng.value))
    return float(eng.value[k]), eng.x[k].copy(), False, 0, 0


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

    Power means, the built-in generators' quasi-arithmetic means among
    them (families.power_order), go to the solver their order's structure
    allows: the closed-form vertex for p >= 1 and max, the certified fixed
    point with its safeguarded Newton step for p < 1 and the closed form 1
    for min, all reporting upper_section. Each solves the section once, so
    start_values holds one entry, and its value is no worse than the ratio
    at 1/W_n. Every other mean runs multistart coordinate ascent (user
    generators and opaque means): every start is run and keeps its best
    point, so no start's value is lost, and the best floored vertex
    (_best_vertex) competes with them.

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

    p = power_order(mean)
    regime = None if p is None else order_regime(p)
    if regime is not None:
        solver, run, upper = _solve_power(mean, p, regime, w_arr, np.cumsum(w_arr))
        runs = candidates = [run]
    else:
        upper = None
        starts = _structured_starts(w_arr, config.starts, config.seed)
        solver, runs = "ascent", _ascend(mean, w_arr, starts)
        candidates = runs + [_best_vertex(mean, w_arr)]

    value, witness, converged, _, _ = max(
        candidates, key=lambda r: (r[0], tuple(-c for c in r[1])))
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
