"""Constructive rearrangement and executable comparison checks.

Implements the equal-sum nonincreasing rearrangement (sort, then pour the
weights, as integer masses over one common denominator, back into blocks
and average), the prefix-mean comparison it feeds, the coarsening
comparison at matched truncations (exact sums for the arithmetic mean,
section certificates for other power orders), nonincreasing running means
of step profiles, the perturbed dyadic family's constants, and the
sup-at-ones cap sweep.

Checks that assert a theorem under its hypotheses report pass/fail and a
signed worst margin (the minimum slack of the asserted inequality;
negative means violated). When a mean does not claim the hypotheses, the
same machinery runs as a counterexample search and reports found / not
found instead, since a random search proves nothing by coming up empty.
The coarsening comparison refuses such means instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

from .scalars import Number, all_exact, integer_masses, json_ready, ratio_fsum
from .kernel import MeanSpec, StepFunction, _check_weights, evaluate, interval_mean
from .families import parse_mean, power_order
from .weights import (WeightSeq, _match_partial_sums, make_sequence, random_rational_sequence,
                      term_ratio_pairs, term_ratios)
from .search import maximize_hardy_ratio
from . import hardy as _hardy

DEFAULT_MARGIN_TOL = 1e-10


class ExpansionBudgetError(RuntimeError):
    """No longer raised: the rearrangement merges exact weights without
    expanding them. Kept so code that catches it still imports."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification run.

    margin is the worst (minimum) signed slack of the asserted
    inequality over everything tried; the stored witness re-evaluates to
    that margin. outcome refines `passed` for counterexample searches,
    where "inconclusive" (nothing found) is not a pass and
    "counterexample_found" is the search succeeding.
    """

    check: str
    passed: bool
    outcome: str  # pass | fail | counterexample_found | inconclusive
    instances: int
    margin: float
    witness: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "check": self.check,
            "passed": self.passed,
            "outcome": self.outcome,
            "instances": self.instances,
            "margin": self.margin,
            "details": json_ready(self.details),
        }
        if self.witness is not None:
            out["witness"] = json_ready(self.witness)
        return out


# ---------------------------------------------------------------------------
# equal-sum rearrangement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RearrangementResult:
    """Nonincreasing block-average rearrangement with the same weighted sum.

    y holds exact rationals (input floats are embedded exactly).
    """

    y: Tuple[Fraction, ...]

    def y_floats(self) -> Tuple[float, ...]:
        return tuple(float(v) for v in self.y)

    def to_json(self) -> dict:
        return {"y": json_ready(self.y), "y_float": list(self.y_floats())}


def _weight_masses(ws: Sequence) -> List[int]:
    """Checked rational weights as integer masses over one common
    denominator (scalars.integer_masses); Python ints are their own masses,
    so masses given back as weights cost no second integer_masses."""
    _check_weights(ws)
    if not all_exact(ws):
        raise TypeError("rearrangement needs rational weights (use p/q literals)")
    return list(ws) if all(type(v) is int for v in ws) else integer_masses(ws)[0]


def equal_sum_rearrangement(x: Sequence[Number], w) -> RearrangementResult:
    """Sort x into nonincreasing block averages without moving weight.

    Sorts the (value, weight) pairs by value, nonincreasing, and pours
    their masses back into blocks of the original weights, each block
    taking the average of what it received. Weights and values are both
    Python integers over a common denominator each
    (scalars.integer_masses), so the pouring is integer arithmetic with
    one Fraction per block, and numpy integer weights cannot wrap. The
    weighted sum is preserved exactly, and asserted in integers: the
    blocks' poured totals add up to the sum of the values' numerators
    times their masses. The output is nonincreasing even when x was not.
    """
    ws = tuple(w)
    masses = _weight_masses(ws)
    if len(x) != len(ws):
        raise ValueError("x and w must have equal length")
    if any(isinstance(v, float) and not math.isfinite(v) for v in x):
        raise ValueError(f"x entries must be finite, got {list(x)!r}")
    # x_i = nums[i] / dx; ints and Fractions go in as they are, with no copy
    nums, dx = integer_masses([v if type(v) in (int, Fraction) else Fraction(v) for v in x])
    runs = iter(sorted(zip(nums, masses), key=lambda t: t[0], reverse=True))
    v, left = next(runs)  # value of the current run and its mass not yet poured
    totals: List[int] = []  # each block's poured value times mass, over dx
    for m in masses:
        need, acc = m, 0
        while left < need:  # the block takes the rest of this run
            acc += v * left
            need -= left
            v, left = next(runs)
        acc += v * need
        left -= need
        totals.append(acc)
    assert sum(totals) == sum(n * m for n, m in zip(nums, masses))
    return RearrangementResult(y=tuple(Fraction(t, dx * m) for t, m in zip(totals, masses)))


# ---------------------------------------------------------------------------
# prefix-mean comparison against the rearrangement
# ---------------------------------------------------------------------------


def _claims_hypotheses(mean: MeanSpec) -> bool:
    return mean.flags.monotone and mean.flags.concave


# families whose MeanSpec.fn uses the weights only through
# families._normalized_weights, which gives integer masses and the rationals
# they stand for the same floats bit for bit
_NORMALIZING_FAMILIES = frozenset(("power", "quasiarithmetic"))


def verify_jcin(mean: MeanSpec, x: Sequence[Number], w,
                tol: float = DEFAULT_MARGIN_TOL) -> CheckReport:
    """Prefix means of x never exceed those of its rearrangement.

    Claimed for symmetric monotone concave means; for means that do not
    claim those flags this runs as a counterexample probe on the single
    instance. margin is the minimum over prefixes of (rearranged mean -
    original mean). Power and quasi-arithmetic means are evaluated on the
    integer masses of the whole weight vector, found once, instead of
    normalizing every prefix's weights anew; any other mean receives the
    caller's weights. The rearrangement is given the same masses as its
    weights, which it pours exactly as it pours the caller's.
    """
    ws = list(w)
    masses = _weight_masses(ws)
    res = equal_sum_rearrangement(x, masses)
    mean_w = masses if mean.family in _NORMALIZING_FAMILIES else ws
    xs = [float(v) for v in x]
    ys = list(res.y_floats())
    margin = math.inf
    worst_n = 0
    lhs_w = rhs_w = 0.0
    for n in range(1, len(xs) + 1):
        lhs = evaluate(mean, xs[:n], mean_w[:n])
        rhs = evaluate(mean, ys[:n], mean_w[:n])
        if rhs - lhs < margin:
            margin, worst_n, lhs_w, rhs_w = rhs - lhs, n, lhs, rhs
    ok = margin >= -tol
    if _claims_hypotheses(mean):
        outcome = "pass" if ok else "fail"
    else:
        outcome = "inconclusive" if ok else "counterexample_found"
    return CheckReport(
        check="jcin", passed=ok, outcome=outcome, instances=1, margin=margin,
        witness={
            "x": list(x), "w": ws, "y": res.y,
            "prefix": worst_n, "original_mean": lhs_w, "rearranged_mean": rhs_w,
        },
        details={"mean": mean.name, "hypotheses_claimed": _claims_hypotheses(mean)})


def _random_instance(rng: random.Random) -> Tuple[list, list]:
    n = rng.randint(1, 8)
    x = [Fraction(rng.randint(1, 400), rng.randint(1, 40)) for _ in range(n)]
    w = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    return x, w


def jcin_sweep(mean: MeanSpec, trials: int = 200, seed: int = 0, *,
               tol: float = DEFAULT_MARGIN_TOL) -> CheckReport:
    """Random-instance sweep of verify_jcin, merged by worst margin."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    margin = math.inf
    witness = None
    search_mode = not _claims_hypotheses(mean)
    tried = 0
    for i in range(trials):
        rng = random.Random(f"hardylab-jcin:{seed}:{i}")
        x, w = _random_instance(rng)
        rep = verify_jcin(mean, x, w, tol=tol)
        tried += 1
        if rep.margin < margin:
            margin, witness = rep.margin, rep.witness
        if search_mode and not rep.passed:
            break
    ok = margin >= -tol
    if search_mode:
        outcome = "inconclusive" if ok else "counterexample_found"
    else:
        outcome = "pass" if ok else "fail"
    return CheckReport(
        check="jcin-sweep", passed=ok, outcome=outcome, instances=tried,
        margin=margin, witness=witness,
        details={"mean": mean.name, "seed": seed,
                 "hypotheses_claimed": not search_mode})


# ---------------------------------------------------------------------------
# coarsening comparison at matched truncations
# ---------------------------------------------------------------------------


def verify_cut(mean: Union[str, MeanSpec], psi: WeightSeq, lam: WeightSeq,
               N: int) -> CheckReport:
    """Coarser weights never raise the constant (a string mean is a descriptor).

    Compares the section of psi at m with that of lam at the matched index
    n_m (equal partial sums) for m = 1..N. The arithmetic mean compares
    exact partial sums of lam_n/Lam_n; their slacks stay unreduced int
    pairs, signed by the numerator and compared by cross-multiplication, so
    only the witness's slack is reduced (reducing all 60 took 12.9 of the
    16.2 ms of geometric:3/4 at N = 60). Other power orders bound the slack
    at m by [value(lam, n_m) - upper(psi, m), upper(lam, n_m) - value(psi,
    m)], or 0 for identical prefixes: pass if every lower end is >= 0, fail
    if an upper end is < 0 (margin: the least end that decides), else
    inconclusive, as for means with no order: two lower bounds decide nothing.
    The witness is the first truncation of least slack.
    Float-mode weights (non-integer power:ALPHA, or float terms) are refused
    with HypothesisViolation.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    for seq in (lam, psi):
        if not seq.exact:
            raise _hardy.HypothesisViolation(
                f"{seq.descriptor}: float-mode weights; the coarsening comparison "
                "matches partial sums exactly and needs exact-rational weights")
    mean = parse_mean(mean) if isinstance(mean, str) else mean
    if not (mean.flags.monotone and mean.flags.concave and mean.flags.continuous_in_weights):
        raise _hardy.HypothesisViolation(
            f"{mean.name}: the coarsening comparison claims monotone concave "
            "means continuous in their weights only")
    ns = _match_partial_sums(psi, lam, N)
    if ns is None:
        raise _hardy.HypothesisViolation(
            f"{psi.descriptor} is not a coarsening of {lam.descriptor}: "
            "a partial sum falls between consecutive partial sums")
    p = power_order(mean)
    if p is None:
        raise _hardy.InconclusiveError(f"{mean.name} has no section certificate")
    if p == 1:
        mode = "arithmetic-exact"
        coarse = list(accumulate(term_ratios(psi, N)))
        fine = list(accumulate(term_ratios(lam, ns[-1])))
        fine = [fine[n - 1] for n in ns]
        rows = [{"coarse_sum": c, "fine_sum": f} for c, f in zip(coarse, fine)]
        # the slacks fine - coarse as unreduced (numerator, denominator > 0)
        # pairs, compared by cross-multiplication: only the least is reduced
        pairs = [(f.numerator * c.denominator - c.numerator * f.denominator,
                  f.denominator * c.denominator) for c, f in zip(coarse, fine)]
        k = 0  # the first truncation of least slack
        for i, (a, b) in enumerate(pairs):
            if a * pairs[k][1] < pairs[k][0] * b:
                k = i
        slack = Fraction(*pairs[k])
        ok = slack >= 0
    else:
        mode, rows, lo, hi = "certified-sections", [], [], []
        w_psi, w_lam = psi.terms_floats(N), lam.terms_floats(ns[-1])
        for m, n in enumerate(ns, 1):
            c = maximize_hardy_ratio(mean, w_psi[:m])
            f = c if n == m else maximize_hardy_ratio(mean, w_lam[:n])
            rows.append({"coarse_value": c.value, "coarse_upper": c.upper_section,
                         "fine_value": f.value, "fine_upper": f.upper_section})
            lo.append(0.0 if f is c else f.value - c.upper_section)
            hi.append(0.0 if f is c else f.upper_section - c.value)
        if min(lo) < 0 <= min(hi):
            k = lo.index(min(lo))
            raise _hardy.InconclusiveError(
                f"{mean.name}: the certificates bound the slack at truncation {k + 1} "
                f"by [{float(lo[k])!r}, {float(hi[k])!r}] only")
        ok = min(lo) >= 0
        ends = lo if ok else hi
        k = ends.index(min(ends))  # the first truncation of least slack
        slack = ends[k]
    return CheckReport(
        check="cut", passed=ok, outcome="pass" if ok else "fail",
        instances=N, margin=float(slack),
        witness={"truncation": k + 1, "matched_fine_index": ns[k], **rows[k],
                 "slack": slack},
        details={"mode": mode, "mean": mean.name, "psi": psi.descriptor,
                 "lam": lam.descriptor, "matched_indices": ns[:32]})


# ---------------------------------------------------------------------------
# nonincreasing running means over step profiles
# ---------------------------------------------------------------------------


def verify_decreasing(mean: MeanSpec, f: StepFunction,
                      grid: Sequence[Number], tol: float = 1e-9) -> CheckReport:
    """Running means u -> mean of f over (0, u] are nonincreasing.

    Claimed for monotone means over nonincreasing profiles; refuses
    profiles that are not nonincreasing instead of reporting on them.
    """
    if not f.is_nonincreasing():
        raise _hardy.HypothesisViolation("profile is not nonincreasing")
    pts = list(grid)
    if len(pts) < 2:
        raise ValueError("need at least two grid points")
    last = pts[0]
    if not last > 0:
        raise ValueError("grid points must be positive")
    for u in pts[1:]:
        if not u > last:
            raise ValueError("grid points must be strictly increasing")
        last = u
    values = [interval_mean(mean, f, 0, u) for u in pts]
    margin = math.inf
    worst = 0
    for i in range(len(values) - 1):
        slack = values[i] - values[i + 1]
        if slack < margin:
            margin, worst = slack, i
    ok = margin >= -tol
    return CheckReport(
        check="decreasing", passed=ok, outcome="pass" if ok else "fail",
        instances=len(pts) - 1, margin=margin,
        witness={"u_left": pts[worst], "u_right": pts[worst + 1],
                 "value_left": values[worst], "value_right": values[worst + 1]},
        details={"mean": mean.name, "grid": [float(u) for u in pts],
                 "values": values})


# ---------------------------------------------------------------------------
# lower-semicontinuity example table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LscReport:
    """Constants of the bumped dyadic family against the dyadic baseline.

    rows pair each bump position k with the constant of the weights whose
    k-th term was raised to 1. The family converges pointwise to the
    plain dyadic weights while the constants converge to baseline + 1/2,
    so the limit constant overshoots the constant of the limit: exactly
    the one-sided (lower semicontinuous) behaviour. Early bump positions
    may undershoot the baseline (k=1 does); dip_positions records them.
    """

    rows: Tuple[Tuple[int, float], ...]
    baseline: float
    limit_value: float
    N: int

    @property
    def converged(self) -> bool:
        return abs(self.rows[-1][1] - self.limit_value) <= 1e-3

    @property
    def dip_positions(self) -> Tuple[int, ...]:
        return tuple(k for k, v in self.rows if v < self.baseline)

    @property
    def tail_min(self) -> float:
        tail = [v for k, v in self.rows if k >= 2]
        return min(tail) if tail else math.inf

    def to_json(self) -> dict:
        return {
            "rows": [{"k": k, "value": v} for k, v in self.rows],
            "baseline": self.baseline,
            "limit_value": self.limit_value,
            "N": self.N,
            "converged": self.converged,
            "dip_positions": list(self.dip_positions),
        }

    def csv_rows(self) -> List[List[object]]:
        out: List[List[object]] = [["k", "value"]]
        out.extend([k, repr(v)] for k, v in self.rows)
        return out


def lsc_example_table(kmax: int, N: int = 200) -> LscReport:
    """Arithmetic constants of perturbed-dyadic weights for k = 1..kmax,
    truncated at N.

    The baseline and every row are the correctly rounded floats of the
    exact partial sums of w_n/W_n, the values arithmetic_hardy reports.
    They are computed by scalars.ratio_fsum from the integer pairs
    (m_n, M_n) of weights.term_ratio_pairs, which brackets each sum
    between two integers: no Fraction is built and no gcd taken.
    """
    if kmax < 1:
        raise ValueError("need kmax >= 1")
    if N < kmax + 8:
        raise ValueError("N must exceed kmax by a safe truncation margin")

    def constant(descriptor: str) -> float:
        return ratio_fsum(term_ratio_pairs(make_sequence(descriptor), N))

    base = constant("dyadic")
    rows = tuple((k, constant(f"perturbed-dyadic:{k}")) for k in range(1, kmax + 1))
    return LscReport(rows=rows, baseline=base, limit_value=base + 0.5, N=N)


# ---------------------------------------------------------------------------
# sup-at-ones cap sweep
# ---------------------------------------------------------------------------


def mu1_sweep(mean: MeanSpec, trials: int = 50, N: int = 256, seed: int = 0, *,
              cap: Optional[float] = None, tol: float = 1e-3) -> CheckReport:
    """No random rational weights beat the unweighted constant.

    Runs the finite-section search over random rational weight sequences
    and asserts every bound stays below cap + tol. cap defaults to the
    closed-form constant of the power mean's order (families.power_order)
    and must be given for other means. margin is the minimum of cap +
    tol - value.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if cap is None:
        p = power_order(mean)
        if p is None:
            raise ValueError("no closed-form cap for this mean family; pass cap=")
        cap = _hardy.copson_constant(p)
    margin = math.inf
    witness = None
    for i in range(trials):
        lam = random_rational_sequence(seed * 1_000_003 + i)
        est = _hardy.finite_lower_bound(mean, lam, N)
        slack = cap + tol - est.value
        if slack < margin:
            margin = slack
            witness = {"weights": lam.descriptor, "value": est.value,
                       "trial": i}
    ok = margin >= 0
    return CheckReport(
        check="mu1-sweep", passed=ok, outcome="pass" if ok else "fail",
        instances=trials, margin=margin, witness=witness,
        details={"mean": mean.name, "cap": cap, "tol": tol, "N": N,
                 "seed": seed})
