"""Weighted-mean kernel.

Defines the evaluation contract for means of strictly positive vectors
with strictly positive weights, step-function views of weighted vectors,
and randomized empirical checks of the structural axioms (invariance
under weight scaling, the reduction/interleaving identity, the mean value
property, elimination of vanishing weights) and of declared shape flags
(symmetry, monotonicity, midpoint concavity, homogeneity).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Optional, Sequence, Tuple

from .scalars import Number, all_exact, integer_masses, json_ready

DEFAULT_AXIOM_TOL = 1e-9


class MeanDomainError(ValueError):
    """Inputs left the domain the mean is defined on."""


@dataclass(frozen=True)
class MeanFlags:
    """Declared shape properties of a mean.

    Flags are claims, not certificates: check_axioms verifies each claimed
    flag empirically and reports witnesses for violations.
    """

    symmetric: bool = False
    monotone: bool = False
    concave: bool = False
    homogeneous: bool = False
    continuous_in_weights: bool = True


@dataclass(frozen=True)
class MeanSpec:
    """A weighted mean M(x, w) of positive entries with positive weights.

    `fn` is called only by evaluate() (families.power_mean and
    quasiarithmetic_mean are evaluate of their specs), which checks the
    inputs first: it receives a nonempty tuple of positive finite floats
    and an equally long tuple of the caller's weights, each positive and
    finite unless it is an int or a Fraction. It owns weight normalization
    itself; the kernel deliberately does not normalize, so scaling defects
    in a mean stay observable to the axiom checks.
    """

    family: str
    params: object
    flags: MeanFlags
    fn: Callable[[Sequence[float], Sequence[Number]], float]
    name: str = ""

    def __str__(self) -> str:
        return self.name or self.family


_INT_TYPE = frozenset((int,))
_EXACT_TYPES = frozenset((int, Fraction))


def _check_weights(ws: tuple) -> None:
    """Every weight positive, and finite unless it is an int or a Fraction:
    exact weights of any size pass (math.isfinite would overflow on them),
    and numpy scalars that are not Python floats are tested too.

    The fast passes try a vector of Python ints first (one type scan and
    its minimum), then one of ints and Fractions (the numerators' signs),
    then any other (its minimum and math.isfinite); a float first entry
    falls through the first two at one type test each."""
    if not ws:
        raise ValueError("weight vector needs at least one entry")
    try:  # fast passes; the loop below is the definition
        first = type(ws[0])
        if first is int and _INT_TYPE.issuperset(map(type, ws)):
            if min(ws) > 0:
                return
        elif first in _EXACT_TYPES and _EXACT_TYPES.issuperset(map(type, ws)):
            # a Fraction's denominator is positive: no Fraction comparison
            if all(w.numerator > 0 for w in ws):
                return
        elif min(ws) > 0 and all(map(math.isfinite, ws)):
            return
    except (TypeError, ValueError, OverflowError):
        pass
    for w in ws:
        if not (w > 0 and (isinstance(w, (int, Fraction)) or math.isfinite(w))):
            raise ValueError(f"weights must be strictly positive and finite, got {w!r}")


def _checked(x, w) -> Tuple[Tuple[float, ...], tuple]:
    """The one check of a point vector x and a weight vector w: the
    weights first, then the points, then the lengths. Returns the points
    as floats and the weights as given, both as tuples."""
    ws = tuple(w)
    _check_weights(ws)
    xs = tuple(map(float, x))
    if not xs:
        raise ValueError("point vector needs at least one entry")
    if not (min(xs) > 0 and all(map(math.isfinite, xs))):
        for v in xs:  # name the first offending entry
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"point entries must be strictly positive and finite, got {v!r}")
    if len(xs) != len(ws):
        raise ValueError(f"length mismatch: {len(xs)} points vs {len(ws)} weights")
    return xs, ws


def evaluate(mean: MeanSpec, x, w) -> float:
    """Evaluate a mean at points x with weights w.

    The one place where a mean's inputs are checked: raises on empty
    inputs, nonpositive or non-finite entries (weights before points) and
    length mismatch, then hands mean.fn the checked tuples. For a
    well-formed mean the result lies in [min x, max x] and is invariant
    under positive scaling of w (exactly so when every weight is an int or
    a Fraction).
    """
    xs, ws = _checked(x, w)
    return float(mean.fn(xs, ws))


def shuffle(p: Sequence, q: Sequence) -> tuple:
    """Interleave two equal-length vectors as (p1, q1, p2, q2, ...)."""
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")
    out = []
    for a, b in zip(p, q):
        out.append(a)
        out.append(b)
    return tuple(out)


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function: values[k] on [breakpoints[k], breakpoints[k+1]).

    Breakpoints start at 0 and increase strictly; values are positive.
    """

    breakpoints: Tuple[Number, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        b = self.breakpoints
        if len(b) < 2 or len(self.values) != len(b) - 1:
            raise ValueError("need n+1 breakpoints for n values")
        if b[0] != 0:
            raise ValueError("support must start at 0")
        for lo, hi in zip(b, b[1:]):
            if not hi > lo:
                raise ValueError("breakpoints must be strictly increasing")
        for v in self.values:
            if not v > 0:
                raise ValueError("step values must be strictly positive")

    @property
    def support(self) -> Tuple[Number, Number]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def __call__(self, t: Number) -> float:
        b = self.breakpoints
        if not (b[0] <= t < b[-1]):
            raise ValueError(f"{t!r} outside support [{b[0]}, {b[-1]})")
        lo, hi = 0, len(b) - 1
        while lo + 1 < hi:  # rightmost piece with b[lo] <= t
            mid = (lo + hi) // 2
            if b[mid] <= t:
                lo = mid
            else:
                hi = mid
        return self.values[lo]

    def is_nonincreasing(self) -> bool:
        return all(a >= b for a, b in zip(self.values, self.values[1:]))


def step_profile(x, w) -> StepFunction:
    """Step function carrying (x, w): value x_k on [L_{k-1}, L_k), where
    L are the weight partial sums (exact breakpoints for rational w, summed
    as Python integer masses, so numpy integer weights cannot wrap)."""
    xs, ws = _checked(x, w)
    if all_exact(ws):
        masses, d = integer_masses(ws)
        sums = accumulate(masses, initial=0)
        if d > 1:
            sums = (Fraction(s, d) for s in sums)
    else:
        sums = accumulate(ws, initial=0.0)
    return StepFunction(tuple(sums), xs)


def interval_mean(mean: MeanSpec, f: StepFunction, a: Number, b: Number) -> float:
    """Mean of a step function over [a, b): pieces overlapping the window
    enter with their overlap lengths as weights.

    Over the full support of step_profile(x, w) this reproduces
    evaluate(mean, x, w), exactly so in rational weight mode, where the
    breakpoint differences recover the weights exactly.
    """
    lo_s, hi_s = f.support
    if not (lo_s <= a < b <= hi_s):
        raise ValueError(f"window [{a}, {b}) outside support [{lo_s}, {hi_s})")
    vals, lens = [], []
    bps = f.breakpoints
    for k, v in enumerate(f.values):
        lo = bps[k] if bps[k] >= a else a
        hi = bps[k + 1] if bps[k + 1] <= b else b
        if hi > lo:
            vals.append(v)
            lens.append(hi - lo)
    return evaluate(mean, vals, lens)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


@dataclass
class CheckOutcome:
    axiom: str
    trials: int
    failures: int
    worst_violation: float
    witness: Optional[dict] = None
    skipped: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        out = {
            "axiom": self.axiom,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "passed": self.passed,
        }
        if self.witness is not None:
            out["witness"] = json_ready(self.witness)
        if self.skipped:
            out["skipped"] = self.skipped
        return out


@dataclass
class AxiomReport:
    mean_name: str
    tol: float
    seed: int
    outcomes: Dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes.values())

    def worst(self) -> float:
        return max((o.worst_violation for o in self.outcomes.values()), default=0.0)

    def to_json(self) -> dict:
        return {
            "mean": self.mean_name,
            "tol": self.tol,
            "seed": self.seed,
            "passed": self.passed,
            "outcomes": {k: v.to_json() for k, v in self.outcomes.items()},
        }


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# Each measure maps (mean, witness, tol, base) -> violation magnitude
# (0 = pass), base being M(x, w) of the witness's x and w, which every
# measure but reduction reads; check_axioms evaluates it once per trial and
# replay_axiom once per witness, so a stored witness replays to the same
# number.


def _measure_nullhomogeneity(mean, wit, tol, base):
    scaled = evaluate(mean, wit["x"], [wit["t"] * v for v in wit["w"]])
    return max(0.0, _rel_gap(base, scaled) - tol)


def _measure_reduction(mean, wit, tol, base):
    x, lam, mu = wit["x"], wit["lam"], wit["mu"]
    joint = evaluate(mean, x, [a + b for a, b in zip(lam, mu)])
    split = evaluate(mean, shuffle(x, x), shuffle(lam, mu))
    return max(0.0, _rel_gap(joint, split) - tol)


def _measure_mean_value(mean, wit, tol, base):
    lo, hi = min(wit["x"]), max(wit["x"])
    overshoot = max(lo - base, base - hi, 0.0)
    return max(0.0, overshoot / max(hi, 1e-300) - tol)


# probe weights for the elimination check, 1e-12 down to 1e-300
_ELIMINATION_RUNGS = tuple(float(f"1e-{k}") for k in range(12, 301, 3))


def _measure_elimination(mean, wit, tol, base):
    x, w, z = wit["x"], wit["w"], wit["z"]

    def gap(eps):
        return _rel_gap(base, evaluate(mean, list(x) + [z], list(w) + [eps]))

    # the perturbation must both be small and shrink with eps; it grows like
    # eps * (z/x)^p, so descend the rungs to the first one where it is small
    # (the first rung already is for |p| <= 4), then test the next rung
    last = len(_ELIMINATION_RUNGS) - 2
    for k in range(last + 1):
        first = gap(_ELIMINATION_RUNGS[k])
        if first <= 1e-2 or k == last:
            break
    second = gap(_ELIMINATION_RUNGS[k + 1])
    return max(0.0, first - 1e-2, second - max(0.1 * first, 100 * tol))


def _measure_symmetric(mean, wit, tol, base):
    x, w, perm = wit["x"], wit["w"], wit["perm"]
    permuted = evaluate(mean, [x[i] for i in perm], [w[i] for i in perm])
    return max(0.0, _rel_gap(base, permuted) - tol)


def _measure_monotone(mean, wit, tol, base):
    x, w, j, delta = wit["x"], wit["w"], wit["j"], wit["delta"]
    bumped = list(x)
    bumped[j] += delta
    after = evaluate(mean, bumped, w)
    drop = (base - after) / max(abs(base), 1e-300)
    return max(0.0, drop - tol)


def _measure_concave(mean, wit, tol, base):
    x, y, w = wit["x"], wit["y"], wit["w"]
    mid = evaluate(mean, [(a + b) / 2 for a, b in zip(x, y)], w)
    avg = (base + evaluate(mean, y, w)) / 2
    gap = (avg - mid) / max(abs(avg), 1e-300)
    return max(0.0, gap - tol)


def _measure_homogeneous(mean, wit, tol, base):
    x, w, t = wit["x"], wit["w"], wit["t"]
    scaled = evaluate(mean, [t * v for v in x], w)
    return max(0.0, _rel_gap(t * base, scaled) - tol)


_MEASURES = {
    "nullhomogeneity": _measure_nullhomogeneity,
    "reduction": _measure_reduction,
    "mean_value": _measure_mean_value,
    "elimination": _measure_elimination,
    "symmetric": _measure_symmetric,
    "monotone": _measure_monotone,
    "concave": _measure_concave,
    "homogeneous": _measure_homogeneous,
}


def replay_axiom(mean: MeanSpec, axiom: str, witness: dict, tol: float = DEFAULT_AXIOM_TOL) -> float:
    """Recompute the violation magnitude of a stored witness."""
    base = None if axiom == "reduction" else evaluate(mean, witness["x"], witness["w"])
    return _MEASURES[axiom](mean, witness, tol, base)


# log-uniform ranges (log lo, log hi) of the random witnesses: entries and
# weights, scale factors, monotonicity bumps
_ENTRY_LOGS = (math.log(0.1), math.log(10.0))
_SCALE_LOGS = (math.log(1e-3), math.log(1e3))
_BUMP_LOGS = (math.log(0.01), math.log(5.0))


def _rand_positive(rng, logs=_ENTRY_LOGS):
    return math.exp(logs[0] + (logs[1] - logs[0]) * rng.random())  # rng.uniform(*logs), inlined


def _draw_instance(rng):
    """One random instance: points x, weights w and every axiom's witness
    (x and w, with reduction's lam being w, plus that axiom's own inputs),
    drawn in one fixed order whatever the mean claims."""
    n = rng.randint(1, 6)
    x, w, mu, y = ([_rand_positive(rng) for _ in range(n)] for _ in range(4))
    t_null, t_hom = _rand_positive(rng, _SCALE_LOGS), _rand_positive(rng, _SCALE_LOGS)
    z = _rand_positive(rng)
    perm = list(range(n))
    rng.shuffle(perm)
    j, delta = rng.randrange(n), _rand_positive(rng, _BUMP_LOGS)
    return x, w, {
        "nullhomogeneity": {"x": x, "w": w, "t": t_null},
        "reduction": {"x": x, "lam": w, "mu": mu},
        "mean_value": {"x": x, "w": w},
        "elimination": {"x": x, "w": w, "z": z},
        "symmetric": {"x": x, "w": w, "perm": perm},
        "monotone": {"x": x, "w": w, "j": j, "delta": delta},
        "concave": {"x": x, "w": w, "y": y},
        "homogeneous": {"x": x, "w": w, "t": t_hom},
    }


def check_axioms(mean: MeanSpec, trials: int = 200, seed: int = 0,
                 tol: float = DEFAULT_AXIOM_TOL) -> AxiomReport:
    """Randomized empirical check of the weighted-mean axioms plus every
    claimed shape flag.

    The four axioms always run, except that the elimination check (append
    an entry with weight eps and let eps shrink) only applies to means
    declared continuous in the weights; min/max-type means jump when a
    new extremum enters with arbitrarily small weight. Claimed flags run
    their own randomized checks; unclaimed flags are recorded as skipped.

    Each trial draws one instance from the single stream
    random.Random(f"axioms:{seed}") and evaluates M(x, w) once for every
    check that runs; the witnesses of a failing mean thus differ from those
    of earlier versions, which drew one stream per check.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    report = AxiomReport(mean_name=str(mean), tol=tol, seed=seed)
    # a flag's check runs when the flag is claimed; the axioms are not flags
    skipped = {name: "flag not claimed" for name in _MEASURES if not getattr(mean.flags, name, True)}
    if not mean.flags.continuous_in_weights:
        skipped["elimination"] = "mean not declared continuous in weights"
    # failures, worst violation and its witness of each check that runs
    tally = {name: [0, 0.0, None] for name in _MEASURES if name not in skipped}
    rng = random.Random(f"axioms:{seed}")
    for _ in range(trials):
        x, w, witnesses = _draw_instance(rng)
        base = evaluate(mean, x, w)
        for name, counts in tally.items():
            viol = _MEASURES[name](mean, witnesses[name], tol, base)
            if viol > 0:
                counts[0] += 1
                if viol > counts[1]:
                    counts[1:] = viol, witnesses[name]
    for name in _MEASURES:
        report.outcomes[name] = (CheckOutcome(name, trials, *tally[name]) if name in tally
                                 else CheckOutcome(name, 0, 0, 0.0, skipped=skipped[name]))
    return report
