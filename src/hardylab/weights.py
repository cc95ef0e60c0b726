"""Infinite positive weight sequences.

Provides exact partial sums and tail bounds where closed forms exist (one
geometric closed form serves "ones", "dyadic" and "geometric:Q"),
divergence bookkeeping (a finite prefix can never decide divergence, so
verdicts come from closed-form knowledge only), term/partial-sum ratio
diagnostics, block coarsening, and the exact prefix check for the
partition (coarsening) order.

An exact sequence gives its first N terms as Python-int masses over one
common denominator (WeightSeq.masses), from a closed form for the
geometric, perturbed-dyadic and coarsened sequences. The term ratios
w_n / W_n are then the integer pairs (m_n, M_n), M_n the running sum of
the masses, so routes that need only their floats, their order or their
rounded sum (ratio_diagnostics, checks.lsc_example_table) build no
Fraction and take no gcd.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .kernel import MeanDomainError
from .scalars import (Number, format_number, integer_masses, is_exact, json_ready, parse_float,
                      parse_number)

# exact ratio diagnostics above this many terms would drag big-integer
# arithmetic for fast-growing sequences; fall back to floats there
EXACT_RATIO_LIMIT = 10_000

# cap on the terms of the finer sequence walked while matching partial
# sums, a backstop for partial sums that never reach their target
MAX_WALK_STEPS = 500_000


class WeightSeq:
    """Lazy strictly positive weight sequence, 1-indexed.

    partial_sum(n) uses the supplied closed form when there is one and
    otherwise accumulates terms into a cache (filled once, lock-guarded).
    masses(N) likewise uses a supplied closed form, and otherwise the
    integer masses of the first N terms. tail_bound(n) bounds the mass
    beyond n, which certifies convergence; sum_diverges records
    closed-form divergence knowledge (None=unknown). A sequence of float
    terms (of the descriptors, power:ALPHA with non-integral ALPHA) is in
    float mode and certifies nothing. floats(start, stop),
    where supplied, gives the floats of terms start+1..stop as one array, exactly
    as term_float rounds them (see terms_floats).
    """

    def __init__(self, descriptor: str, term: Callable[[int], Number], *,
                 partial_sum: Optional[Callable[[int], Number]] = None,
                 masses: Optional[Callable[[int], Tuple[List[int], int]]] = None,
                 tail_bound: Optional[Callable[[int], Number]] = None,
                 sum_diverges: Optional[bool] = None,
                 divergence_reason: str = "",
                 term_float: Optional[Callable[[int], float]] = None,
                 floats: Optional[Callable[[int, int], np.ndarray]] = None):
        if tail_bound is not None and sum_diverges:
            raise ValueError("a sequence with a bounded tail cannot diverge")
        self.descriptor = descriptor
        self._term = term
        self._partial_sum = partial_sum
        self._masses = masses
        self._tail_bound = tail_bound
        self.sum_diverges = sum_diverges
        self.divergence_reason = divergence_reason
        self._term_float = term_float
        self._floats = floats
        self._exact = is_exact(self._positive(1, term(1)))
        self._cache: List[Number] = [Fraction(0) if self._exact else 0.0]
        self._lock = threading.Lock()

    def __repr__(self):
        return f"WeightSeq({self.descriptor!r})"

    # -- basic access -------------------------------------------------------

    def term(self, n: int) -> Number:
        if n < 1:
            raise ValueError("terms are 1-indexed")
        return self._positive(n, self._term(n))

    def _positive(self, n: int, v: Number) -> Number:
        if not v > 0:
            raise ValueError(f"{self.descriptor}: term({n}) = {v!r} is not positive")
        return v

    @property
    def exact(self) -> bool:
        return self._exact

    @property
    def number_mode(self) -> str:
        return "exact_rational" if self._exact else "float"

    def partial_sum(self, n: int) -> Number:
        if n < 0:
            raise ValueError("partial sums start at n=0")
        if n == 0:
            return self._cache[0]
        if self._partial_sum is not None:
            return self._partial_sum(n)
        with self._lock:
            while len(self._cache) <= n:
                k = len(self._cache)
                self._cache.append(self._cache[-1] + self.term(k))
            return self._cache[n]

    def masses(self, N: int) -> Tuple[List[int], int]:
        """The first N terms as integer masses over one common denominator:
        (masses, D) with term(n) == masses[n - 1] / D, all Python ints and
        not necessarily in lowest terms. Exact-rational sequences only."""
        if not self._exact:
            raise TypeError(f"{self.descriptor}: integer masses need an exact-rational sequence")
        if N < 0:
            raise ValueError("need N >= 0")
        if self._masses is not None:
            return self._masses(N)
        return integer_masses([self.term(n) for n in range(1, N + 1)])

    def tail_bound(self, n: int) -> Optional[Number]:
        """Upper bound on the weight mass strictly beyond position n, when
        one can be certified; None otherwise."""
        if n < 0:
            raise ValueError("tails start at n=0")
        return None if self._tail_bound is None else self._tail_bound(n)

    # -- float views for array computations ----------------------------------

    def terms_floats(self, n: int, start: int = 0,
                     stop: Optional[int] = None) -> np.ndarray:
        """Terms start+1..stop of the first n as floats, all n by default;
        terms that leave the float range are a domain error of the float
        routes, not a usage error, reported against n whichever block is
        read. A sequence with a closed form for its floats (the floats
        argument) gives them as one array; the others round each term as
        term_float does."""
        stop = n if stop is None else stop
        if self._floats is not None:
            arr = self._floats(start, stop)
        else:
            tf = self._term_float or (lambda k: float(self.term(k)))
            try:
                arr = np.array([tf(k) for k in range(start + 1, stop + 1)], dtype=float)
            except OverflowError:
                raise MeanDomainError(
                    f"{self.descriptor}: terms overflow float range before n={n}") from None
        if not np.all(np.isfinite(arr)):
            raise MeanDomainError(f"{self.descriptor}: terms overflow float range before n={n}")
        if not np.all(arr > 0):
            raise MeanDomainError(
                f"{self.descriptor}: terms underflow to zero in float mode before n={n}")
        return arr

    def partial_sums_floats(self, n: int) -> np.ndarray:
        return np.cumsum(self.terms_floats(n))


# ---------------------------------------------------------------------------
# built-in descriptors
# ---------------------------------------------------------------------------


def _geometric(desc: str, q: Number, qf: float) -> WeightSeq:
    """q^n for an exact ratio q = a/b > 0 (qf is q as a float).

    Partial sums are n q at q = 1 and a (b^n - a^n) / (b^n (b - a))
    otherwise; below 1 the tail beyond n is a^(n+1) / (b^n (b - a)). Each
    is one Fraction of two integers (an int at q = 1). The first N terms
    are the masses a^n b^(N-n) over b^N. At q = 1 their floats are one
    np.ones block.
    """
    a, b = q.numerator, q.denominator
    floats = (lambda lo, hi: np.ones(hi - lo)) if a == b else None

    def psum(n):
        if a == b:
            return n * q
        bn = b ** n
        return Fraction(a * (bn - a ** n), bn * (b - a))

    def masses(N):
        d = m = b ** N
        out = []
        for _ in range(N):  # a^n b^(N-n) from a^(n-1) b^(N-n+1)
            m = m // b * a
            out.append(m)
        return out, d

    converges = q < 1
    return WeightSeq(
        desc, lambda n: q ** n,
        partial_sum=psum,
        masses=masses,
        tail_bound=(lambda n: Fraction(a ** (n + 1), b ** n * (b - a))) if converges else None,
        sum_diverges=not converges,
        divergence_reason=f"geometric with ratio {format_number(q)} "
                          f"{'<' if converges else '>='} 1",
        term_float=lambda n: qf ** n,
        floats=floats)


def make_sequence(spec: str) -> WeightSeq:
    """Build a weight sequence from a descriptor.

    Descriptors: "geometric:Q" (Q^n) with a positive ratio like "1/2" or
    "2" (rational literals stay exact), its special cases "ones" (Q = 1)
    and "dyadic" (Q = 1/2, so 2^-n), "perturbed-dyadic:K" (dyadic with the
    K-th term raised to 1), and "power:ALPHA" (n^alpha; exact for integer
    alpha, float terms otherwise). Convergent exact descriptors carry a
    tail bound: the exact tail for the geometric and perturbed-dyadic
    ones, and for integer alpha the integral bound n^(alpha+1) / (-alpha-1),
    with 1 + 1/(-alpha-1) for the whole mass at n = 0. A non-integral
    alpha carries none (tail_bound answers None).
    """
    token = spec.strip()
    head, sep, arg = token.partition(":")

    if head == "ones" and not sep:
        return _geometric("ones", 1, 1.0)
    if head == "dyadic" and not sep:
        return _geometric("dyadic", Fraction(1, 2), 0.5)
    if head == "geometric" and sep:
        q = parse_number(arg)
        if isinstance(q, float) and not math.isfinite(q):
            raise ValueError("geometric ratio must be finite")
        if not q > 0:
            raise ValueError("geometric ratio must be positive")
        # parse_number makes every finite literal exact; parse_float refuses
        # a literal beyond the float range
        return _geometric(f"geometric:{format_number(q)}", q, parse_float(arg))

    if head == "perturbed-dyadic" and sep:
        try:
            k = int(arg)
        except ValueError:
            raise ValueError(f"bad bump index {arg!r} in {spec!r}") from None
        if k < 1:
            raise ValueError("bump index must be >= 1")

        def term(n, _k=k):
            return Fraction(1) if n == _k else Fraction(1, 2 ** n)

        def psum(n, _k=k):
            # past the bump, the dyadic sum plus 1 - 2^-k
            extra = 2 ** n - 2 ** (n - _k) if n >= _k else 0
            return Fraction(2 ** n - 1 + extra, 2 ** n)

        def masses(N, _k=k):
            # dyadic over 2^N, and the whole denominator at the bump
            out = [1 << (N - n) for n in range(1, N + 1)]
            if _k <= N:
                out[_k - 1] = 1 << N
            return out, 1 << N

        def tail(n, _k=k):
            # the dyadic tail 2^-n, plus 1 - 2^-k before the bump
            if n >= _k:
                return Fraction(1, 2 ** n)
            return Fraction(2 ** (_k - n) + 2 ** _k - 1, 2 ** _k)

        return WeightSeq(
            f"perturbed-dyadic:{k}", term,
            partial_sum=psum,
            masses=masses,
            tail_bound=tail,
            sum_diverges=False,
            divergence_reason="dyadic with a single bumped term",
            term_float=lambda n, _k=k: 1.0 if n == _k else math.ldexp(1.0, -n))

    if head == "power" and sep:
        alpha = parse_number(arg)
        if isinstance(alpha, float) and not math.isfinite(alpha):
            raise ValueError("power exponent must be finite")
        af = parse_float(arg)  # refuses a literal beyond the float range
        desc = f"power:{format_number(alpha)}"
        integral = is_exact(alpha) and Fraction(alpha).denominator == 1
        if integral:
            a_int = int(alpha)
            term = (lambda n, _a=a_int: n ** _a) if a_int >= 0 else \
                   (lambda n, _a=a_int: Fraction(1, n ** (-_a)))
        else:
            term = lambda n: float(n) ** af
        div = af >= -1
        reason = f"p-series with exponent {format_number(alpha)} {'>=' if div else '<'} -1"
        # the integral bound n^(alpha+1) / (-alpha-1) of a convergent integer
        # alpha; at n = 0 the first term plus the bound beyond 1
        tail = None
        if integral and not div:
            tail = lambda n, _b=-a_int - 1: \
                Fraction(1, _b * n ** _b) if n else 1 + Fraction(1, _b)
        return WeightSeq(
            desc, term, tail_bound=tail,
            sum_diverges=div, divergence_reason=reason,
            term_float=lambda n: float(n) ** af)

    raise ValueError(
        f"unknown weight descriptor {spec!r}; expected ones, dyadic, "
        "geometric:Q, perturbed-dyadic:K, or power:ALPHA")


def random_rational_sequence(seed: int) -> WeightSeq:
    """Deterministic pseudo-random sequence of rationals a/b with a, b in
    1..9; term(n) depends only on (seed, n), so any prefix is
    reproducible."""

    def term(n: int) -> Fraction:
        rng = random.Random(f"hardylab-weights:{seed}:{n}")
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    return WeightSeq(
        f"random-rational:{seed}", term,
        sum_diverges=True,
        divergence_reason="terms bounded below by 1/9")


# ---------------------------------------------------------------------------
# ratio diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Term/partial-sum ratios of a weight sequence and what they imply."""

    descriptor: str
    N: int
    ratios: Tuple[float, ...]
    is_nonincreasing: bool
    ratio_limit_estimate: float
    max_term_ratio: float
    partial_sum_at_N: Number
    divergence_verdict: str  # diverges | converges | inconclusive
    justification: str

    def to_json(self) -> dict:
        out = {
            "descriptor": self.descriptor,
            "N": self.N,
            "is_nonincreasing": self.is_nonincreasing,
            "ratio_limit_estimate": self.ratio_limit_estimate,
            "max_term_ratio": self.max_term_ratio,
            "partial_sum_at_N": json_ready(self.partial_sum_at_N),
            "divergence_verdict": self.divergence_verdict,
            "justification": self.justification,
        }
        if self.N <= 64:
            out["ratios"] = list(self.ratios)
        return out


def term_ratio_pairs(w: WeightSeq, N: int) -> List[Tuple[int, int]]:
    """(m_n, M_n) for n = 1..N of an exact sequence, with w.masses(N) the
    m_n and M_n their running sums, so that w_n / W_n == m_n / M_n; the
    pairs are not reduced."""
    masses, _ = w.masses(N)
    return list(zip(masses, accumulate(masses)))


def term_ratios(w: WeightSeq, N: int) -> List[Fraction]:
    """w_n / W_n for n = 1..N of an exact sequence, exactly."""
    return [Fraction(m, M) for m, M in term_ratio_pairs(w, N)]


def ratio_diagnostics(w: WeightSeq, N: int) -> RatioReport:
    """Ratios term(n)/partial_sum(n) for n <= N, their monotonicity, the
    max-term ratio max(term_1..term_N)/partial_sum(N), and a divergence
    verdict.

    The verdict comes from closed-form knowledge carried by the sequence;
    a finite prefix cannot decide divergence, so sequences without that
    knowledge report "inconclusive". Ratios always sit in (0, 1] and the
    first one equals 1.

    The exact path works on the integer masses: each ratio m_n / M_n and
    the max-term ratio are int / int, correctly rounded as float(Fraction)
    is, and monotonicity compares m_n M_(n+1) with m_(n+1) M_n.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if w.exact and N <= EXACT_RATIO_LIMIT:
        masses, d = w.masses(N)
        pairs = list(zip(masses, accumulate(masses)))
        noninc = all(m * M1 >= m1 * M for (m, M), (m1, M1) in zip(pairs, pairs[1:]))
        ratios = tuple(m / M for m, M in pairs)
        total = pairs[-1][1]
        psum_n = Fraction(total, d)
        max_ratio = max(masses) / total
    else:
        arr = w.terms_floats(N)
        sums = np.cumsum(arr)
        rarr = arr / sums
        noninc = bool(np.all(rarr[:-1] >= rarr[1:]))
        ratios = tuple(rarr.tolist())
        max_ratio = float(arr.max() / sums[-1])
        psum_n = float(sums[-1])
    verdict = {True: "diverges", False: "converges", None: "inconclusive"}[w.sum_diverges]
    justification = w.divergence_reason or "no closed-form divergence information"
    return RatioReport(
        descriptor=w.descriptor, N=N, ratios=ratios,
        is_nonincreasing=noninc,
        ratio_limit_estimate=ratios[-1],
        max_term_ratio=max_ratio,
        partial_sum_at_N=psum_n,
        divergence_verdict=verdict,
        justification=justification)


# ---------------------------------------------------------------------------
# coarsening and the partition order
# ---------------------------------------------------------------------------


def coarsen(w: WeightSeq, blocks: Sequence[int]) -> WeightSeq:
    """Sum consecutive blocks of w into a new sequence.

    `blocks` gives the leading block sizes; beyond the given list blocks
    default to size 1. Block sums use partial-sum differences, so the
    result is exact whenever w is; its masses are the block sums of w's
    masses over w's denominator. The result is a partition-coarsening of
    w, certifiable prefix-by-prefix with is_coarsening_of.
    """
    sizes = [int(b) for b in blocks]
    if not sizes:
        raise ValueError("blocks must be nonempty")
    if any(b < 1 for b in sizes):
        raise ValueError("block sizes must be >= 1 (empty blocks would need zero weights)")
    bounds = [0]
    for b in sizes:
        bounds.append(bounds[-1] + b)

    def boundary(k: int) -> int:
        if k <= len(sizes):
            return bounds[k]
        return bounds[-1] + (k - len(sizes))

    def masses(N: int) -> Tuple[List[int], int]:
        fine, d = w.masses(boundary(N))
        return [sum(fine[boundary(k - 1):boundary(k)]) for k in range(1, N + 1)], d

    has_tail = w.tail_bound(1) is not None
    shown = ",".join(map(str, sizes[:8])) + (",..." if len(sizes) > 8 else "")
    return WeightSeq(
        f"coarsen[{shown}]({w.descriptor})",
        lambda k: w.partial_sum(boundary(k)) - w.partial_sum(boundary(k - 1)),
        partial_sum=lambda k: w.partial_sum(boundary(k)),
        masses=masses,
        tail_bound=(lambda k: w.tail_bound(boundary(k))) if has_tail else None,
        sum_diverges=w.sum_diverges,
        divergence_reason=w.divergence_reason)


def _match_partial_sums(psi: WeightSeq, lam: WeightSeq, terms: int) -> Optional[List[int]]:
    """Indices n_m with psi.partial_sum(m) == lam.partial_sum(n_m) for
    m = 1..terms, or None once a partial sum of psi falls strictly between
    two consecutive partial sums of lam. RuntimeError after MAX_WALK_STEPS
    terms of lam."""
    if not (psi.exact and lam.exact):
        raise TypeError("partition-order check requires exact-rational sequences")
    out: List[int] = []
    n = 0
    lam_sum: Number = 0
    for m in range(1, terms + 1):
        target = psi.partial_sum(m)
        while lam_sum < target:
            if n >= MAX_WALK_STEPS:
                raise RuntimeError(
                    f"walked {MAX_WALK_STEPS} terms of {lam.descriptor} without "
                    f"reaching partial sum {m} of {psi.descriptor}")
            n += 1
            lam_sum = lam.partial_sum(n)
        if lam_sum != target:
            return None
        out.append(n)
    return out


def is_coarsening_of(psi: WeightSeq, lam: WeightSeq, terms: int) -> bool:
    """Exact prefix certificate for the partition order: the first `terms`
    partial sums of psi all occur among the partial sums of lam.

    True certifies the examined prefix only, never the full infinite
    relation. Requires exact-rational sequences; float inputs raise.
    """
    if terms < 1:
        raise ValueError("need terms >= 1")
    return _match_partial_sums(psi, lam, terms) is not None
