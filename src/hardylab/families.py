"""Concrete mean families.

Power means over the full extended order range [-inf, +inf] (min,
geometric, arithmetic, max as special orders) and quasi-arithmetic means
built from forward/inverse generator pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import MeanDomainError, MeanFlags, MeanSpec, evaluate
from .scalars import all_exact, format_number, integer_masses, parse_float

# The order policy shared by power_mean and the search's prefix_means.
# Below GEOMETRIC_ORDER_CUTOFF an order behaves as 0 (geometric), above
# EXTREME_ORDER_CUTOFF as +/-inf (max/min). Below NEAR_GEOMETRIC_LIMIT the
# mean goes through u^p - 1 = expm1(p ln u), which keeps the digits that
# u^p ~ 1 would round away: the raw route's final power 1/p multiplies
# rounding by 1/|p|, past about 1e-14 relative below |p| = 1e-2. Raw
# powers u^p stay in float range up to RAW_POWER_LIMIT, and beyond it sums
# go through shifted exponentials.
GEOMETRIC_ORDER_CUTOFF = 1e-8
NEAR_GEOMETRIC_LIMIT = 1e-2
RAW_POWER_LIMIT = 16.0
EXTREME_ORDER_CUTOFF = 1e8


def order_regime(p: float) -> str:
    """How the order-p power mean is evaluated: "min", "max", "geometric",
    "near_geometric", "raw" (powers u^p) or "log" (log domain)."""
    if p > EXTREME_ORDER_CUTOFF:
        return "max"
    if p < -EXTREME_ORDER_CUTOFF:
        return "min"
    if abs(p) < GEOMETRIC_ORDER_CUTOFF:  # covers p == 0
        return "geometric"
    if abs(p) < NEAR_GEOMETRIC_LIMIT:
        return "near_geometric"
    return "raw" if abs(p) <= RAW_POWER_LIMIT else "log"


_INT_TYPE = frozenset((int,))


def _normalized_weights(entries: tuple) -> list:
    """Checked weight entries (positive, finite where floats; see
    kernel.MeanSpec) scaled to unit total, exactly in rational mode so
    that rescaling the weight vector cancels exactly.

    Rational entries become integer masses m_i over one common denominator
    (scalars.integer_masses; Python ints are their own masses), and weight
    i is m_i / sum(m): CPython's int / int is correctly rounded, as is
    float(Fraction), so each weight equals float(Fraction(e) / sum(entries))
    bit for bit, without a Fraction operation per entry.

    The route goes by the type of the first entry: a vector of Python ints
    is tried first (one type scan), a float first entry goes to the float
    route at once, and any other vector is exact when every entry is
    (scalars.all_exact).
    """
    first = type(entries[0])
    if first is int and _INT_TYPE.issuperset(map(type, entries)):
        masses = entries
    elif first is not float and all_exact(entries):
        masses = integer_masses(entries)[0]
    else:
        ft = float(sum(entries))
        return [float(e) / ft for e in entries]
    total = sum(masses)
    return [m / total for m in masses]


def power_mean(p: float, x, w) -> float:
    """Weighted power mean of order p at points x with weights w:
    evaluate(power(p), x, w), so x and w are checked as evaluate checks
    them.

    Orders -inf/+inf give the min/max, order 0 the geometric mean; see
    order_regime for the cutoffs. The result is clamped into [min x, max x];
    the clamp only ever corrects float rounding, since containment is
    guaranteed mathematically.
    """
    return evaluate(power(p), x, w)


def _power_mean(p: float, regime: str, xs: tuple, nw: list) -> float:
    """The arithmetic of power(p) (float order p, not NaN, of regime
    order_regime(p)) on checked points with normalized weights."""
    lo, hi = min(xs), max(xs)
    if lo == hi:
        return lo
    if regime == "max":
        return hi
    if regime == "min":
        return lo
    if regime == "geometric":
        out = math.exp(sum(nwi * math.log(v) for nwi, v in zip(nw, xs)))
    elif regime == "near_geometric":
        s = sum(nwi * math.expm1(p * math.log(v)) for nwi, v in zip(nw, xs))
        out = math.exp(math.log1p(s) / p)
    elif p == 1.0:
        out = sum(nwi * v for nwi, v in zip(nw, xs))
    else:  # raw and log regimes alike: shifted exponentials cannot overflow
        z = [p * math.log(v) for v in xs]
        zmax = max(z)
        s = sum(nwi * math.exp(zi - zmax) for nwi, zi in zip(nw, z))
        out = math.exp((zmax + math.log(s)) / p)
    return min(hi, max(lo, out))


def power(p: float, flags: Optional[MeanFlags] = None) -> MeanSpec:
    """MeanSpec for the order-p power mean.

    Default flags: symmetric, monotone, homogeneous; concave exactly for
    p <= 1; continuous in the weights only for finite orders (min/max jump
    when a new extremum enters with arbitrarily small weight). An explicit
    `flags` argument overrides the defaults, e.g. to plant a wrong claim
    for the axiom checker to find.
    """
    p = float(p)
    if math.isnan(p):
        raise MeanDomainError("power order must not be NaN")
    if flags is None:
        flags = MeanFlags(
            symmetric=True,
            monotone=True,
            concave=(p <= 1),
            homogeneous=True,
            continuous_in_weights=math.isfinite(p),
        )
    regime = order_regime(p)  # once per spec, not once per evaluation
    return MeanSpec(
        family="power",
        params=p,
        flags=flags,
        fn=lambda xs, ws: _power_mean(p, regime, xs, _normalized_weights(ws)),
        name=f"power:{format_number(p)}",
    )


# ---------------------------------------------------------------------------
# quasi-arithmetic means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorHandle:
    """Strictly monotone generator and its inverse; both should accept
    scalars (numpy arrays too, for the fast estimation paths).

    power_order is the order of the power mean the generator reproduces.
    Only builtin_generator sets it, so a user generator never inherits the
    flags of a built-in that happens to share its name.
    """

    name: str
    forward: Callable
    inverse: Callable
    power_order: Optional[float] = None


# points and relative tolerance of make_generator's round-trip check
_ROUND_TRIP_POINTS = (0.25, 0.5, 1.0, 2.0, 7.5)
_ROUND_TRIP_TOL = 1e-9


def make_generator(name: str, forward: Callable, inverse: Callable) -> GeneratorHandle:
    """Pair a generator with its inverse, validating the round trip on
    sample points."""
    for t in _ROUND_TRIP_POINTS:
        with np.errstate(all="ignore"):
            back = float(inverse(forward(t)))
        # negated form so NaN round trips count as failures too
        if not (abs(back - t) <= _ROUND_TRIP_TOL * max(1.0, abs(t))):
            raise ValueError(f"inverse fails to invert forward at t={t}: got {back}")
    return GeneratorHandle(name, forward, inverse)


# name -> (forward, inverse, order of the power mean it reproduces)
_BUILTIN_GENERATORS = {
    "log": (np.log, np.exp, 0.0),
    "identity": (lambda t: t, lambda t: t, 1.0),
    "sqrt": (np.sqrt, np.square, 0.5),
}


def builtin_generator(name: str) -> GeneratorHandle:
    try:
        fwd, inv, order = _BUILTIN_GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_GENERATORS))
        raise ValueError(f"unknown generator {name!r}; built-ins: {known}") from None
    return GeneratorHandle(name, fwd, inv, power_order=order)


def quasiarithmetic_mean(gen: GeneratorHandle, x, w) -> float:
    """Quasi-arithmetic mean inverse(sum w_i * forward(x_i) / sum w):
    evaluate(quasiarithmetic(gen), x, w), so x and w are checked as
    evaluate checks them.

    The result is not clamped, so a broken generator stays visible to the
    mean-value check.
    """
    return evaluate(quasiarithmetic(gen), x, w)


def _quasiarithmetic_mean(gen: GeneratorHandle, xs: tuple, nw: list) -> float:
    """The arithmetic of quasiarithmetic(gen) on checked points with
    normalized weights."""
    if len(xs) == 1:
        return xs[0]
    try:
        s = sum(nwi * float(gen.forward(v)) for nwi, v in zip(nw, xs))
        out = float(gen.inverse(s))
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise MeanDomainError(f"generator {gen.name!r} failed on {xs}: {exc}") from exc
    if not math.isfinite(out):
        raise MeanDomainError(f"generator {gen.name!r} produced non-finite value on {xs}")
    return out


def quasiarithmetic(gen: GeneratorHandle, flags: Optional[MeanFlags] = None) -> MeanSpec:
    """MeanSpec for the quasi-arithmetic mean of a generator.

    Built-in generators, which carry the order of the power mean they
    reproduce, inherit that mean's flags; any other generator defaults to
    symmetric+monotone only (flags are user claims, verified empirically
    by check_axioms).
    """
    if flags is None:
        order = gen.power_order
        if order is not None:
            flags = MeanFlags(symmetric=True, monotone=True,
                              concave=(order <= 1), homogeneous=True)
        else:
            flags = MeanFlags(symmetric=True, monotone=True)
    return MeanSpec(
        family="quasiarithmetic",
        params=gen,
        flags=flags,
        fn=lambda xs, ws: _quasiarithmetic_mean(gen, xs, _normalized_weights(ws)),
        name=f"quasiarithmetic:{gen.name}",
    )


def power_order(mean: MeanSpec) -> Optional[float]:
    """The order p of a power spec, or of a quasi-arithmetic mean whose
    generator carries its power order; None for every other mean."""
    if mean.family == "power":
        return float(mean.params)
    if mean.family == "quasiarithmetic":
        return mean.params.power_order
    return None


def parse_mean(text: str) -> MeanSpec:
    """Parse a mean descriptor.

    Forms: "power:P" with P a number or +/-inf (e.g. "power:0.5",
    "power:-inf"), "quasiarithmetic:NAME" with a built-in generator name,
    and the alias "arithmetic" for power:1.
    """
    token = text.strip()
    head, sep, arg = token.partition(":")
    if head == "arithmetic" and not sep:
        return power(1.0)
    if head == "power" and sep:
        try:
            return power(parse_float(arg))
        except ValueError:
            raise ValueError(f"bad power order {arg!r} in {text!r}") from None
    if head == "quasiarithmetic" and sep:
        return quasiarithmetic(builtin_generator(arg))
    raise ValueError(
        f"unknown mean descriptor {text!r}; expected 'power:P', "
        "'quasiarithmetic:NAME', or 'arithmetic'")
