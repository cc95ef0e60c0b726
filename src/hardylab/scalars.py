"""Shared numeric helpers: exact-vs-float bookkeeping, extended reals,
exact sums of rationals, rationals as integer masses over one common
denominator (integer_masses), the correctly rounded float of an exact sum
from an integer bracket (ratio_fsum over (numerator, denominator) int
pairs), and parsing/formatting of number literals ("p/q", decimals,
"inf")."""

from __future__ import annotations

import heapq
import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from numbers import Rational
from typing import Any, Iterable, List, Sequence, Tuple, Union

Number = Union[int, float, Fraction]


def is_exact(value: Any) -> bool:
    """True for values that support exact rational arithmetic."""
    t = type(value)  # the common types decide without the slower ABC check
    if t is int or t is Fraction or t is float:
        return t is not float
    return isinstance(value, Rational) and t is not bool


def all_exact(values: Sequence) -> bool:
    return all(map(is_exact, values))


def exact_sum(values: Iterable[Number]) -> Number:
    """sum(values) for exact rationals, equal to it in value and in type.

    The two partial sums with the shortest denominators (in bits) are
    added next, Huffman's greedy order, with ties taken in insertion order
    so that no two values are ever compared. On CPython 3.11 each Fraction
    addition pays two gcds whose cost grows quadratically with the size of
    the denominators, so the largest operands should meet as late and as
    seldom as possible: pairing neighbours by position leaves two huge ones
    for each of its last levels (the last two took about 60 % of the time
    for the lambda_n/Lambda_n of dyadic at N = 1000), and a left-to-right sum pays
    a gcd on the whole running denominator at every term. Against the
    pairwise order (2-core VM, Python 3.11, best of 5): dyadic at N = 1000
    276 -> 192 ms, geometric:9/10 at N = 500 195 -> 138 ms,
    perturbed-dyadic:3 at N = 1000 255 -> 240 ms, power:-2 at N = 1000
    1.75 -> 1.66 s; at N = 60 the heap costs 0.04 ms more (0.10 -> 0.14 ms).
    The order changes no result: the sum is one normalized rational.
    """
    heap = [(v.denominator.bit_length(), i, v) for i, v in enumerate(values)]
    heapq.heapify(heap)
    count = len(heap)
    while len(heap) > 1:
        a = heapq.heappop(heap)[2]
        s = a + heap[0][2]
        heapq.heapreplace(heap, (s.denominator.bit_length(), count, s))
        count += 1
    return sum(v for _, _, v in heap)  # 0 when there are no values, as sum() gives


# bits that ratio_fsum's integer bracket keeps beyond a double's 54
# (53 and the rounding bit), on top of one per doubling of the term count;
# the bracket straddles a rounding boundary about once in 2**32 sums that
# are not exact at its scale, and those take the exact sum
_FSUM_GUARD_BITS = 32


def ratio_fsum(pairs: Sequence[Tuple[int, int]]) -> float:
    """The correctly rounded float of the sum of a/b over int pairs (a, b)
    with b > 0, without building the sum; the pairs need not be in lowest
    terms.

    With sum S, the integers lo = sum of floor(a 2**B / b) and
    hi = lo + (the number of terms with a remainder) satisfy
    lo <= S 2**B <= hi; the floor and whether it leaves a remainder depend
    on a/b only, not on how the pair is written. B puts the largest term
    about 54 + _FSUM_GUARD_BITS + log2(len) bits above the bracket's
    width, so for positive terms the bracket is far narrower than half an
    ulp of S; a term of k bits costs one division of k + B bits, where the
    exact sum pays gcds on a common denominator that grows with every
    term. Rounding to nearest is monotone and CPython's int / int is
    correctly rounded, so when lo / 2**B and hi / 2**B give the same
    double, that double is float(S). Otherwise (S lies near a midpoint
    between doubles, or terms of both signs cancel) the exact sum, built
    only then, decides. Beyond the float range this raises OverflowError,
    as float(Fraction) does.
    """
    if not pairs:
        return 0.0
    top = max(a.bit_length() - b.bit_length() for a, b in pairs)  # log2 of the largest, +-1
    scale = 54 + _FSUM_GUARD_BITS + len(pairs).bit_length() - top  # B
    up, down = max(scale, 0), max(-scale, 0)
    lo = inexact = 0
    for a, b in pairs:
        q, r = divmod(a << up, b << down)
        lo += q
        inexact += r != 0
    try:
        lo_f, hi_f = ((n << down) / (1 << up) for n in (lo, lo + inexact))
        if lo_f == hi_f:
            return lo_f
    except OverflowError:  # an end beyond the float range; S may be just inside
        pass
    return float(exact_sum(Fraction(a, b) for a, b in pairs))


def integer_masses(values: Iterable[Rational]) -> Tuple[List[int], int]:
    """Exact rationals as integer masses over one common denominator:
    (masses, D) with values[i] == masses[i] / D and D the lcm of the
    denominators, all Python ints.

    Every numerator and denominator goes through int(), so numpy integers
    become Python ints and sums of the masses cannot wrap.
    """
    nums, dens = [], []
    for v in values:
        if type(v) is int:
            nums.append(v)
            dens.append(1)
        else:
            nums.append(int(v.numerator))
            dens.append(int(v.denominator))
    d = math.lcm(*dens)
    return [n * (d // k) for n, k in zip(nums, dens)], d


def parse_number(text: str) -> Number:
    """Parse a number literal.

    "p/q", integer, and decimal strings (including exponent notation)
    become exact ints/Fractions; "inf"/"-inf" become floats.
    """
    token = text.strip().lower()
    if token in ("inf", "+inf"):
        return math.inf
    if token == "-inf":
        return -math.inf
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number literal: {text!r}") from exc
    return int(value) if value.denominator == 1 else value


def parse_float(text: str) -> float:
    """parse_number rounded to a float; a literal beyond the float range is
    a ValueError, not an OverflowError."""
    try:
        return float(parse_number(text))
    except OverflowError:
        raise ValueError(f"{text.strip()!r} is beyond the float range") from None


# _digits converts integers up to this many bits with Decimal(n), whose
# cost grows quadratically with the size, and splits larger ones
_DIGITS_SPLIT_BITS = 2048
# integer arithmetic in Decimal without rounding (Inexact would raise)
_EXACT_DECIMAL = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _digits(n: int) -> str:
    """Decimal digits of an integer of any size.

    str() refuses integers beyond sys.get_int_max_str_digits(), a
    process-wide limit, and both it and Decimal(n) take time quadratic in
    the number of digits on Python 3.11. So n is split in halves on its
    bits, recursively down to _DIGITS_SPLIT_BITS, and each pair of halves
    is joined as hi * 2**k + lo in exact Decimal arithmetic, whose
    multiplication is subquadratic; the powers of two are built once per
    call.
    """
    if n < 0:
        return "-" + _digits(-n)
    ctx = _EXACT_DECIMAL
    powers = {}

    def two_to(k: int) -> Decimal:
        if k not in powers:
            powers[k] = (Decimal(1 << k) if k <= _DIGITS_SPLIT_BITS
                         else ctx.multiply(two_to(k >> 1), two_to(k - (k >> 1))))
        return powers[k]

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _DIGITS_SPLIT_BITS:
            return Decimal(m)
        k = bits >> 1
        hi = m >> k
        return ctx.add(ctx.multiply(convert(hi, bits - k), two_to(k)),
                       convert(m - (hi << k), k))

    return str(convert(n, n.bit_length()))


def format_number(value: Number) -> str:
    """Render for display: rationals as p/q (of any size), integral floats
    without a trailing .0, infinities as inf/-inf."""
    if is_exact(value):
        f = Fraction(value)
        if f.denominator == 1:
            return _digits(f.numerator)
        return f"{_digits(f.numerator)}/{_digits(f.denominator)}"
    v = float(value)
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def json_ready(obj):
    """Recursively convert a value for JSON output: exact rationals render
    as "p/q" strings, non-finite floats as "inf"/"-inf", tuples as lists."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if is_exact(obj):
        v = Fraction(obj)
        return int(v) if v.denominator == 1 else format_number(v)
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else format_number(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if hasattr(obj, "to_json"):
        return json_ready(obj.to_json())
    return str(obj)
