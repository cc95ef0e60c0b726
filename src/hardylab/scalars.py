"""Shared numeric helpers: exact-vs-float bookkeeping, extended reals,
exact sums and ratios of rationals, and parsing/formatting of number
literals ("p/q", decimals, "inf")."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from typing import Any, Iterable, Sequence, Union

Number = Union[int, float, Fraction]


def is_exact(value: Any) -> bool:
    """True for values that support exact rational arithmetic."""
    return isinstance(value, Rational) and not isinstance(value, bool)


def all_exact(values: Sequence) -> bool:
    return all(is_exact(v) for v in values)


def exact_sum(values: Iterable[Number]) -> Number:
    """sum(values) for exact rationals, equal to it in value and in type.

    Neighbours are added level by level, so only the last few additions
    work on full-size numerators and denominators; a left-to-right sum pays
    a gcd and a multiply on the whole running denominator at every term.
    """
    level = list(values)
    while len(level) > 1:
        merged = [a + b for a, b in zip(level[::2], level[1::2])]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return sum(level)  # 0 when there are no values, as sum() gives


def exact_ratio(a: Rational, b: Rational) -> Fraction:
    """a / b for exact rationals as one Fraction of two integers, which
    takes one gcd where Fraction division takes two."""
    return Fraction(a.numerator * b.denominator, a.denominator * b.numerator)


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


def _digits(n: int) -> str:
    """Decimal digits of an integer of any size. str() refuses integers
    beyond sys.get_int_max_str_digits(), a process-wide limit; Decimal
    converts without it."""
    return str(Decimal(n))


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
